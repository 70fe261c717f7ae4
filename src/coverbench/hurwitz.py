"""Branched covers of closed surfaces as permutation monodromy data.

A datum records where loops on the punctured base go in S_d: one pair of
permutations per handle, one per crosscap, one meridian per branch
point. Words multiply left to right, so the surface relation reads

    orientable base:     [a1,b1]...[ag,bg] . m1...mb = id
    nonorientable base:  c1^2 ... ch^2     . m1...mb = id

with [a,b] = a.b.a^-1.b^-1 in the same convention.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    InvalidData,
    NonorientableBase,
    NotConnected,
    NotSimple,
    ValidationReport,
    WrongBase,
    admit,
)
from .perms import (
    Perm,
    from_cycles,
    identity,
    inverse,
    orbits,
    transposition,
)
from .surfaces import (
    PROJECTIVE_PLANE,
    SPHERE,
    ClosedSurface,
    classify,
    euler_characteristic,
)

# The builders' prices for errors.admit, whose step unit this is: one pass
# over a datum of k permutations of degree d (a validation, a walk, a
# report) costs k * (d + _PERM_STEPS) steps, its entries plus a fixed
# per-permutation overhead. A builder is charged one pass per datum it
# builds plus one per input it checks; the CLI charges every Hurwitz input
# one pass before reading it, and total_space each component of its report
# _PERM_STEPS. A run peaks under 128 bytes a step above the interpreter:
# at the budget edge 95 for construct --family cyclic-rp2 --crosscaps
# 1333301 (402 MB), 26 for stabilize --times 1396 (124 MB) and 8 for
# construct --family hyperelliptic --genus 58822. Whole CLI runs at the
# budget edge on a 2-core Xeon, Python 3.11, medians of 5: 0.18-0.45 us a step for
# universal-report --degree 2-7 and construct --family hyperelliptic
# --genus 58822; 1.0 us for that stabilize (3.8 s) and 1.4 us for that
# construct (5.7 s), the slowest.
_PERM_STEPS = 32


def pass_steps(k: int, d: int) -> int:
    """Steps of one pass over k permutations of degree d, in one datum or
    in several."""
    return k * (d + _PERM_STEPS)


def stabilize_steps(k: int, d: int, times: int) -> int:
    """Steps of stabilize(datum, times) and its report from a datum of k
    permutations of degree d: one pass over the input, which is checked
    once, and one over the output, k + 2 times permutations of degree
    d + times."""
    return pass_steps(k, d) + pass_steps(k + 2 * times, d + times)


@dataclass(frozen=True)
class HurwitzData:
    base: ClosedSurface
    degree: int
    handles: tuple[tuple[Perm, Perm], ...] = ()
    crosscaps: tuple[Perm, ...] = ()
    meridians: tuple[Perm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "handles", tuple((a, b) for a, b in self.handles)
        )
        object.__setattr__(self, "crosscaps", tuple(self.crosscaps))
        object.__setattr__(self, "meridians", tuple(self.meridians))

    @property
    def branch_count(self) -> int:
        return len(self.meridians)


@dataclass(frozen=True)
class CoverSummary:
    degree: int
    simple: bool
    components: tuple[tuple[ClosedSurface, int], ...]
    branch_point_count: int
    branching_indices: tuple[tuple[int, ...], ...]
    meridian_cycles: tuple[tuple[tuple[int, ...], ...], ...]  # as Perm.cycles() lists them

    @property
    def connected(self) -> bool:
        return len(self.components) == 1


def generators(datum: HurwitzData) -> list[Perm]:
    """All monodromy generators, in datum order."""
    gens: list[Perm] = []
    for a, b in datum.handles:
        gens.append(a)
        gens.append(b)
    gens.extend(datum.crosscaps)
    gens.extend(datum.meridians)
    return gens


def validate(datum: HurwitzData) -> ValidationReport:
    problems: list[str] = []
    notes: list[str] = []
    d = datum.degree
    if d < 1:
        problems.append(f"degree must be positive, got {d}")
        return ValidationReport(problems)

    if datum.base.orientable:
        if len(datum.handles) != datum.base.genus:
            problems.append(
                f"expected {datum.base.genus} handle pairs, got {len(datum.handles)}"
            )
        if datum.crosscaps:
            problems.append("orientable base cannot carry crosscap images")
    else:
        if len(datum.crosscaps) != datum.base.genus:
            problems.append(
                f"expected {datum.base.genus} crosscap images, got {len(datum.crosscaps)}"
            )
        if datum.handles:
            problems.append("nonorientable base cannot carry handle images")

    degrees_ok = True
    for label, p in _labeled_perms(datum):
        if p.degree != d:
            problems.append(f"{label} has degree {p.degree}, expected {d}")
            degrees_ok = False

    for j, m in enumerate(datum.meridians):
        if m.is_identity():
            problems.append(f"meridian {j} is the identity")

    if degrees_ok:
        # the relation word's letters, folded left to right over images
        letters = []
        if datum.base.orientable:
            for a, b in datum.handles:
                back = [0] * d  # [a,b] sends x to the z with a(b(z)) = b(a(x))
                for z, y in enumerate(b.images):
                    back[a.images[y]] = z
                letters += [a.images, b.images, back]
        else:
            letters += [c.images for c in datum.crosscaps for _ in range(2)]
        letters += [m.images for m in datum.meridians]
        product = letters[0] if letters else ()  # the empty word's is the identity
        for images in letters[1:]:
            product = [images[i] for i in product]
        if any(map(operator.ne, product, range(d))):
            problems.append(f"surface relation fails: word product has images {list(product)}")

    if not datum.meridians:
        notes.append("unbranched datum (no branch points)")

    return ValidationReport(problems, notes)


def _labeled_perms(datum: HurwitzData):
    for i, (a, b) in enumerate(datum.handles):
        yield f"handle {i} first image", a
        yield f"handle {i} second image", b
    for i, c in enumerate(datum.crosscaps):
        yield f"crosscap {i}", c
    for j, m in enumerate(datum.meridians):
        yield f"meridian {j}", m


def total_space(datum: HurwitzData) -> CoverSummary:
    """Classify the total space in one walk over the sheets in increasing
    order, which labels each sheet with its component and its sign on the
    sign double cover: a crosscap flips the sign, and a component is
    orientable when no sheet is reached with both signs. Each meridian's
    cycles are then read once, for chi, its branching index and the summary."""
    report = validate(datum)
    if not report.ok:
        raise InvalidData("; ".join(report.problems))
    d = datum.degree
    moves = [(p.images, 0) for pair in datum.handles for p in pair]
    moves += [(c.images, 1) for c in datum.crosscaps]
    moves += [(m.images, 0) for m in datum.meridians]
    component, sign = [-1] * d, [0] * d
    sizes: list[int] = []
    twisted: set[int] = set()
    for start in range(d):
        if component[start] >= 0:
            continue
        k = len(sizes)
        component[start] = k
        sizes.append(1)
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for images, flip in moves:
                j, s = images[i], sign[i] ^ flip
                # forward images suffice: permutations have finite order
                if component[j] < 0:
                    component[j], sign[j] = k, s
                    sizes[k] += 1
                    frontier.append(j)
                elif sign[j] != s:
                    twisted.add(k)
    # the report lists every component: charge each before any is classified
    admit(f"reporting {len(sizes)} components", len(sizes) * _PERM_STEPS)
    # a component of n sheets has chi n * chi(base) less, for each cycle
    # of a meridian on its sheets, the cycle's length minus one
    chi = [n * euler_characteristic(datum.base) for n in sizes]
    cycles, indices = tuple(tuple(m.cycles()) for m in datum.meridians), []
    for moved in cycles:
        for cyc in moved:
            chi[component[cyc[0]]] -= len(cyc) - 1
        lengths = sorted(map(len, moved), reverse=True)
        indices.append(tuple(lengths) + (1,) * (d - sum(lengths)))
    return CoverSummary(
        degree=d,
        simple=all(len(t) == d - 1 for t in indices),
        components=tuple(
            (classify(c, k not in twisted), n) for k, (c, n) in enumerate(zip(chi, sizes))
        ),
        branch_point_count=len(datum.meridians),
        branching_indices=tuple(indices),
        meridian_cycles=cycles,
    )


def is_connected(datum: HurwitzData) -> bool:
    return len(orbits(generators(datum), datum.degree)) == 1


def construct_hyperelliptic(g: int) -> HurwitzData:
    """Degree-2 data over the sphere with 2g+2 branch points; the total
    space is the closed orientable genus-g surface."""
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    admit(f"the hyperelliptic datum of genus {g}", pass_steps(2 * g + 2, 2))
    swap = transposition(2, 0, 1)
    return HurwitzData(SPHERE, 2, meridians=(swap,) * (2 * g + 2))


def construct_cyclic_rp2(h: int) -> HurwitzData:
    """Degree-h cyclic data over the projective plane whose total space
    is the nonorientable surface with h crosscaps.

    The crosscap image is trivial and the two meridians are inverse
    h-cycles; h = 1 degenerates to the unbranched identity datum.
    """
    if h < 1:
        raise ValueError(f"crosscap number must be >= 1, got {h}")
    admit(f"the cyclic datum with {h} crosscaps", pass_steps(3, h))
    if h == 1:
        return HurwitzData(PROJECTIVE_PLANE, 1, crosscaps=(identity(1),))
    sigma = from_cycles(h, [tuple(range(h))])
    return HurwitzData(
        PROJECTIVE_PLANE,
        h,
        crosscaps=(identity(h),),
        meridians=(sigma, inverse(sigma)),
    )


def _extended(p: Perm, new_degree: int) -> Perm:
    return Perm(p.images + tuple(range(p.degree, new_degree)))


def stabilize(datum: HurwitzData, times: int = 1) -> HurwitzData:
    """Add `times` trivial sheets, each joined by a pair of simple branch
    points.

    Degree goes up by times and the branch count by 2 * times. Over the
    sphere each step is a connected sum with the base, so the total space
    is unchanged; over positive genus it adds the base's topology. The
    datum is checked once, as every step keeps it valid, simple and
    connected: the T steps from degree d are one pass that extends each
    permutation to degree d + T and appends the swaps (d-1+t, d+t), each
    twice, for t = 0..T-1. With times = 0 the datum is returned as it is.
    """
    if times < 0:
        raise ValueError(f"need times >= 0, got {times}")
    if not times:
        return datum
    summary = total_space(datum)
    if not datum.base.orientable:
        raise NonorientableBase("stabilization needs an orientable base")
    if not summary.simple:
        raise NotSimple("stabilization needs simple branching")
    if not summary.connected:
        raise NotConnected("stabilization needs a connected total space")
    d = datum.degree
    n = d + times
    swaps = [transposition(n, d - 1 + t, d + t) for t in range(times)]
    return HurwitzData(
        datum.base,
        n,
        handles=tuple((_extended(a, n), _extended(b, n)) for a, b in datum.handles),
        meridians=tuple(_extended(m, n) for m in datum.meridians)
        + tuple(swap for swap in swaps for _ in range(2)),
    )


def compose_orientation_double(datum: HurwitzData) -> HurwitzData:
    """Push data over the sphere down to the projective plane by
    composing with the orientation double cover.

    Sheets double: sheet i of the input becomes i and i+d, the crosscap
    image swaps the two copies, and each meridian acts on the first copy
    only. Component surfaces and simplicity are unchanged while every
    component degree doubles.
    """
    report = validate(datum)
    if not report.ok:
        raise InvalidData("; ".join(report.problems))
    if datum.base != SPHERE:
        raise WrongBase("orientation double cover composition needs base = sphere")
    d = datum.degree
    swap_copies = Perm(tuple(range(d, 2 * d)) + tuple(range(d)))
    return HurwitzData(
        PROJECTIVE_PLANE,
        2 * d,
        crosscaps=(swap_copies,),
        meridians=tuple(_extended(m, 2 * d) for m in datum.meridians),
    )
