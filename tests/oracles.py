"""Independent cross-checks used by the test suite only.

These recompute invariants by a different route than the library:
Euler characteristics by counting cells of a lifted cell structure,
orientability by brute-force search over sign assignments, sheet
orbits of census class forms by min-label propagation, reports by
the stdlib's JSON encoder, peak memory from a separate launcher, and
the census's tuple counts of any meridians as one scalar each
(hom_count, all_connected_count) where the library grades them.
Agreement with the library is what the randomized tests assert. The
permutation and exhaustion helpers here (compose_all, cycle_type,
is_transposition, frontier_circles) are used by the tests alone.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from math import comb, factorial
from typing import Iterable

import numpy as np

from coverbench.characters import _irreducibles
from coverbench.errors import DepthExceeded, InvalidInput
from coverbench.exhaustion import (
    ExhaustionGraph,
    NormalizedExhaustion,
    Piece,
    validate_exhaustion,
)
from coverbench.hurwitz import HurwitzData
from coverbench.layered import BLOCK_KINDS, Block, LayeredCover
from coverbench.perms import Perm, compose, identity, inverse
from coverbench.surfaces import PROJECTIVE_PLANE, SPHERE, TORUS, ClosedSurface, euler_characteristic


def compose_all(perms, n: int | None = None) -> Perm:
    """Product of a word read left to right; identity for the empty word
    (n must then be given)."""
    if not perms:
        if n is None:
            raise ValueError("empty word needs an explicit degree")
        return identity(n)
    acc = perms[0]
    for p in perms[1:]:
        acc = compose(acc, p)
    return acc


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths including fixed points, sorted descending."""
    return tuple(sorted((len(c) for c in p.cycles(include_fixed=True)), reverse=True))


def is_transposition(p: Perm) -> bool:
    return sum(1 for i in range(p.degree) if p.images[i] != i) == 2


def frontier_circles(g: ExhaustionGraph) -> tuple[int, ...]:
    """Outer circles glued to nothing; in a valid truncation these all
    sit at the deepest level and are where the surface keeps going."""
    referenced = {c for p in g.pieces for c in p.inner}
    return tuple(sorted(c for p in g.pieces for c in p.outer if c not in referenced))


def stdlib_dumps(doc) -> str:
    """A report as the stdlib encodes it; jsonio.dumps must match it byte
    for byte."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# exec keeps the ru_maxrss of the process it replaces, so a child forked
# straight from pytest would start at pytest's size: the measured process
# is forked from this small launcher, which reports the child's peak last
_LAUNCHER = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:]).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_measured(argv: list[str], timeout: float, preexec_fn=None):
    """Run argv with this test process's import path; return the completed
    process and argv's peak resident size in bytes."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=preexec_fn,
    )
    *lines, peak = child.stderr.splitlines(keepends=True)
    child.stderr = "".join(lines)
    return child, int(peak) << 10  # ru_maxrss is in KiB on Linux


def lifted_cell_chi(datum: HurwitzData, orbit: Iterable[int]) -> int:
    """Euler characteristic of the part of the total space over one orbit,
    counted as vertices - edges + faces of a lifted cell structure.

    Base cells: one vertex, one loop per handle side or crosscap, one
    spoke out to each branch point, one 2-cell running through the whole
    surface relation. Upstairs each cell is counted by its lifts: the
    vertex and every edge lift once per sheet, the spoke endpoints give
    one vertex per meridian cycle, and the 2-cell lifts once per sheet
    because the relation word acts trivially.
    """
    orbit_set = set(orbit)
    r = 2 * datum.base.genus if datum.base.orientable else datum.base.genus
    b = len(datum.meridians)
    vertices = len(orbit_set)
    for m in datum.meridians:
        # orbits are m-invariant, so testing the first point suffices
        vertices += sum(
            1 for cyc in m.cycles(include_fixed=True) if cyc[0] in orbit_set
        )
    edges = len(orbit_set) * (r + b)
    faces = len(orbit_set)
    return vertices - edges + faces


def signed_generators(datum: HurwitzData) -> list[tuple[Perm, int]]:
    """Generators with their orientation weights: -1 on crosscaps,
    +1 on handle sides and meridians."""
    gens: list[tuple[Perm, int]] = []
    if datum.base.orientable:
        for a, b in datum.handles:
            gens.append((a, 1))
            gens.append((b, 1))
    else:
        for c in datum.crosscaps:
            gens.append((c, -1))
    for m in datum.meridians:
        gens.append((m, 1))
    return gens


def orientable_bruteforce(datum: HurwitzData, orbit: Iterable[int]) -> bool:
    """Exhaustive search for a consistent sign assignment on one orbit.

    Exponential in the orbit size; keep orbits small.
    """
    gens = signed_generators(datum)
    pts = sorted(set(orbit))
    index = {i: k for k, i in enumerate(pts)}
    n = len(pts)
    for bits in range(2 ** max(0, n - 1)):
        s = [1] + [1 if (bits >> k) & 1 else -1 for k in range(n - 1)]
        ok = True
        for g, w in gens:
            for i in pts:
                if s[index[g.images[i]]] != w * s[index[i]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def random_perm(rng: random.Random, d: int) -> Perm:
    xs = list(range(d))
    rng.shuffle(xs)
    return Perm(tuple(xs))


def relation_word(datum: HurwitzData) -> list[Perm]:
    """The boundary word whose product must be the identity, as Perms:
    the reference for validate's fold over image tuples."""
    word: list[Perm] = []
    if datum.base.orientable:
        for a, b in datum.handles:
            word += [a, b, inverse(a), inverse(b)]
    else:
        for c in datum.crosscaps:
            word += [c, c]
    word.extend(datum.meridians)
    return word


def random_valid_datum(
    rng: random.Random, max_degree: int = 6, max_branch: int = 8
) -> HurwitzData:
    """A random datum satisfying the surface relation.

    All entries but the last meridian are uniform; the last meridian is
    solved from the relation and dropped when it comes out the identity,
    so the branch count occasionally lands one short of the draw.
    """
    d = rng.randint(1, max_degree)
    orientable = rng.random() < 0.5
    genus = rng.randint(0, 2) if orientable else rng.randint(1, 2)
    base = ClosedSurface(orientable, genus)
    handles: tuple[tuple[Perm, Perm], ...] = ()
    crosscaps: tuple[Perm, ...] = ()
    if orientable:
        handles = tuple(
            (random_perm(rng, d), random_perm(rng, d)) for _ in range(genus)
        )
    else:
        crosscaps = tuple(random_perm(rng, d) for _ in range(genus))
    word = relation_word(HurwitzData(base, d, handles, crosscaps))
    lead: list[Perm] = []
    target = rng.randint(1, max_branch)
    while len(lead) < target - 1:
        p = random_perm(rng, d)
        if p.is_identity():
            if d == 1:
                break
            continue
        lead.append(p)
    last = inverse(compose_all(word + lead, d))
    meridians = tuple(lead) + (() if last.is_identity() else (last,))
    return HurwitzData(base, d, handles, crosscaps, meridians)


# (base, degree, branch count) cells small enough for oracle_census
ORACLE_SIMPLE_CELLS = [
    (SPHERE, 2, 4),
    (SPHERE, 3, 4),
    (PROJECTIVE_PLANE, 2, 2),
    (PROJECTIVE_PLANE, 3, 3),
    (PROJECTIVE_PLANE, 3, 5),
    (PROJECTIVE_PLANE, 2, 4),
]
ORACLE_NONSIMPLE_CELLS = [
    (SPHERE, 3, 2),
    (PROJECTIVE_PLANE, 3, 2),
    (TORUS, 2, 1),
    (TORUS, 2, 2),
]


def oracle_census(base: ClosedSurface, d: int, b: int, simple_only: bool):
    """Brute-force census with no solving and no tables: iterate every
    generator tuple, keep valid transitive ones, count raw tuples and
    exact conjugation classes per realized surface.

    Only usable for tiny cells; complexity is |S_d|^(slots).
    """
    import itertools

    from coverbench.hurwitz import HurwitzData, is_connected, total_space, validate
    from coverbench.perms import compose

    group = [Perm(p) for p in itertools.permutations(range(d))]
    pool = [
        p
        for p in group
        if (is_transposition(p) if simple_only else not p.is_identity())
    ]
    r = 2 * base.genus if base.orientable else base.genus
    slots = [group] * r + [pool] * b
    raw: dict = {}
    classes: dict = {}
    for combo in itertools.product(*slots):
        if base.orientable:
            datum = HurwitzData(
                base,
                d,
                handles=tuple(
                    (combo[2 * i], combo[2 * i + 1]) for i in range(base.genus)
                ),
                meridians=tuple(combo[r:]),
            )
        else:
            datum = HurwitzData(
                base, d, crosscaps=tuple(combo[:r]), meridians=tuple(combo[r:])
            )
        if not validate(datum).ok or not is_connected(datum):
            continue
        surface = total_space(datum).components[0][0]
        raw[surface] = raw.get(surface, 0) + 1
        canon = min(
            tuple(
                x
                for g in combo
                for x in compose(compose(inverse(t), g), t).images
            )
            for t in group
        )
        classes.setdefault(surface, set()).add(canon)
    return sorted(
        ((s, raw[s], len(classes[s])) for s in raw),
        key=lambda row: (not row[0].orientable, row[0].genus),
    )


def fraction_simple_homs(chi: int, d: int, b: int) -> int:
    """characters._simple_homs by Frobenius' formula as written, in
    Fractions: (d!)^(1 - chi) * sum over lambda of (f^lambda)^chi *
    c(lambda)^b, whose denominators must cancel to 1. There is no
    shortcut for odd b: conjugate partitions then cancel term by term."""
    total = sum(Fraction(f) ** chi * c**b for f, _, c in _irreducibles(d))
    exact = Fraction(factorial(d)) ** (1 - chi) * total
    assert exact.denominator == 1, f"character sum {exact} is not an integer"
    return exact.numerator


def hom_count(base: ClosedSurface, d: int, b: int, simple_only: bool = True) -> int:
    """Every valid tuple of a census cell, connected or not: handle pairs
    or crosscaps closing the surface relation with b meridians,
    transpositions when simple_only (fraction_simple_homs), else any
    non-identity permutations. With b >= 1 free meridians the last is
    fixed by the others, (d!)^(1 - chi + b) tuples; inclusion-exclusion
    over the meridians forced to be the identity leaves the rest."""
    chi = euler_characteristic(base)
    if simple_only:
        return fraction_simple_homs(chi, d, b)
    return _nontrivial(lambda k: _free_homs(chi, d, k), b)


def _free_homs(chi: int, d: int, b: int) -> int:
    return factorial(d) ** (1 - chi + b) if b else fraction_simple_homs(chi, d, 0)


def _nontrivial(counts, b: int) -> int:
    return sum((-1) ** j * comb(b, j) * counts(b - j) for j in range(b + 1))


def all_connected_count(base: ClosedSurface, d: int, b: int) -> int:
    """The connected tuples of a cell of any meridians as one scalar:
    the exponential formula over sheets for each number k of free
    meridians, then inclusion-exclusion over the meridians forced to be
    the identity. characters grades the same count by ramification."""
    chi = euler_characteristic(base)

    def transitive(k: int) -> int:
        homs = [_free_homs(chi, n, k) for n in range(d + 1)]
        conn = [0] * (d + 1)
        for n in range(1, d + 1):
            conn[n] = homs[n] - sum(comb(n - 1, m - 1) * conn[m] * homs[n - m] for m in range(1, n))
        return conn[d]

    return _nontrivial(transitive, b)


def conjugation_classes(base: ClosedSurface, d: int, b: int, simple_only: bool):
    """Every valid tuple of a cell, brute-forced with no solving and no
    tables, grouped into its classes under simultaneous conjugation.

    A tuple is a tuple of image tuples in datum order: handle pairs or
    crosscaps, then meridians. Only usable for tiny cells; complexity is
    |S_d|^(slots).
    """
    import itertools

    group = [Perm(p) for p in itertools.permutations(range(d))]
    pool = [
        p
        for p in group
        if (is_transposition(p) if simple_only else not p.is_identity())
    ]
    r = 2 * base.genus if base.orientable else base.genus
    classes: list[frozenset] = []
    seen: set = set()
    for combo in itertools.product(*[group] * r, *[pool] * b):
        if base.orientable:
            word = [
                g
                for a, c in zip(combo[0:r:2], combo[1:r:2])
                for g in (a, c, inverse(a), inverse(c))
            ]
        else:
            word = [c for c in combo[:r] for _ in range(2)]
        if not compose_all(word + list(combo[r:]), d).is_identity():
            continue
        images = tuple(g.images for g in combo)
        if images in seen:
            continue
        orbit = frozenset(
            tuple(compose_all([inverse(t), g, t]).images for g in combo) for t in group
        )
        seen |= orbit
        classes.append(orbit)
    return classes


def random_transposition(rng: random.Random, d: int) -> Perm:
    a, b = rng.sample(range(d), 2)
    images = list(range(d))
    images[a], images[b] = b, a
    return Perm(tuple(images))


def random_simple_sphere_datum(
    rng: random.Random, degree: int, branch: int, require_connected: bool = False
) -> HurwitzData:
    """Rejection-sample simple data over the sphere: draw branch-1
    transpositions until their product is itself a transposition, which
    then closes the relation.

    A connected outcome needs branch >= 2*(degree-1); after a bounded
    number of failed draws a deterministic ladder of doubled adjacent
    transpositions is returned instead.
    """
    from coverbench.hurwitz import is_connected
    from coverbench.surfaces import SPHERE

    assert degree >= 2 and branch >= 2 and branch % 2 == 0
    if require_connected:
        assert branch >= 2 * (degree - 1)
    for _ in range(500):
        lead = [random_transposition(rng, degree) for _ in range(branch - 1)]
        last = inverse(compose_all(lead, degree))
        if not is_transposition(last):
            continue
        datum = HurwitzData(SPHERE, degree, meridians=tuple(lead) + (last,))
        if require_connected and not is_connected(datum):
            continue
        return datum
    rungs = [transposition_pair(degree, a) for a in range(degree - 1)]
    meridians = [t for pair in rungs for t in pair]
    while len(meridians) < branch:
        meridians += list(transposition_pair(degree, 0))
    return HurwitzData(SPHERE, degree, meridians=tuple(meridians))


def transposition_pair(degree: int, a: int) -> tuple[Perm, Perm]:
    images = list(range(degree))
    images[a], images[a + 1] = a + 1, a
    t = Perm(tuple(images))
    return t, t


# --- reference checkers for layered covers ---
#
# verify_layered and restriction_compatibility as they were before the
# level index: every level found by a scan of all blocks, the lower
# sheets rebuilt for each restriction, one O(sheets) pass per meridian.
# Quadratic (cubic for a full restriction sweep), but independent of
# LayeredCover.index, so the index-backed checkers must agree with them
# exactly.


def _scan_level(c: LayeredCover, j: int) -> tuple[Block, ...]:
    return tuple(b for b in c.blocks if b.level == j)


def _quadratic_word_perm(
    sheets: tuple[int, ...],
    inbound: tuple[int, ...] | None,
    meridians: tuple[tuple[int, int], ...],
) -> dict[int, int] | None:
    """Boundary product of a block: inbound cycle first, then the
    meridian transpositions left to right. None when the inbound cycle
    repeats a sheet or it or a meridian leaves the block's sheets."""
    if not _quadratic_within(sheets, inbound, meridians):
        return None
    perm = {s: s for s in sheets}
    if inbound:
        for a, b in zip(inbound, inbound[1:] + (inbound[0],)):
            perm[a] = b
    for a, b in meridians:
        for s in perm:
            v = perm[s]
            perm[s] = b if v == a else a if v == b else v
    return perm


def _quadratic_within(sheets, inbound, meridians) -> bool:
    own = set(sheets)
    if inbound and (len(set(inbound)) != len(inbound) or not own.issuperset(inbound)):
        return False
    return all(len(t) == 2 and own.issuperset(t) for t in meridians)


def _quadratic_perm_cycles(perm: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    out = []
    for s in sorted(perm):
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        x = perm[s]
        while x != s:
            cyc.append(x)
            seen.add(x)
            x = perm[x]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return tuple(out)


def _quadratic_block_chi(b: Block) -> int:
    # level 1 covers a disk (chi 1), later levels cover annuli (chi 0);
    # inward caps are disks glued back on
    if b.level == 1:
        return len(b.sheets) - len(b.meridians)
    return len(b.caps) - len(b.meridians)


def quadratic_verify_layered(c: LayeredCover) -> tuple[tuple[str, bool, str], ...]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append((name, passed, detail))

    problems: list[str] = []
    if not c.blocks:
        problems.append("no blocks")
    levels = {b.level for b in c.blocks}
    if levels and levels != set(range(1, c.depth + 1)):
        problems.append("levels not contiguous from 1")
    if c.depth != max(levels, default=0):
        problems.append("depth field disagrees with deepest block")
    roots = _scan_level(c, 1)
    if len(roots) != 1:
        problems.append(f"expected one level-1 block, found {len(roots)}")
    by_piece = {}
    for b in c.blocks:
        if b.piece in by_piece:
            problems.append(f"two blocks over piece {b.piece!r}")
        by_piece[b.piece] = b
        if b.kind not in BLOCK_KINDS:
            problems.append(f"unknown block kind {b.kind!r}")
        if len(set(b.sheets)) != len(b.sheets):
            problems.append(f"block {b.piece!r} repeats sheets")
        if not set(b.caps) <= set(b.sheets):
            problems.append(f"block {b.piece!r} caps outside its sheets")
        if b.inbound is not None and not set(b.inbound) <= set(b.sheets) - set(b.caps):
            problems.append(f"block {b.piece!r} inbound cycle leaves its open sheets")
        if len(b.labels) != len(b.meridians):
            problems.append(f"block {b.piece!r} labels out of step with meridians")
        if (b.level == 1) != (b.parent is None):
            problems.append(f"block {b.piece!r} parent link wrong for its level")
    add("structure", not problems, "; ".join(problems) or "block shapes consistent")

    glue: list[str] = []
    out_owner: dict[int, tuple[Block, tuple[int, ...]]] = {}
    for b in c.blocks:
        for circle, cyc in b.outbound:
            if circle in out_owner:
                glue.append(f"circle {circle} emitted twice")
            out_owner[circle] = (b, cyc)
    consumed: dict[int, str] = {}
    for b in c.blocks:
        if b.level == 1:
            continue
        if b.parent not in by_piece or by_piece[b.parent].level != b.level - 1:
            glue.append(f"block {b.piece!r} parent missing or at wrong level")
            continue
        if b.parent_circle not in out_owner:
            glue.append(f"block {b.piece!r} glued to unknown circle {b.parent_circle}")
            continue
        owner, cyc = out_owner[b.parent_circle]
        if owner.piece != b.parent:
            glue.append(f"block {b.piece!r} parent does not own circle {b.parent_circle}")
        if b.inbound != cyc:
            glue.append(f"block {b.piece!r} inbound cycle disagrees with parent gluing")
        if b.parent_circle in consumed:
            glue.append(f"circle {b.parent_circle} consumed twice")
        consumed[b.parent_circle] = b.piece
    for b in c.blocks:
        if b.level < c.depth:
            for circle, _ in b.outbound:
                if circle not in consumed:
                    glue.append(f"circle {circle} of block {b.piece!r} feeds nothing")
    lower_sheets: set[int] = set()
    for j in range(1, c.depth + 1):
        for b in _scan_level(c, j):
            if set(b.caps) & lower_sheets:
                glue.append(f"block {b.piece!r} caps reuse lower sheets")
        for b in _scan_level(c, j):
            lower_sheets |= set(b.sheets)
    add("gluing", not glue, "; ".join(glue) or "inbound cycles match parent gluings")

    rel: list[str] = []
    for b in c.blocks:
        perm = _quadratic_word_perm(b.sheets, b.inbound, b.meridians)
        want = {cyc for _, cyc in b.outbound}
        covered = {s for cyc in want for s in cyc}
        if perm is None:
            rel.append(f"block {b.piece!r} inbound cycle or a meridian is not a cycle on its sheets")
        elif set(_quadratic_perm_cycles(perm)) != want:
            rel.append(f"block {b.piece!r} boundary product disagrees with outbound cycles")
        elif covered != set(b.sheets):
            rel.append(f"block {b.piece!r} outbound cycles miss some sheets")
    add("relations", not rel, "; ".join(rel) or "boundary products match outbound cycles")

    simple: list[str] = []
    seen_labels: set[tuple[int, int]] = set()
    for b in c.blocks:
        for t in b.meridians:
            if len(t) != 2 or t[0] == t[1] or not set(t) <= set(b.sheets):
                simple.append(f"block {b.piece!r} has a non-transposition meridian")
                break
        for lab in b.labels:
            if lab in seen_labels:
                simple.append(f"branch label {lab} reused")
            seen_labels.add(lab)
    add("simple-branching", not simple, "; ".join(simple) or "all meridians simple, labels distinct")

    trans: list[str] = []
    for b in c.blocks:
        if b.kind != "pants":
            continue
        if not _quadratic_within(b.sheets, None, b.meridians):
            trans.append(f"pants block {b.piece!r} meridians leave its sheets")
            continue
        part = {s: s for s in b.sheets}

        def find(x: int) -> int:
            while part[x] != x:
                part[x] = part[part[x]]
                x = part[x]
            return x

        for a, bb in b.meridians:
            part[find(a)] = find(bb)
        if len({find(s) for s in b.sheets}) != 1:
            trans.append(f"pants block {b.piece!r} meridians not transitive")
    add("pants-transitivity", not trans, "; ".join(trans) or "pants meridians transitive")

    fiber: list[str] = []
    for j in range(1, c.depth + 1):
        count = sum(len(b.sheets) for b in _scan_level(c, j)) + sum(
            len(b.caps) for b in c.blocks if b.level > j
        )
        if count != c.degree:
            fiber.append(f"fiber count over stage {j} is {count}, not {c.degree}")
    add("fiber-count", not fiber, "; ".join(fiber) or f"fiber count {c.degree} at every stage")

    chi: list[str] = []
    for b in c.blocks:
        if b.kind == "annulus" and len(b.meridians) % 2 != 0:
            chi.append(f"annulus block {b.piece!r} has odd branch count")
        if b.kind == "pants" and (len(b.meridians) < 3 or len(b.meridians) % 2 != 1):
            chi.append(f"pants block {b.piece!r} branch count not 2g + 3")
        if b.kind == "disk" and (len(b.sheets) != 2 or len(b.meridians) != 1):
            chi.append(f"disk block {b.piece!r} is not the two-sheeted branched disk")
    total = sum(_quadratic_block_chi(b) for b in c.blocks)
    expected = c.degree - c.branch_count
    if total != expected:
        chi.append(f"blockwise chi {total} disagrees with degree - branching {expected}")
    add("chi", not chi, "; ".join(chi) or f"chi of stage {c.depth} is {total} both ways")

    ends = 1 + c.pants_count
    add(
        "ends-bound",
        ends <= c.degree,
        f"{ends} ends within degree {c.degree}"
        if ends <= c.degree
        else f"{ends} ends exceeds degree {c.degree}",
    )

    return tuple(checks)


def quadratic_restriction_compatibility(c: LayeredCover, i: int) -> bool:
    """Whether the data at level i + 1 restricts to exactly the data at
    level i: parent gluings match, fresh sheets are genuinely fresh,
    and the level-(i + 1) boundary products close up."""
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    if c.depth < i + 1:
        raise DepthExceeded(f"cover truncated at depth {c.depth}, level {i + 1} missing")
    out_map: dict[int, tuple[Block, tuple[int, ...]]] = {}
    for b in _scan_level(c, i):
        for circle, cyc in b.outbound:
            out_map[circle] = (b, cyc)
    lower_sheets = {s for b in c.blocks if b.level <= i for s in b.sheets}
    claimed: list[int] = []
    for b in _scan_level(c, i + 1):
        if b.parent_circle not in out_map:
            return False
        owner, cyc = out_map[b.parent_circle]
        if b.parent != owner.piece or b.inbound != cyc:
            return False
        if set(b.caps) & lower_sheets:
            return False
        perm = _quadratic_word_perm(b.sheets, b.inbound, b.meridians)
        want = {cc for _, cc in b.outbound}
        if perm is None or set(_quadratic_perm_cycles(perm)) != want:
            return False
        if {s for cyc2 in want for s in cyc2} != set(b.sheets):
            return False
        claimed.append(b.parent_circle)
    return sorted(claimed) == sorted(out_map)


# --- reference normalizer ---
# The normalization sweep as first written: the owner and referencer
# maps, a union-find over every piece above the level and the gluing
# adjacency are rebuilt for each join, and each move scans all pieces.
# Quadratic or worse, but independent of the live maps and the level
# index in coverbench.exhaustion, so normalize must agree with it
# exactly.


class _QuadraticMut:
    """Mutable working copy of a piece during normalization."""

    __slots__ = ("id", "level", "genus", "inner", "outer")

    def __init__(self, p: Piece):
        self.id = p.id
        self.level = p.level
        self.genus = p.genus
        self.inner = list(p.inner)
        self.outer = list(p.outer)

    def freeze(self) -> Piece:
        return Piece(
            self.id,
            self.level,
            self.genus,
            tuple(sorted(self.inner)),
            tuple(sorted(self.outer)),
        )


class _QuadraticNormalizer:
    def __init__(self, g: ExhaustionGraph):
        self.pieces: dict[str, _QuadraticMut] = {p.id: _QuadraticMut(p) for p in g.pieces}
        ids = [c for p in g.pieces for c in p.outer]
        self.next_circle = max(ids, default=0) + 1
        self.next_name = 1

    def fresh_circle(self) -> int:
        c = self.next_circle
        self.next_circle += 1
        return c

    def fresh_id(self, tag: str) -> str:
        while True:
            name = f"+{tag}{self.next_name}"
            self.next_name += 1
            if name not in self.pieces:
                return name

    def depth(self) -> int:
        return max(p.level for p in self.pieces.values())

    def owner_of(self) -> dict[int, _QuadraticMut]:
        return {c: p for p in self.pieces.values() for c in p.outer}

    def referencer_of(self) -> dict[int, _QuadraticMut]:
        return {c: p for p in self.pieces.values() for c in p.inner}

    # -- level-1 disk --

    def ensure_disk(self) -> None:
        root = min(
            (p for p in self.pieces.values() if p.level == 1), key=lambda p: p.id
        )
        if root.genus == 0 and len(root.outer) == 1 and not root.inner:
            return
        for p in self.pieces.values():
            p.level += 1
        c0 = self.fresh_circle()
        disk = _QuadraticMut(Piece(self.fresh_id("d"), 1, 0, (), (c0,)))
        root.inner = [c0]
        self.pieces[disk.id] = disk

    # -- move (1): tube joins --

    def joins_at(self, j: int) -> None:
        while True:
            owner = self.owner_of()
            refer = self.referencer_of()
            parent: dict[str, str] = {
                p.id: p.id for p in self.pieces.values() if p.level > j
            }

            def find(x: str) -> str:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for p in self.pieces.values():
                if p.level <= j + 1:
                    continue
                for c in p.inner:
                    q = owner[c]
                    if q.level > j:
                        ra, rb = find(p.id), find(q.id)
                        if ra != rb:
                            parent[ra] = rb

            groups: dict[str, list[int]] = {}
            for p in self.pieces.values():
                if p.level != j:
                    continue
                for c in p.outer:
                    r = refer.get(c)
                    if r is not None:
                        groups.setdefault(find(r.id), []).append(c)
            multi = [sorted(cs) for cs in groups.values() if len(cs) >= 2]
            if not multi:
                return
            chosen = min(multi, key=lambda cs: cs[0])
            c1, c2 = chosen[0], chosen[1]
            path, crossings = self._tube_path(j, refer[c1], refer[c2], c1, c2)
            self._apply_join(j, path, crossings, owner, refer)

    def _adjacency(self, j: int) -> dict[str, list[tuple[str, int]]]:
        """Gluing adjacency among pieces strictly above level j, each
        edge tagged by its circle; sorted for deterministic search."""
        owner = self.owner_of()
        refer = self.referencer_of()
        adj: dict[str, list[tuple[str, int]]] = {
            p.id: [] for p in self.pieces.values() if p.level > j
        }
        for p in self.pieces.values():
            if p.level <= j:
                continue
            for c in p.inner:
                q = owner[c]
                if q.level > j:
                    adj[p.id].append((q.id, c))
                    adj[q.id].append((p.id, c))
        for k in adj:
            adj[k].sort()
        return adj

    def _tube_path(
        self, j: int, start: _QuadraticMut, goal: _QuadraticMut, c1: int, c2: int
    ) -> tuple[list[_QuadraticMut], list[int]]:
        """Shortest gluing path from the piece over c1 to the piece over
        c2 among pieces above level j; ties resolved by least piece id,
        then least circle id. Returns the pieces and the crossed
        circles, bracketed by c1 and c2."""
        if start.id == goal.id:
            return [start], [c1, c2]
        adj = self._adjacency(j)
        dist = {start.id: 0}
        queue = deque([start.id])
        while queue:
            u = queue.popleft()
            for v, _ in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        ids = [goal.id]
        circles: list[int] = []
        while ids[-1] != start.id:
            u = ids[-1]
            best = min(
                (v, c) for v, c in adj[u] if dist.get(v, -1) == dist[u] - 1
            )
            ids.append(best[0])
            circles.append(best[1])
        ids.reverse()
        circles.reverse()
        return [self.pieces[i] for i in ids], [c1] + circles + [c2]

    def _merge_pieces(self, group: list[_QuadraticMut]) -> _QuadraticMut:
        group = sorted(group, key=lambda p: p.id)
        head = group[0]
        for p in group[1:]:
            head.genus += p.genus
            head.inner += p.inner
            head.outer += p.outer
            del self.pieces[p.id]
        return head

    def _merge_circles(self, a: int, b: int) -> None:
        keep, drop = min(a, b), max(a, b)
        for p in self.pieces.values():
            for attr in ("inner", "outer"):
                lst = getattr(p, attr)
                if drop in lst or keep in lst:
                    out: list[int] = []
                    for c in lst:
                        c = keep if c == drop else c
                        if c == keep and keep in out:
                            continue
                        out.append(c)
                    setattr(p, attr, out)

    def _apply_join(self, j, path, crossings, owner, refer) -> None:
        walk = [j] + [p.level for p in path] + [j]
        stack: list[int] = []
        pairs: list[tuple[int, int]] = []
        for i, circle in enumerate(crossings):
            if walk[i + 1] > walk[i]:
                stack.append(circle)
            else:
                pairs.append((stack.pop(), circle))

        c1, c2 = crossings[0], crossings[-1]
        x, y = owner[c1], owner[c2]
        if x.id == y.id:
            x.genus += 1
        else:
            self._merge_pieces([x, y])

        top = max(p.level for p in path)
        for level in range(j + 1, top + 1):
            run: list[_QuadraticMut] = []
            for p in path + [None]:
                if p is not None and p.level >= level:
                    if p.level == level:
                        run.append(p)
                else:
                    if len(run) >= 2:
                        self._merge_pieces(run)
                    run = []

        for a, b in pairs:
            self._merge_circles(a, b)

    # -- move (2): pants splits --

    def splits_at(self, j: int) -> None:
        while True:
            fat = [
                p for p in self.pieces.values() if p.level == j and len(p.outer) >= 3
            ]
            if not fat:
                return
            x = min(fat, key=lambda p: p.id)
            ca, cb = sorted(x.outer)[:2]
            refer = self.referencer_of()
            # the inserted ring pushes everything deeper by one level, so
            # every other circle of this stage needs a pass-through tube
            # to keep gluings strictly one level apart
            ring = sorted(
                c
                for p in self.pieces.values()
                if p.level == j
                for c in p.outer
                if c not in (ca, cb)
            )
            for p in self.pieces.values():
                if p.level > j:
                    p.level += 1
            cf = self.fresh_circle()
            x.outer = [c for c in x.outer if c not in (ca, cb)] + [cf]
            pants = _QuadraticMut(Piece(self.fresh_id("p"), j + 1, 0, (cf,), (ca, cb)))
            self.pieces[pants.id] = pants
            for c in ring:
                cc = self.fresh_circle()
                ann = _QuadraticMut(Piece(self.fresh_id("a"), j + 1, 0, (c,), (cc,)))
                self.pieces[ann.id] = ann
                r = refer.get(c)
                if r is not None:
                    r.inner = [cc if d == c else d for d in r.inner]

    def run(self) -> tuple[tuple[Piece, ...], int]:
        self.ensure_disk()
        j = 2
        while j <= self.depth():
            self.joins_at(j)
            self.splits_at(j)
            j += 1
        frozen = tuple(
            p.freeze() for p in sorted(self.pieces.values(), key=lambda p: (p.level, p.id))
        )
        return frozen, self.depth()


def quadratic_normalize(g: ExhaustionGraph) -> NormalizedExhaustion:
    report = validate_exhaustion(g)
    if not report.ok:
        raise InvalidInput("; ".join(report.problems))
    pieces, depth = _QuadraticNormalizer(g).run()
    return NormalizedExhaustion(pieces, stable_depth=depth)


# --- reference classifier for census class forms ---
#
# The census's connectivity and orientability verdicts as they were
# before the one-closure classifier: min-label propagation over the
# sheets, then again over the 2d sheets of the sign double cover, each
# on a per-row image array. It needs neither the relation nor a
# connected row, so the new closure must agree with it on any index
# array.


def orbit_labels(images: np.ndarray) -> np.ndarray:
    """Least point of every point's orbit, per row.

    images[r, j] is generator j of row r as an image array on m points;
    the result has shape (rows, m). A label travels one generator step
    per round, and every point of an orbit is reached from its least
    point in fewer than m steps.
    """
    rows, _, m = images.shape
    labels = np.tile(np.arange(m, dtype=images.dtype), (rows, 1))
    for _ in range(m):
        before = labels.copy()
        for j in range(images.shape[1]):
            np.minimum(labels, np.take_along_axis(labels, images[:, j], axis=1), out=labels)
        if np.array_equal(labels, before):
            break
    return labels


def label_verdicts(T, base: ClosedSurface, forms: np.ndarray):
    """(connected, orientable) of every row of forms, a (rows, generators)
    array of GroupTable indices in datum order: connected when every
    sheet has sheet 0's label; orientable, for sheet 0's component, when
    the lifts (0, 0) = 0 and (0, 1) = d of the sign double cover, on which
    a crosscap c sends (i, s) to (c(i), 1 - s), get different labels."""
    d = T.degree
    images = T.P[forms]
    connected = (orbit_labels(images) == 0).all(axis=1)
    if base.orientable:
        return connected, np.ones(len(forms), dtype=bool)
    crosscaps, meridians = images[:, : base.genus], images[:, base.genus :]
    lifts = np.concatenate(
        [
            np.concatenate([crosscaps + d, crosscaps], axis=2),
            np.concatenate([meridians, meridians + d], axis=2),
        ],
        axis=1,
    )
    labels = orbit_labels(lifts)
    return connected, labels[:, 0] != labels[:, d]
