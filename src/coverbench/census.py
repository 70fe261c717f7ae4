"""The census of monodromy data of bounded degree and branch count.

A census cell is (base, degree, branch count, simple-or-not). This
module admits or refuses a cell and answers it from closed forms, the
characters of S_d (module characters), without listing a tuple or
building a group table. Over a base of Euler characteristic chi there
are (d!)^(1-chi) * sum_lambda (f^lambda)^chi * c(lambda)^b simple
tuples, that is (d!)^(2g-1) sum (f^lambda)^(2-2g) c(lambda)^b over o_g
and (d!)^(h-1) sum (f^lambda)^(2-h) c(lambda)^b over n_h, with f^lambda
from the hook lengths and c(lambda) the sum of the contents. With any
meridians allowed (--all), c(lambda)^b becomes P_lambda(t)^b, the
product of 1 + c t over the contents, which grades the tuples by their
total ramification V. The exponential formula and inclusion-exclusion
over identity meridians give the connected counts.

Riemann-Hurwitz fixes chi = d chi(base) - V, so each grade has at most
an orientable and a nonorientable total space, and a simple cell has
the one grade V = b. Over an orientable base every cover is orientable,
and a row has the connected count as its raw count and Burnside's count
of classes (characters.class_counts; Mednykh's count of conjugacy
classes of subgroups when b = 0). Over n_h the orientable rows have the
counts of the covers through the orientation double cover, and the
nonorientable rows the rest. s2/5/10 (169,271,260 tuples), s2/7/142,
o5/6/8, rp2/6/8, rp2/8/8, o2/6/0, n20/2/0 and s2/6/4 --all are answered
at once. A cell is refused when its character sums are over the step
budget (errors.admit, before any is taken) or its counts are too long
to print (past 4299 digits, as int.__repr__ stops at 4300).

The census engine, module orderly, which counts the classes by orderly
generation in numpy, is the tests' reference for these rows; only
__getattr__ reaches it, for the benchmark's tracing shim.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import factorial, isqrt, log10

from .characters import class_counts, raw_counts
from .errors import STEP_BUDGET, LimitExceeded, admit
from .surfaces import PROJECTIVE_PLANE, ClosedSurface, classify, euler_characteristic

# Prices for errors.admit. The character sums (module characters) take,
# for each n <= d, the hook lengths of the p(n) partitions of n, about n
# steps each, and a term per partition and per even number of meridians up
# to b, the integer f h^(1-chi) c^b, about _PARTITION_STEPS each. A simple
# cell's connected count then folds, for each n <= d and even m <= b,
# (n - 1)(m/2 + 1) products, about d^2 b^2 / 16 in all. A cell of any
# meridians instead raises each product Q of content polynomials that the
# exponential formula leaves to the b-th power (one product per coefficient
# of (Q - 1)^b and power of t below d), and Burnside's lemma does the same
# for fewer, smaller quotients: p(d)^(3/2) bounds the number of Q for
# d <= 20 (13,602 at d = 20), and the price takes p(d) (isqrt(p(d)) + 1).
# With powers of w words of _POWER_BITS bits, a partition's work costs w^2
# times as much (its powers are built by squaring) and a product w times.
# Fitted on runs of random cells over s2, rp2, torus, klein, o_g and n_h
# (2-core Xeon, Python 3.11): 0.095 to 1.16 us a step over 120 whole CLI
# runs before the fold was priced at its products, and, in process, 0.15
# to 0.8 us a step for 30 simple cells at the price's boundary and 0.05 to
# 0.6 us for 80 cells of any meridians taking over 10 ms; torus/36/0, the
# last torus cell without branch points, takes 2.1 s.
_PARTITION_STEPS = 2
_POWER_BITS = 2048
# a census row's counts print with int.__repr__, which refuses more than
# 4300 digits
_PRINTED_DIGITS = 4299


@dataclass(frozen=True)
class CensusRow:
    base: ClosedSurface
    degree: int
    branch_count: int
    realized: tuple[tuple[ClosedSurface, int, int], ...]
    """(surface, raw tuple count, conjugation class count), realized
    connected total spaces only, orientable surfaces first."""


@dataclass(frozen=True)
class AuditReport:
    d_max: int
    b_max: int
    rows: tuple[tuple[int, int, int], ...]
    """Realized (degree, branch count, crosscap number) triples."""
    violations: tuple[tuple[int, int, int], ...]
    """The rows breaking h = d (mod 2) or h = 2 - d + b."""

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SphereWitness:
    genus: int
    degree: int
    branch_count: int


@dataclass(frozen=True)
class UniversalBaseReport:
    n: int
    genus_max: int
    sphere_witnesses: tuple[SphereWitness, ...]
    rp2_blocked_h: int
    rp2_forced_branch: int
    rp2_exhaustive_cell: tuple[int, int]
    rp2_exhaustive_empty: bool
    notes: tuple[str, ...]


def _cell(base: ClosedSurface, d: int, b: int) -> str:
    return f"census cell ({base.name}, degree {d}, {b} branch points)"


def _sums_cost(base: ClosedSurface, d: int, b: int, simple_only: bool) -> tuple[int, int]:
    """The bytes and steps of a cell's character sums (see the prices
    above). A simple cell with odd b takes none: it has no tuple at all.
    The partition counts p(n) come from Euler's pentagonal recurrence, up
    to d or until the sums alone pass the step budget, so a huge degree
    costs nothing to price; its powers are then left unpriced."""
    if simple_only and b % 2:
        return 0, 0
    per_partition = d + _PARTITION_STEPS * (b // 2 + 1)
    p = [1]
    while len(p) <= d and per_partition * sum(p) <= STEP_BUDGET:
        n = len(p)  # p(n) sums (-1)^(k+1) p(n - k(3k -+ 1)/2) over k >= 1
        terms = ((k, n - k * (3 * k + s) // 2) for k in range(1, n + 1) for s in (-1, 1))
        p.append(sum((-1) ** (k + 1) * p[m] for k, m in terms if m >= 0))
    chi = euler_characteristic(base)
    powers = 0  # bits of the largest power: (d!)^|chi| and c^b, c <= d(d-1)/2
    if len(p) > d:
        free = 0 if simple_only else b
        powers = (abs(chi) + 1 + free) * (factorial(d) - 1).bit_length()
        powers += (b - free) * (d * (d - 1) // 2).bit_length()
    words = 1 + powers // _POWER_BITS
    if simple_only or b == 0:
        products = d * (d - 1) // 2 * (b // 2 + 1) * (b // 2 + 2) // 2
    else:
        products = p[-1] * (isqrt(p[-1]) + 1) * (b * (d - 1) + 1) * (d - 1)
    steps = per_partition * sum(p) * words**2 + products * words
    return 2 * (d + 1) * (b + 1) * (powers // 8 + 32), steps


def _check_cell(base: ClosedSurface, d: int, b: int, simple_only: bool) -> None:
    """Admit a cell's character sums before any is taken."""
    if d < 1 or b < 0:
        raise LimitExceeded(f"need degree >= 1 and branch count >= 0, got {d} and {b}")
    cost, steps = _sums_cost(base, d, b, simple_only)
    admit(_cell(base, d, b), bytes=cost, steps=steps)


def _digits(n: int) -> int:
    """Decimal digits of n >= 1, found without str(n), which refuses past
    4300 digits."""
    k = max(int((n.bit_length() - 1) * log10(2)) - 1, 1)
    while 10**k <= n:
        k += 1
    return k


def _closed_form_row(
    base: ClosedSurface, d: int, b: int, simple_only: bool
) -> tuple[tuple[ClosedSurface, int, int], ...]:
    """The realized rows of a cell, admitted first. characters.raw_counts
    gives its connected tuples by their total ramification V (a simple
    cell's all at V = b), and Riemann-Hurwitz fixes chi = d chi(base) - V,
    so each grade has one orientable and one nonorientable candidate. Over
    an orientable base every cover is orientable; over n_h the orientable
    counts split the raw and class counts. A row is kept when its raw
    count is positive, orientable rows first, each kind by genus. The cell
    is refused when its counts are too long to print, before any class is
    counted."""
    _check_cell(base, d, b, simple_only)
    raw = raw_counts(base, d, b, simple_only)
    total = sum(raw)
    digits = _digits(total) if total else 1
    if digits > _PRINTED_DIGITS:
        raise LimitExceeded(
            f"{_cell(base, d, b)} has a tuple count of {digits} digits, "
            f"over the {_PRINTED_DIGITS} digits a report prints"
        )
    if not total:
        return ()
    classes = class_counts(base, d, b, simple_only)
    if base.orientable:
        split = raw, classes
    else:
        split = raw_counts(base, d, b, simple_only, True), class_counts(base, d, b, simple_only, True)
    up, up_classes, classes = (x + [0] * (len(raw) - len(x)) for x in (*split, classes))
    chi = d * euler_characteristic(base)
    rows = [(True, V, up[V], up_classes[V]) for V in range(len(raw))]
    rows += [(False, V, raw[V] - up[V], classes[V] - up_classes[V]) for V in range(len(raw))]
    return tuple((classify(chi - V, o), n, c) for o, V, n, c in rows if n)


def merge_shards(shards):
    """One orderly.CensusShard of a cell from several of its parts."""
    shards = list(shards)
    if not shards:
        raise ValueError("nothing to merge")
    head = shards[0]
    merged: dict[tuple[int, ...], int] = {}
    for s in shards:
        if (s.base, s.degree, s.branch_count, s.simple_only) != (
            head.base,
            head.degree,
            head.branch_count,
            head.simple_only,
        ):
            raise ValueError("shards come from different census cells")
        for key, n in s.counts.items():
            merged[key] = merged.get(key, 0) + n
    return replace(head, counts=merged)


def enumerate_covers(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True
) -> CensusRow:
    """The cell's row, admitted and answered from closed forms
    (_closed_form_row)."""
    return CensusRow(base, d, b, _closed_form_row(base, d, b, simple_only))


def parity_audit(d_max: int, b_max: int) -> AuditReport:
    """Take the row of every simple cell over the projective plane, from
    closed forms, and check the crosscap parity and count laws on each
    realized nonorientable total space. Every cell is admitted before the
    first row is taken, the largest first."""
    if d_max < 1 or b_max < 0:
        raise ValueError(f"need --dmax >= 1 and --bmax >= 0, got {d_max} and {b_max}")
    cost = steps = 0
    for d in range(d_max, 0, -1):  # lazily: product() would list each range
        for b in range(b_max, -1, -1):
            cell_cost, cell_steps = _sums_cost(PROJECTIVE_PLANE, d, b, True)
            cost, steps = max(cost, cell_cost), steps + cell_steps
            admit(f"the parity audit up to degree {d_max} and {b_max} branch points", bytes=cost, steps=steps)
    rows = tuple(
        (d, b, s.genus)
        for d, b in itertools.product(range(1, d_max + 1), range(b_max + 1))
        for s, _, _ in enumerate_covers(PROJECTIVE_PLANE, d, b, True).realized
        if not s.orientable
    )
    violations = tuple((d, b, h) for d, b, h in rows if h % 2 != d % 2 or h != 2 - d + b)
    return AuditReport(d_max, b_max, rows, violations)


def universal_base_report_dim2(n: int, genus_max: int) -> UniversalBaseReport:
    """Contrast the two small bases at degree n: over the sphere every
    orientable genus up to genus_max is realized by a simple cover
    (hyperelliptic data padded by stabilization); over the projective
    plane crosscap parity blocks the targets with h not congruent to n,
    with the forced cell's row, exact from closed forms, as witness: its
    branch count is odd, so the cell is empty. The report's notes keep
    their wording, "exhaustive enumeration" included."""
    from .hurwitz import admit_passes, construct_hyperelliptic, pass_steps, stabilize, total_space

    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if genus_max < 0:
        raise ValueError(f"need genus_max >= 0, got {genus_max}")
    blocked_h = 1 if n % 2 == 0 else 2
    forced_b = n + blocked_h - 2
    row = enumerate_covers(PROJECTIVE_PLANE, n, forced_b, True)
    # one pass per witness built: witness g has 2g + 2n - 2 meridians of
    # degree n, (G + 1)(G + 2n - 2) in all for g = 0..G
    steps = pass_steps((genus_max + 1) * (genus_max + 2 * n - 2), n)
    admit_passes(f"the sphere witnesses up to genus {genus_max}", steps)
    witnesses = []
    for g in range(genus_max + 1):
        datum = stabilize(construct_hyperelliptic(g), n - 2)
        summary = total_space(datum)
        assert summary.simple and summary.components == (
            (ClosedSurface(True, g), n),
        )
        witnesses.append(SphereWitness(g, n, datum.branch_count))
    notes = [
        f"a connected simple cover over the projective plane with degree {n} "
        f"and crosscap number {blocked_h} would need branch count {forced_b}, "
        "and the branch count of such data is always even while "
        f"2 - {n} + {forced_b} = {blocked_h} has the wrong parity",
    ]
    empty = not any(
        (not s.orientable) and s.genus == blocked_h for s, _, _ in row.realized
    )
    notes.append(
        f"exhaustive enumeration of the (degree {n}, branch {forced_b}) cell "
        f"found {'no' if empty else 'a'} matching cover"
    )
    return UniversalBaseReport(
        n=n,
        genus_max=genus_max,
        sphere_witnesses=tuple(witnesses),
        rp2_blocked_h=blocked_h,
        rp2_forced_branch=forced_b,
        rp2_exhaustive_cell=(n, forced_b),
        rp2_exhaustive_empty=empty,
        notes=tuple(notes),
    )


def __getattr__(name: str):
    # the engine names bench/shim.py looks up; the shim then wraps every
    # layer, which cli imports only in the handlers that use them, so the
    # lookup loads the plane and Hurwitz layers too. A traced job's time
    # pays for them and numpy, an untraced one does not. The hook is
    # deleted with the shim (ROADMAP item 1)
    if name in ("GroupTable", "enumerate_shard", "classify_shard"):
        from . import exhaustion, hurwitz, layered, orderly  # noqa: F401

        return getattr(orderly, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
