"""The census of monodromy data of bounded degree and branch count.

A census cell is (base, degree, branch count, simple-or-not). This
module is its numpy-free front: it admits or refuses a cell, answers
every simple cell and every cell without branch points from closed
forms, and hands the rest, the cells with any meridians allowed (--all)
and b >= 1, to the engine, module orderly, which counts raw tuples and
conjugation classes by orderly generation and classifies the class
representatives in numpy.

Every cell's connected raw total is known exactly from the characters
of S_d (module characters): over a base of Euler characteristic chi
there are (d!)^(1-chi) * sum_lambda (f^lambda)^chi * c(lambda)^b simple
tuples, that is (d!)^(2g-1) sum (f^lambda)^(2-2g) c(lambda)^b over o_g
and (d!)^(h-1) sum (f^lambda)^(2-h) c(lambda)^b over n_h, with f^lambda
from the hook lengths and c(lambda) the sum of the contents; with any
meridians allowed there are (d!)^(r+b-1) for b >= 1. The exponential
formula and inclusion-exclusion over identity meridians give the
connected counts.

Two kinds of cell are answered from these counts alone, without
importing the engine, so without numpy or a group table. A cell whose
connected count is 0 reports its empty row. A simple cell, or a cell
without branch points (where --all changes nothing), reports its rows:
Riemann-Hurwitz fixes chi = d chi(base) - b, so there is at most an
orientable and a nonorientable total space. Over an orientable base
every cover is orientable, and the one row has the connected count as
its raw count and Burnside's count of classes (characters.class_count,
Mednykh's count of conjugacy classes of subgroups when b = 0). Over n_h
the orientable row has characters.orientable_count and
orientable_class_count, and the nonorientable row the rest. Neither kind
lists a tuple or builds a group table: s2/5/10 (169,271,260 tuples),
s2/7/142, o5/6/8, rp2/6/8, rp2/8/8, o2/6/0 and n20/2/0 are answered at
once. A row is refused when its counts are too long to print (past 4299
digits, as int.__repr__ stops at 4300).

Every other cell, one with any meridians allowed and b >= 1, is
enumerated, and its raw total must equal the connected count, or the
cell exits 2 naming itself. Every cell is admitted by errors.admit, its
character sums before any is taken and the engine, S_d's tables and the
listing's peak, before it is imported.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import factorial, log10
from typing import TYPE_CHECKING

from .characters import (
    class_count,
    connected_count,
    hom_count,
    orientable_class_count,
    orientable_count,
)
from .errors import STEP_BUDGET, InvalidData, LimitExceeded, admit
from .surfaces import PROJECTIVE_PLANE, ClosedSurface, classify, euler_characteristic

if TYPE_CHECKING:
    from .orderly import CensusShard

# Prices for errors.admit. The character sums (module characters) take,
# for each n <= d, the hook lengths of the p(n) partitions of n, about n
# steps each, and a term per partition and per even number of meridians up
# to b, the integer f h^(1-chi) c^b, about _PARTITION_STEPS each; the
# connected counts then fold a (d+1) x (b+1) table, about (d (b+1))^2 / 4
# steps. With powers of w words of _POWER_BITS bits, a partition's work
# costs w^2 times as much (its powers are built by squaring) and a table
# entry w times. Fitted on whole CLI runs of 120 random cells over s2, rp2,
# torus, klein, o_g and n_h (2-core Xeon, Python 3.11): 0.095 to 1.16 us a
# step; torus/36/0, the last torus cell without branch points, takes 2.1 s.
# The engine's bytes are the peak ru_maxrss of listing every tuple (14-14.5
# per tuple entry on rp2/5/6, s2/5/8 and rp2/6/6), which bounds the orderly
# generator from above (rp2/6/6: predicted 3.3 GB, measured 56 MB); the
# class dictionary dominates at degree 2 (n20/2/0, when it was enumerated:
# 486 MB for 2^20 one-tuple classes of 20 entries).
_PARTITION_STEPS = 2
_POWER_BITS = 2048
_ENTRY_BYTES = 16
_CLASS_BYTES = 256
_SLACK_BYTES = 64 << 20
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


def _generators(base: ClosedSurface) -> int:
    """Surface generators of a tuple: handle pairs or crosscaps."""
    return 2 * base.genus if base.orientable else base.genus


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
    steps = per_partition * sum(p) * words**2 + (d * (b + 1)) ** 2 // 4 * words
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


def _check_peak(base: ClosedSurface, d: int, b: int, simple_only: bool) -> int:
    """Admit the engine on a cell and return its bytes: the S_d tables'
    8 d!^2 and the peak of listing every tuple, an upper bound on the
    orderly generator's. A class of connected tuples holds at least (d-1)!
    of them, as a transitive group's centraliser acts freely on the
    sheets. The engine's time is not priced yet: its cells are those the
    listing admits."""
    k = _generators(base) + b
    tuples = hom_count(base, d, b, simple_only)
    classes = tuples // factorial(d - 1)
    peak = 8 * factorial(d) ** 2 + tuples * k * _ENTRY_BYTES + _SLACK_BYTES
    peak += classes * (8 * k + _CLASS_BYTES)
    # a count this long is told by its size
    count = f"a tuple count of {_digits(tuples)} digits" if tuples >= 10**18 else f"{tuples} tuples"
    admit(f"{_cell(base, d, b)} has {count} and", bytes=peak)
    return peak


def _closed_form_row(
    base: ClosedSurface, d: int, b: int, raw: int
) -> tuple[tuple[ClosedSurface, int, int], ...]:
    """The realized rows of a simple cell or a cell without branch points
    and raw connected tuples. Riemann-Hurwitz fixes chi = d chi(base) - b,
    so there is one orientable and one nonorientable candidate. Over an
    orientable base every cover is orientable; over n_h
    characters.orientable_count and orientable_class_count split the raw
    and class counts. A row is kept when its raw count is positive."""
    classes = class_count(base, d, b)
    if base.orientable:
        split = raw, classes
    else:
        split = orientable_count(base, d, b), orientable_class_count(base, d, b)
    chi = d * euler_characteristic(base) - b
    rows = ((True, *split), (False, raw - split[0], classes - split[1]))
    return tuple((classify(chi, o), n, c) for o, n, c in rows if n)


def _admit(base: ClosedSurface, d: int, b: int, simple_only: bool) -> int:
    """The exact connected count of a cell enumerate_covers may answer,
    refused when it is too long to print. A cell answered without
    enumerating, empty or from closed forms, reaches no engine to admit."""
    _check_cell(base, d, b, simple_only)
    expected = connected_count(base, d, b, simple_only)
    digits = _digits(expected) if expected else 1
    if digits > _PRINTED_DIGITS:
        raise LimitExceeded(
            f"{_cell(base, d, b)} has a tuple count of {digits} digits, "
            f"over the {_PRINTED_DIGITS} digits a report prints"
        )
    if expected and not (simple_only or b == 0):
        _check_peak(base, d, b, simple_only)
    return expected


def merge_shards(shards) -> CensusShard:
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
    """The cell's row. A cell whose exact connected count is 0 reports
    its empty row without enumerating, and so does a simple cell or a
    cell without branch points its rows from closed forms. Any other
    (any meridians allowed and b >= 1) is admitted and enumerated, and
    its raw total is checked against that count."""
    expected = _admit(base, d, b, simple_only)
    if expected == 0:
        return CensusRow(base, d, b, ())
    if simple_only or b == 0:
        return CensusRow(base, d, b, _closed_form_row(base, d, b, expected))
    from .orderly import classify_shard, enumerate_shard

    row = classify_shard(enumerate_shard(base, d, b, simple_only))
    found = sum(raw for _, raw, _ in row.realized)
    if found != expected:
        raise InvalidData(
            f"census cell ({base.name}, degree {d}, {b} branch points, all) enumerates "
            f"{found} connected tuples, but the characters of S_{d} count {expected}"
        )
    return row


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
