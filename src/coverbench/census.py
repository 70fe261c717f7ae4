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
lists a tuple, so the memory admission that bounds enumeration, the peak
and the tuple-count floor below, does not apply to them: s2/5/10
(169,271,260 tuples), s2/7/142, o5/6/8, rp2/6/8 (5,563,476,540 tuples),
o2/6/0 and n20/2/0 are answered at once. A closed-form row is refused
only when the floor shows its counts too long to print (past 4299
digits, as int.__repr__ stops at 4300).

Every other cell, one with any meridians allowed and b >= 1, is
enumerated, and its raw total must equal the connected count, or the
cell exits 2 naming itself. Over a base with chi <= 0, a closed-form
floor on the tuple count refuses the cells out of memory reach before
any character sum is taken, and every refusal comes before the engine is
imported.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import factorial, log2, log10
from typing import TYPE_CHECKING

from .characters import (
    _irreducibles,
    class_count,
    connected_count,
    hom_count,
    orientable_class_count,
    orientable_count,
)
from .errors import MEMORY_BUDGET, InvalidData, LimitExceeded
from .surfaces import PROJECTIVE_PLANE, ClosedSurface, classify, euler_characteristic

if TYPE_CHECKING:
    from .orderly import CensusShard

# Admission against the constant MEMORY_BUDGET. The byte costs were fitted
# to the peak ru_maxrss of listing every tuple (2-core Xeon, Python 3.11,
# numpy 2.4: 14-14.5 per tuple entry on rp2/5/6, s2/5/8 and rp2/6/6) and
# now bound the orderly generator from above (rp2/6/6: predicted 3.3 GB,
# measured 56 MB); the class dictionary dominates at degree 2 (n20/2/0,
# when it was enumerated: 486 MB for 2^20 one-tuple classes of 20 entries).
_CHARACTER_STEPS = 10**6
_ENTRY_BYTES = 16
_CLASS_BYTES = 256
_SLACK_BYTES = 64 << 20
# a closed-form cell's counts print with int.__repr__, which refuses more
# than 4300 digits
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


def _check_cell(base: ClosedSurface, d: int, b: int, simple_only: bool) -> None:
    """Refuse what closed forms bring out of reach, before any character
    sum: the group tables of S_d (d! grows step by step, so a huge d costs
    nothing), the character sums, about (d*b)^2 steps, and the cells
    whose tuples alone provably overflow the budget, or, for a cell
    answered from closed forms, whose counts are too long to print."""
    if d < 1 or b < 0:
        raise LimitExceeded(f"need degree >= 1 and branch count >= 0, got {d} and {b}")
    order = 1
    for i in range(2, d + 1):
        order *= i
        if 8 * order**2 > MEMORY_BUDGET:
            raise LimitExceeded(f"degree {d}: the group tables of S_{d} exceed the memory budget")
    if (d * b) ** 2 > _CHARACTER_STEPS:
        raise LimitExceeded(f"degree {d} with {b} branch points: the character sums are too long")
    floor = _log2_tuples_floor(base, d, b, simple_only)
    if floor is None:
        return
    digits = int(floor * log10(2) - 1e-9) + 1
    cell = f"census cell ({base.name}, degree {d}, {b} branch points)"
    cell += f" has a tuple count of at least {digits} digits"
    if _closed_form(base, b, simple_only):
        # nothing is listed, but the row's counts are printed: they are at
        # most p(d)/2 <= 7.5 times the floor, so one digit longer at most
        if digits > _PRINTED_DIGITS:
            raise LimitExceeded(f"{cell}, over the {_PRINTED_DIGITS} digits a report prints")
        return
    # one bit of slack: float rounding cannot refuse a cell that
    # _check_peak would admit
    if floor + log2((_generators(base) + b) * _ENTRY_BYTES) > log2(MEMORY_BUDGET) + 1:
        raise LimitExceeded(f"{cell}, over the {MEMORY_BUDGET >> 20} MiB budget")


def _log2_tuples_floor(
    base: ClosedSurface, d: int, b: int, simple_only: bool
) -> float | None:
    """log2 of a lower bound on the cell's tuples where one is proved,
    over a base with chi <= 0: for d >= 2 and even b, simple or not, and
    for d >= 3 and odd b without the simple restriction; None elsewhere.

    With b even every term (f^lambda)^chi * c(lambda)^b of the character
    sum is >= 0, and the trivial and sign characters have f = 1 and
    c = +-d(d-1)/2, so there are at least 2 (d!)^(1-chi) (d(d-1)/2)^b
    simple tuples. A transposition is not the identity, so every simple
    tuple is also a tuple of the cell without the simple restriction.

    With b odd and any meridians allowed, inclusion-exclusion gives
    (d!)^(1-chi) ((d!-1)^b + 1 - sum_lambda (f^lambda)^chi) tuples. Each
    (f^lambda)^chi is at most 1, so there are at least (d!)^(1-chi)
    ((d!-1)^b + 1 - p(d)), p(d) the number of partitions of d: positive
    for d >= 3.

    A cell refused on this bound is one _check_peak would refuse: the
    peak it predicts grows with the tuple count, and the cell is reached
    because its connected count is positive. For chi <= 0 the base has a
    handle or two crosscaps: with sigma a d-cycle, the handle (sigma, 1)
    or the crosscaps (sigma, sigma^-1), identities elsewhere and the
    meridians in equal pairs (1 2), (1 2) form a transitive tuple; with
    b odd the first three meridians are (1 2 3) instead, or with b = 1
    the handle is (sigma, (1 2)) or the crosscaps (sigma, 1) and the
    meridian closes the relation."""
    chi = euler_characteristic(base)
    if d < 2 or chi > 0:
        return None
    if b % 2 == 0:
        return 1 + (1 - chi) * log2(factorial(d)) + b * log2(d * (d - 1) // 2)
    if simple_only or d < 3:
        return None
    n = factorial(d)
    return (1 - chi) * log2(n) + log2((n - 1) ** b + 1 - len(_irreducibles(d)))


def _digits(n: int) -> int:
    """Decimal digits of n >= 1, found without str(n), which refuses past
    4300 digits."""
    k = max(int((n.bit_length() - 1) * log10(2)) - 1, 1)
    while 10**k <= n:
        k += 1
    return k


def _check_peak(base: ClosedSurface, d: int, b: int, simple_only: bool) -> int:
    """Peak bytes of listing every tuple of a cell, an upper bound on the
    orderly generator's, refused over the budget. A class of connected
    tuples holds at least (d-1)! of them, as a transitive group's
    centraliser acts freely on the sheets."""
    k = _generators(base) + b
    tuples = hom_count(base, d, b, simple_only)
    classes = tuples // factorial(d - 1)
    peak = 8 * factorial(d) ** 2 + tuples * k * _ENTRY_BYTES + _SLACK_BYTES
    peak += classes * (8 * k + _CLASS_BYTES)
    if peak > MEMORY_BUDGET:
        cell = f"census cell ({base.name}, degree {d}, {b} branch points)"
        budget = f"the {MEMORY_BUDGET >> 20} MiB budget"
        if tuples >= 10**18:  # a count this long is told by its size
            raise LimitExceeded(f"{cell} has a tuple count of {_digits(tuples)} digits, over {budget}")
        raise LimitExceeded(
            f"{cell} has {tuples} tuples and needs about {-(-peak >> 20)} MiB, over {budget}"
        )
    return peak


def _closed_form(base: ClosedSurface, b: int, simple_only: bool) -> bool:
    """Whether a non-empty cell's row follows from closed forms: that of
    a simple cell or of a cell without branch points (_closed_form_row)."""
    return simple_only or b == 0


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
    """The exact connected count of a cell enumerate_covers may answer. A
    cell answered without enumerating, empty or from closed forms, has no
    peak to check."""
    _check_cell(base, d, b, simple_only)
    expected = connected_count(base, d, b, simple_only)
    if expected and not _closed_form(base, b, simple_only):
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
    if _closed_form(base, b, simple_only):
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
    for d in range(d_max, 0, -1):  # lazily: product() would list each range
        for b in range(b_max, -1, -1):
            _admit(PROJECTIVE_PLANE, d, b, True)
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
    from .hurwitz import check_build, construct_hyperelliptic, pass_steps, stabilize, total_space

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
    check_build(f"the sphere witnesses up to genus {genus_max}", steps)
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
