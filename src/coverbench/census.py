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
over identity meridians give the connected counts. Every cell takes the
one route: its products of content polynomials are keyed by their first
T power sums (characters.cut), T = d with any meridians, 1 for a simple
cell, whose one grade V = b needs only c(lambda), and 0 without branch
points.

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
budget (characters.sums_cost, admitted once by _admit_cells before any
is taken) or its counts are too long to print (past 4299 digits, as
int.__repr__ stops at 4300).

The census engine, module orderly, which counts the classes by orderly
generation in numpy, is the tests' reference for these rows; only
__getattr__ reaches it, for the benchmark's tracing shim.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import log10

from .characters import _cell, class_counts, connected_count, raw_counts, sums_cost
from .errors import LimitExceeded, admit
from .surfaces import PROJECTIVE_PLANE, ClosedSurface, classify, euler_characteristic

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


def _admit_cells(what: str, cells) -> None:
    """Admit the character sums of cells (base, d, b, simple_only), each
    priced as it comes, before any is taken, refusing as what. The cells
    share their cached keys, so they are charged the key steps of the
    dearest cell once, and the power steps of each."""
    keys = powers = 0
    for base, d, b, simple_only in cells:
        if d < 1 or b < 0:
            raise LimitExceeded(f"need degree >= 1 and branch count >= 0, got {d} and {b}")
        key_steps, power_steps = sums_cost(base, d, b, simple_only)
        keys, powers = max(keys, key_steps), powers + power_steps
        admit(what, keys + powers)


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
    """The realized rows of an admitted cell. characters.raw_counts
    gives its connected tuples by their total ramification V = b + i (a
    simple cell's all at V = b), and Riemann-Hurwitz fixes
    chi = d chi(base) - V, so each grade has one orientable and one
    nonorientable candidate. Over an orientable base every cover is
    orientable; over n_h the orientable counts split the raw and class
    counts. A row is kept when its raw count is positive, orientable rows
    first, each kind by genus. The cell is refused when its count is too
    long to print, before any grade or class is counted."""
    total = connected_count(base, d, b, simple_only)
    digits = _digits(total) if total else 1
    if digits > _PRINTED_DIGITS:
        raise LimitExceeded(
            f"{_cell(base, d, b)} has a tuple count of {digits} digits, "
            f"over the {_PRINTED_DIGITS} digits a report prints"
        )
    if not total:
        return ()
    raw, classes = raw_counts(base, d, b, simple_only), class_counts(base, d, b, simple_only)
    if base.orientable:
        split = raw, classes
    else:
        split = raw_counts(base, d, b, simple_only, True), class_counts(base, d, b, simple_only, True)
    up, up_classes, classes = (x + [0] * (len(raw) - len(x)) for x in (*split, classes))
    chi = d * euler_characteristic(base) - b
    rows = [(True, i, up[i], up_classes[i]) for i in range(len(raw))]
    rows += [(False, i, raw[i] - up[i], classes[i] - up_classes[i]) for i in range(len(raw))]
    return tuple((classify(chi - i, o), n, c) for o, i, n, c in rows if n)


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
    _admit_cells(_cell(base, d, b), [(base, d, b, simple_only)])
    return CensusRow(base, d, b, _closed_form_row(base, d, b, simple_only))


def parity_audit(d_max: int, b_max: int) -> AuditReport:
    """Take the row of every simple cell over the projective plane, from
    closed forms, and check the crosscap parity and count laws on each
    realized nonorientable total space. Every cell is admitted before the
    first row is taken, the largest first (_admit_cells)."""
    if d_max < 1 or b_max < 0:
        raise ValueError(f"need --dmax >= 1 and --bmax >= 0, got {d_max} and {b_max}")
    # lazily, the largest first: product() would list each range
    cells = ((PROJECTIVE_PLANE, d, b, True) for d in range(d_max, 0, -1) for b in range(b_max, -1, -1))
    _admit_cells(f"the parity audit up to degree {d_max} and {b_max} branch points", cells)
    rows = tuple(
        (d, b, s.genus)
        for d, b in itertools.product(range(1, d_max + 1), range(b_max + 1))
        for s, _, _ in _closed_form_row(PROJECTIVE_PLANE, d, b, True)
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
    from .hurwitz import construct_hyperelliptic, pass_steps, stabilize, total_space

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
    admit(f"the sphere witnesses up to genus {genus_max}", steps)
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
