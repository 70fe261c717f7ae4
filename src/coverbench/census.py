"""Exhaustive enumeration of monodromy data of bounded degree and branch count.

A census cell is (base, degree, branch count, simple-or-not). The search
iterates generator tuples with the relation solved for the last image
wherever it is determined: the last meridian over an orientable base, the
last crosscap (via a square-root table) over a nonorientable one. Tuples
are counted raw and up to simultaneous conjugation; the canonical class
form is the exact minimum of the concatenated image sequences over all
relabelings of the sheets. That minimum is searched only over the
relabelings sending the first image to the least member of its
conjugacy class, a coset of its centraliser; no other relabeling can
reach it.

Classification is one array pass over all class forms of a cell, in
group-table indices: the relation is rechecked column by column, the
sheets' orbits come from min-label propagation, the Euler characteristic
from the meridians' cycle counts (Riemann-Hurwitz), and orientability
over a nonorientable base from the sign double cover, on which a
crosscap swaps the two lifts of a sheet.

Every cell's connected raw total is also known exactly from the
characters of S_d (module characters): over a base of Euler
characteristic chi there are (d!)^(1-chi) * sum_lambda (f^lambda)^chi *
c(lambda)^b simple tuples, that is (d!)^(2g-1) sum (f^lambda)^(2-2g)
c(lambda)^b over o_g and (d!)^(h-1) sum (f^lambda)^(2-h) c(lambda)^b
over n_h, with f^lambda from the hook lengths and c(lambda) the sum of
the contents; with any meridians allowed there are (d!)^(r+b-1) for
b >= 1. The exponential formula and inclusion-exclusion over identity
meridians give the connected counts. A cell whose connected count is 0
reports its empty row without building a group table or a tuple; every
other cell is enumerated and its raw total must equal that count. Over a
base with chi <= 0, a closed-form floor on the tuple count refuses the
cells out of memory reach before any character sum is taken.
"""
from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, log2, log10

import numpy as np

from .characters import connected_count, hom_count
from .errors import InvalidData, LimitExceeded
from .surfaces import (
    PROJECTIVE_PLANE,
    ClosedSurface,
    classify,
    euler_characteristic,
)

# cross-join block sizing; tuned for memory, not observable in results
_LEAD_CHUNK = 1 << 17
_OUTER_CHUNK = 8

# Admission budget: a constant, so a cell's verdict is the same on every
# machine. Byte costs are fitted to the peak ru_maxrss of enumerate_covers
# (2-core Xeon, Python 3.11, numpy 2.4): 14-14.5 per tuple entry on large
# cells (rp2/5/6, s2/5/8, rp2/6/6); the class dictionary dominates at degree
# 2 (n20/2/0: 632 MB for 2^20 one-tuple classes of 20 entries).
_MEMORY_BUDGET = 4 << 30
_CHARACTER_STEPS = 10**6
_ENTRY_BYTES = 16
_CLASS_BYTES = 256
_SLACK_BYTES = 64 << 20


@dataclass(frozen=True)
class CensusRow:
    base: ClosedSurface
    degree: int
    branch_count: int
    realized: tuple[tuple[ClosedSurface, int, int], ...]
    """(surface, raw tuple count, conjugation class count), realized
    connected total spaces only, orientable surfaces first."""


@dataclass(frozen=True)
class CensusShard:
    """Census counts of one cell: canonical class form -> raw tuple count.

    Class identity is the canonical form itself, so merge_shards can sum
    counts of one cell associatively without double-counting classes.
    """

    base: ClosedSurface
    degree: int
    branch_count: int
    simple_only: bool
    counts: dict[tuple[int, ...], int]


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


class GroupTable:
    """Dense multiplication/inversion/conjugation tables for S_d.

    Elements are indexed by the lexicographic rank of their image tuple,
    so index 0 is the identity. All products read left to right:
    mult[i, j] is "i then j" and conj[t, x] is inv[t]·x·t. Only the rows
    of the adjacent transpositions are ranked from image tuples; every
    other row of mult is one gather away from a row already known, by
    breadth-first search from the identity. class_min[x] is the least
    index in x's conjugacy class; ncycles[x] counts x's cycles, fixed
    points included.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.order = factorial(degree)
        perms = sorted(itertools.permutations(range(degree)))
        self.P = np.array(perms, dtype=np.int8).reshape(self.order, degree)
        weights = (degree ** np.arange(degree)).astype(np.int64)
        lookup = np.full(degree**degree, -1, dtype=np.int32)
        lookup[(self.P.astype(np.int64) * weights).sum(axis=1)] = np.arange(
            self.order, dtype=np.int32
        )

        def rank(images: np.ndarray) -> np.ndarray:
            return lookup[(images.astype(np.int64) * weights).sum(axis=-1)]

        # mult[a·s] = mult[a][mult[s]], so each row is one 1-D gather once
        # the rows of the generators s are ranked directly.
        self.mult = np.empty((self.order, self.order), dtype=np.int32)
        self.mult[0] = np.arange(self.order, dtype=np.int32)
        gens = []
        for i in range(degree - 1):
            s = np.arange(degree)
            s[[i, i + 1]] = i + 1, i
            g = int(rank(s))
            self.mult[g] = rank(self.P[:, s])
            gens.append(g)
        filled = np.zeros(self.order, dtype=bool)
        filled[0] = True
        filled[gens] = True
        queue = collections.deque([0, *gens])
        while queue:
            a = queue.popleft()
            row = self.mult[a]
            for g in gens:
                c = row[g]
                if not filled[c]:
                    self.mult[c] = row[self.mult[g]]
                    filled[c] = True
                    queue.append(c)
        self.inv = rank(np.argsort(self.P, axis=1))
        self.conj = np.empty_like(self.mult)
        for t in range(self.order):
            self.conj[t] = self.mult[self.mult[self.inv[t]], t]
        self.class_min = self.conj.min(axis=0)
        # a point starts its cycle when no later image is smaller
        point = np.arange(degree, dtype=np.int8)
        least = np.tile(point, (self.order, 1))
        image = least.copy()
        for _ in range(degree - 1):
            image = np.take_along_axis(self.P, image, axis=1)
            np.minimum(least, image, out=least)
        self.ncycles = (least == point).sum(axis=1)
        moved = (self.P != np.arange(degree, dtype=np.int8)).sum(axis=1)
        self.is_transposition = moved == 2
        self.transpositions = np.flatnonzero(self.is_transposition).astype(np.int32)
        self.nonidentity = np.arange(1, self.order, dtype=np.int32)
        squares = self.mult[np.arange(self.order), np.arange(self.order)]
        roots: list[list[int]] = [[] for _ in range(self.order)]
        for i, s in enumerate(squares):
            roots[s].append(i)
        self.nsqrt = np.array([len(r) for r in roots], dtype=np.int64)
        self.sqrt_off = np.concatenate(([0], np.cumsum(self.nsqrt)))[:-1]
        self.sqrt_flat = np.array(
            [i for r in roots for i in r] or [0], dtype=np.int32
        )


@lru_cache(maxsize=None)
def _group_table(degree: int) -> GroupTable:
    return GroupTable(degree)


def _generators(base: ClosedSurface) -> int:
    """Surface generators of a tuple: handle pairs or crosscaps."""
    return 2 * base.genus if base.orientable else base.genus


def _check_cell(base: ClosedSurface, d: int, b: int) -> None:
    """Refuse what closed forms bring out of reach, before any character
    sum: the group tables of S_d (d! grows step by step, so a huge d costs
    nothing), the character sums, about (d*b)^2 steps, and the cells
    whose tuples alone provably overflow the budget."""
    if d < 1 or b < 0:
        raise LimitExceeded(f"need degree >= 1 and branch count >= 0, got {d} and {b}")
    order = 1
    for i in range(2, d + 1):
        order *= i
        if 8 * order**2 > _MEMORY_BUDGET:
            raise LimitExceeded(f"degree {d}: the group tables of S_{d} exceed the memory budget")
    if (d * b) ** 2 > _CHARACTER_STEPS:
        raise LimitExceeded(f"degree {d} with {b} branch points: the character sums are too long")
    floor = _log2_tuples_floor(base, d, b)
    if floor is None:
        return
    # one bit of slack: float rounding cannot refuse a cell that
    # _check_peak would admit
    if floor + log2((_generators(base) + b) * _ENTRY_BYTES) > log2(_MEMORY_BUDGET) + 1:
        digits = int(floor * log10(2) - 1e-9) + 1
        raise LimitExceeded(
            f"census cell ({base.name}, degree {d}, {b} branch points) has a tuple "
            f"count of at least {digits} digits, over the {_MEMORY_BUDGET >> 20} MiB budget"
        )


def _log2_tuples_floor(base: ClosedSurface, d: int, b: int) -> float | None:
    """log2 of a lower bound on the cell's tuples, simple or not, where
    one is proved: d >= 2, even b and chi <= 0; None elsewhere.

    With b even every term (f^lambda)^chi * c(lambda)^b of the character
    sum is >= 0, and the trivial and sign characters have f = 1 and
    c = +-d(d-1)/2, so there are at least 2 (d!)^(1-chi) (d(d-1)/2)^b
    simple tuples. A transposition is not the identity, so every simple
    tuple is also a tuple of the cell without the simple restriction.

    A cell refused on this bound is one _check_peak would refuse: the
    peak it predicts grows with the tuple count, and the cell is reached
    because its connected count is positive. For chi <= 0 the base has a
    handle or two crosscaps: with sigma a d-cycle, the handle (sigma, 1)
    or the crosscaps (sigma, sigma^-1), identities elsewhere and the
    meridians in equal pairs (1 2), (1 2) form a transitive tuple."""
    chi = euler_characteristic(base)
    if d < 2 or b % 2 or chi > 0:
        return None
    return 1 + (1 - chi) * log2(factorial(d)) + b * log2(d * (d - 1) // 2)


def _digits(n: int) -> int:
    """Decimal digits of n >= 1, found without str(n), which refuses past
    4300 digits."""
    k = max(int((n.bit_length() - 1) * log10(2)) - 1, 1)
    while 10**k <= n:
        k += 1
    return k


def _check_peak(base: ClosedSurface, d: int, b: int, simple_only: bool) -> int:
    """Predicted peak bytes of enumerating every tuple of a cell, refused
    over the budget. A class of connected tuples holds at least (d-1)! of
    them, as a transitive group's centraliser acts freely on the sheets."""
    k = _generators(base) + b
    tuples = hom_count(base, d, b, simple_only)
    classes = tuples // factorial(d - 1)
    peak = 8 * factorial(d) ** 2 + tuples * k * _ENTRY_BYTES + _SLACK_BYTES
    peak += classes * (8 * k + _CLASS_BYTES)
    if peak > _MEMORY_BUDGET:
        cell = f"census cell ({base.name}, degree {d}, {b} branch points)"
        budget = f"the {_MEMORY_BUDGET >> 20} MiB budget"
        if tuples >= 10**18:  # a count this long is told by its size
            raise LimitExceeded(f"{cell} has a tuple count of {_digits(tuples)} digits, over {budget}")
        raise LimitExceeded(
            f"{cell} has {tuples} tuples and needs about {peak >> 20} MiB, over {budget}"
        )
    return peak


def _admit(base: ClosedSurface, d: int, b: int, simple_only: bool) -> int:
    """The exact connected count of a cell enumerate_covers may answer. An
    empty cell is answered without enumerating, so its peak is not checked."""
    _check_cell(base, d, b)
    expected = connected_count(base, d, b, simple_only)
    if expected:
        _check_peak(base, d, b, simple_only)
    return expected


def _mixed_cartesian_chunks(value_lists, chunk: int):
    """Cartesian product of index arrays, yielded as (rows, len(lists))
    blocks in lexicographic order."""
    repeat = len(value_lists)
    if repeat == 0:
        yield np.zeros((1, 0), dtype=np.int32)
        return
    sizes = [len(v) for v in value_lists]
    total = 1
    for s in sizes:
        total *= s
    if total == 0:
        return
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        out = np.empty((idx.size, repeat), dtype=np.int32)
        rem = idx.copy()
        for pos in range(repeat - 1, -1, -1):
            m = sizes[pos]
            out[:, pos] = value_lists[pos][rem % m]
            rem //= m
        yield out


def _word_product(T: GroupTable, rows: np.ndarray) -> np.ndarray:
    acc = np.zeros(len(rows), dtype=np.int32)
    for j in range(rows.shape[1]):
        acc = T.mult[acc, rows[:, j]]
    return acc


def _orientable_blocks(T, genus, b, mvals):
    handle_lists = [np.arange(T.order, dtype=np.int32)] * (2 * genus)
    lead_lists = [mvals] * (b - 1)
    allowed = np.zeros(T.order, dtype=bool)
    allowed[mvals] = True
    # with few inner rows, enough outer rows to fill a block
    outer = max(_OUTER_CHUNK, _LEAD_CHUNK // max(1, len(mvals) ** max(b - 1, 0)))
    for H in _mixed_cartesian_chunks(handle_lists, outer):
        R = np.zeros(len(H), dtype=np.int32)
        for i in range(genus):
            a, bb = H[:, 2 * i], H[:, 2 * i + 1]
            R = T.mult[R, a]
            R = T.mult[R, bb]
            R = T.mult[R, T.inv[a]]
            R = T.mult[R, T.inv[bb]]
        if b == 0:
            mask = R == 0
            if mask.any():
                yield H[mask]
            continue
        inv_R = T.inv[R]
        for L in _mixed_cartesian_chunks(lead_lists, _LEAD_CHUNK):
            P = _word_product(T, L)
            nh, nl = len(H), len(L)
            Hrep = np.repeat(H, nl, axis=0)
            Lt = np.tile(L, (nh, 1))
            last = T.mult[T.inv[np.tile(P, nh)], np.repeat(inv_R, nl)]
            ok = allowed[last]
            if ok.any():
                yield np.concatenate(
                    [Hrep[ok], Lt[ok], last[ok, None]], axis=1
                )


def _nonorientable_blocks(T, h, b, mvals):
    cross_lists = [np.arange(T.order, dtype=np.int32)] * (h - 1)
    mer_lists = [mvals] * b
    outer = max(_OUTER_CHUNK, _LEAD_CHUNK // max(1, len(mvals) ** b))
    for C in _mixed_cartesian_chunks(cross_lists, outer):
        Q = np.zeros(len(C), dtype=np.int32)
        for i in range(h - 1):
            Q = T.mult[Q, C[:, i]]
            Q = T.mult[Q, C[:, i]]
        inv_Q = T.inv[Q]
        for L in _mixed_cartesian_chunks(mer_lists, _LEAD_CHUNK):
            Mp = _word_product(T, L)
            nc, nl = len(C), len(L)
            Crep = np.repeat(C, nl, axis=0)
            Lt = np.tile(L, (nc, 1))
            S = T.mult[np.repeat(inv_Q, nl), T.inv[np.tile(Mp, nc)]]
            counts = T.nsqrt[S]
            if not counts.any():
                continue
            reps = np.repeat(np.arange(len(S)), counts)
            pos = np.arange(reps.size) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            ch = T.sqrt_flat[T.sqrt_off[S][reps] + pos]
            yield np.concatenate(
                [Crep[reps], ch[:, None].astype(np.int32), Lt[reps]], axis=1
            )


def _valid_tuples(base, d, b, simple_only) -> np.ndarray:
    T = _group_table(d)
    mvals = T.transpositions if simple_only else T.nonidentity
    if base.orientable:
        blocks = list(_orientable_blocks(T, base.genus, b, mvals))
    else:
        blocks = list(_nonorientable_blocks(T, base.genus, b, mvals))
    k = _generators(base) + b
    if not blocks:
        return np.zeros((0, k), dtype=np.int32)
    return np.concatenate(blocks, axis=0)


def _pack(B: np.ndarray, order: int, words: int) -> np.ndarray:
    out = np.zeros((len(B), words), dtype=np.int64)
    for col in range(B.shape[1]):
        w = col // 6
        out[:, w] = out[:, w] * order + B[:, col]
    return out


def _canonical_forms(T: GroupTable, A: np.ndarray):
    """Minimum of the conjugated index rows over all relabelings; exact.

    Index order equals lexicographic order on image tuples, so the row
    minimum is the minimal concatenated image sequence. Its first entry
    is class_min[x] for the row's first entry x, so only the conjugators
    sending x there (a coset of x's centraliser) are searched, one group
    of rows with a common first entry at a time.
    """
    n, k = A.shape
    if n == 0 or k == 0:
        return A
    words = (k + 5) // 6
    forms = np.empty((n, k), dtype=np.int32)
    by_first = np.argsort(A[:, 0], kind="stable")
    starts = np.flatnonzero(np.diff(A[by_first, 0])) + 1
    for rows in np.split(by_first, starts):
        x = A[rows[0], 0]
        coset = np.flatnonzero(T.conj[:, x] == T.class_min[x])
        forms[rows] = _min_conjugate(T, A[rows], coset, words)
    return forms


def _min_conjugate(T: GroupTable, A: np.ndarray, conjugators, words: int):
    n = len(A)
    best_codes = None
    best_forms = None
    for t in conjugators:
        B = T.conj[t][A]
        codes = _pack(B, T.order, words)
        if best_codes is None:
            best_codes, best_forms = codes, B
            continue
        less = np.zeros(n, dtype=bool)
        undecided = np.ones(n, dtype=bool)
        for w in range(words):
            less |= undecided & (codes[:, w] < best_codes[:, w])
            undecided &= codes[:, w] == best_codes[:, w]
        if less.any():
            best_codes[less] = codes[less]
            best_forms[less] = B[less]
    return best_forms


def enumerate_shard(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True
) -> CensusShard:
    """Every valid tuple of a census cell, counted by canonical class
    form; classify_shard turns it into the cell's row."""
    _check_cell(base, d, b)
    _check_peak(base, d, b, simple_only)
    A = _valid_tuples(base, d, b, simple_only)
    T = _group_table(d)
    forms = _canonical_forms(T, A)
    counts: dict[tuple[int, ...], int] = {}
    if forms.shape[1] == 0:
        if len(forms):
            counts[()] = len(forms)
    elif len(forms):
        order = np.lexsort(tuple(forms[:, c] for c in reversed(range(forms.shape[1]))))
        srt = forms[order]
        boundaries = np.flatnonzero(np.any(srt[1:] != srt[:-1], axis=1)) + 1
        starts = np.concatenate(([0], boundaries, [len(srt)]))
        for i in range(len(starts) - 1):
            key = tuple(int(x) for x in srt[starts[i]])
            counts[key] = int(starts[i + 1] - starts[i])
    return CensusShard(base, d, b, simple_only, counts)


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
    return CensusShard(head.base, head.degree, head.branch_count, head.simple_only, merged)


def _surface_sort_key(surface: ClosedSurface):
    return (not surface.orientable, surface.genus)


def _orbit_labels(images: np.ndarray) -> np.ndarray:
    """Least point of every point's orbit, per row.

    images[r, j] is generator j of row r as an image array on m points;
    the result has shape (rows, m). Min-label propagation: a label
    travels one generator step per round, and every point of an orbit is
    reached from its least point in fewer than m steps.
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


def _classify_forms(T: GroupTable, base: ClosedSurface, forms: np.ndarray):
    """Connectivity, Euler characteristic and orientability of the total
    space of every row of forms, a (classes, generators) index array in
    datum order: handle pairs or crosscaps, then meridians.

    Raises InvalidData unless every row closes the surface relation with
    non-identity meridians. chi is the whole total space's (Riemann-
    Hurwitz); orientable is that of the component over sheet 0, read
    off the sign double cover on sheets (i, s) -> i + s*d, where a
    crosscap c sends (i, s) to (c(i), 1 - s) and a meridian m to
    (m(i), s): the component is orientable exactly when the two lifts
    of sheet 0 lie in different orbits.
    """
    n = len(forms)
    d = T.degree
    r = _generators(base)
    if forms.size and (forms.min() < 0 or forms.max() >= T.order):
        raise InvalidData(f"class forms index outside S_{d}")
    relation = np.zeros(n, dtype=np.int32)
    for i in range(base.genus):
        if base.orientable:
            a, b = forms[:, 2 * i], forms[:, 2 * i + 1]
            word = (a, b, T.inv[a], T.inv[b])
        else:
            word = (forms[:, i], forms[:, i])
        for g in word:
            relation = T.mult[relation, g]
    meridians = forms[:, r:]
    relation = T.mult[relation, _word_product(T, meridians)]
    bad = (relation != 0) | (meridians == 0).any(axis=1)
    if bad.any():
        raise InvalidData(
            f"class form {forms[np.argmax(bad)].tolist()} fails the surface relation"
            " or has an identity meridian"
        )
    images = T.P[forms]
    connected = (_orbit_labels(images) == 0).all(axis=1)
    chi = d * euler_characteristic(base) - (d - T.ncycles[meridians]).sum(axis=1)
    if base.orientable:
        return connected, chi, np.ones(n, dtype=bool)
    crosscaps, meridian_images = images[:, :r], images[:, r:]
    lifts = np.concatenate(
        [
            np.concatenate([crosscaps + d, crosscaps], axis=2),
            np.concatenate([meridian_images, meridian_images + d], axis=2),
        ],
        axis=1,
    )
    labels = _orbit_labels(lifts)
    return connected, chi, labels[:, 0] != labels[:, d]


def classify_shard(shard: CensusShard) -> CensusRow:
    """Keep the transitive classes and sum their raw and class counts
    by total space, classifying all class forms in one array pass."""
    T = _group_table(shard.degree)
    base = shard.base
    k = _generators(base) + shard.branch_count
    n = len(shard.counts)
    forms = np.array(list(shard.counts), dtype=np.int32).reshape(n, k)
    counts = np.fromiter(shard.counts.values(), dtype=np.int64, count=n)
    connected, chi, orientable = _classify_forms(T, base, forms)
    pairs, which = np.unique(
        np.column_stack([chi, orientable])[connected], axis=0, return_inverse=True
    )
    which = which.reshape(-1)
    raw = np.zeros(len(pairs), dtype=np.int64)
    np.add.at(raw, which, counts[connected])
    classes = np.bincount(which, minlength=len(pairs))
    realized = [
        (classify(c, bool(o)), int(raw[i]), int(classes[i]))
        for i, (c, o) in enumerate(pairs.tolist())
    ]
    realized.sort(key=lambda row: _surface_sort_key(row[0]))
    return CensusRow(shard.base, shard.degree, shard.branch_count, tuple(realized))


def enumerate_covers(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True
) -> CensusRow:
    """The cell's row. A cell whose exact connected count is 0 reports
    its empty row without enumerating; any other is admitted, enumerated
    and its raw total checked against that count."""
    expected = _admit(base, d, b, simple_only)
    if expected == 0:
        return CensusRow(base, d, b, ())
    row = classify_shard(enumerate_shard(base, d, b, simple_only))
    found = sum(raw for _, raw, _ in row.realized)
    if found != expected:
        kind = "simple" if simple_only else "all"
        raise InvalidData(
            f"census cell ({base.name}, degree {d}, {b} branch points, {kind}) "
            f"enumerates {found} connected tuples, but the characters of S_{d} "
            f"count {expected}"
        )
    return row


def parity_audit(d_max: int, b_max: int) -> AuditReport:
    """Enumerate every simple cell over the projective plane and check
    the crosscap parity and count laws on each realized nonorientable
    total space. Every cell is admitted before the first is enumerated,
    the largest first."""
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
    with an exhaustive empty cell as witness."""
    from .hurwitz import construct_hyperelliptic, stabilize, total_space

    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if genus_max < 0:
        raise ValueError(f"need genus_max >= 0, got {genus_max}")
    blocked_h = 1 if n % 2 == 0 else 2
    forced_b = n + blocked_h - 2
    row = enumerate_covers(PROJECTIVE_PLANE, n, forced_b, True)
    witnesses = []
    for g in range(genus_max + 1):
        datum = construct_hyperelliptic(g)
        while datum.degree < n:
            datum = stabilize(datum)
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
