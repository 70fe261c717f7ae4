"""The census engine, the tests' reference: orderly generation and
classification in numpy.

Tuples are counted raw and up to simultaneous conjugation, but never
listed: orderly generation (McKay, Isomorph-free exhaustive generation,
J. Algorithms 26, 1998) builds the least tuple of every conjugation
class directly. It adds one column at a time and keeps only the prefixes
least among their conjugates, which reduces to a test of the new entry
against the stabiliser of the prefix. The generator the relation
determines comes last: the last meridian over an orientable base, the
last crosscap (via a square-root table) over a nonorientable one. A
class of d! / |C| raw tuples is counted from its representative's
stabiliser C.

Classification is one array pass over all class representatives of a
cell, in group-table indices: the relation is rechecked column by
column, the Euler characteristic comes from the meridians' cycle counts
(Riemann-Hurwitz), and connectivity and orientability from one closure,
the orbit of sheet 0 on the sign double cover held as two sheet masks.

It admits nothing: the census answers every cell from the characters of
S_d (module characters) and imports this module only through
census.__getattr__, for the benchmark's tracing shim. The engine is the
tests' reference for those closed forms, run only on the cells the tests
choose, and numpy is a test dependency. Its S_d tables take 8 d!^2
bytes (200 MB at d = 7), so the tests keep it to d <= 7.
"""
from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .census import CensusRow
from .errors import InvalidData
from .surfaces import ClosedSurface, classify, euler_characteristic


def _generators(base: ClosedSurface) -> int:
    """Surface generators of a tuple: handle pairs or crosscaps."""
    return 2 * base.genus if base.orientable else base.genus


@dataclass(frozen=True)
class CensusShard:
    """Census counts of one cell: the least tuple of each conjugation
    class, in datum order -> the class's raw tuple count.

    Class identity is the least tuple itself, so census.merge_shards can
    sum counts of one cell associatively without double-counting classes.
    """

    base: ClosedSurface
    degree: int
    branch_count: int
    simple_only: bool
    counts: dict[tuple[int, ...], int]


class GroupTable:
    """Dense multiplication/inversion/conjugation tables for S_d.

    Elements are indexed by the lexicographic rank of their image tuple,
    so index 0 is the identity. All products read left to right:
    mult[i, j] is "i then j" and conj[t, x] is inv[t]·x·t. Only the rows
    of the adjacent transpositions are ranked from image tuples; every
    other row of mult is one gather away from a row already known, by
    breadth-first search from the identity. ncycles[x] counts x's
    cycles, fixed points included.
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
        # a point starts its cycle when no later image is smaller
        point = np.arange(degree, dtype=np.int8)
        least = np.tile(point, (self.order, 1))
        image = least.copy()
        for _ in range(degree - 1):
            image = np.take_along_axis(self.P, image, axis=1)
            np.minimum(least, image, out=least)
        self.ncycles = (least == point).sum(axis=1)
        moved = (self.P != np.arange(degree, dtype=np.int8)).sum(axis=1)
        self.transpositions = np.flatnonzero(moved == 2).astype(np.int32)
        # the roots of s are the i with mult[i, i] = s, in increasing order
        squares = self.mult[np.arange(self.order), np.arange(self.order)]
        self.sqrt_flat = np.argsort(squares, kind="stable").astype(np.int32)
        self.nsqrt = np.bincount(squares, minlength=self.order).astype(np.int64)
        self.sqrt_off = np.concatenate(([0], np.cumsum(self.nsqrt)))[:-1]
        # image[x, S] = x(S), sets of sheets as d-bit masks (d <= 7: uint8)
        self.image = np.zeros((self.order, 1 << degree), dtype=np.uint8)
        for i in range(degree):
            bit = np.left_shift(np.uint8(1), self.P[:, i].astype(np.uint8))
            np.bitwise_or(self.image[:, : 1 << i], bit[:, None], out=self.image[:, 1 << i : 2 << i])


@lru_cache(maxsize=None)
def _group_table(degree: int) -> GroupTable:
    return GroupTable(degree)


def _word_product(T: GroupTable, rows: np.ndarray) -> np.ndarray:
    acc = np.zeros(len(rows), dtype=np.int32)
    for j in range(rows.shape[1]):
        acc = T.mult[acc, rows[:, j]]
    return acc


def _surface_word(T: GroupTable, orientable: bool, gens: np.ndarray) -> np.ndarray:
    """Product of the surface word of gens, per row: a commutator per
    handle pair of columns, or a square per crosscap column."""
    if not orientable:
        return _word_product(T, T.mult[gens, gens])
    acc = np.zeros(len(gens), dtype=np.int32)
    for i in range(0, gens.shape[1], 2):
        a, c = gens[:, i], gens[:, i + 1]
        for g in (a, c, T.inv[a], T.inv[c]):
            acc = T.mult[acc, g]
    return acc


def _expand(counts: np.ndarray, starts: np.ndarray):
    """Row i repeated counts[i] times, paired with the positions
    starts[i], ..., starts[i] + counts[i] - 1."""
    reps = np.repeat(np.arange(len(counts)), counts)
    at = np.arange(reps.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    return reps, at


class _Stabilisers:
    """The subgroups of S_d met as stabilisers of least prefixes, each
    interned once by its sorted element indices; id 0 is the trivial
    group."""

    def __init__(self, T: GroupTable):
        self.T = T
        self.groups: list[np.ndarray] = []
        self.ids: dict[bytes, int] = {}
        self.intern(np.zeros(1, dtype=np.int32))

    def intern(self, group: np.ndarray) -> int:
        gid = self.ids.setdefault(group.tobytes(), len(self.groups))
        if gid == len(self.groups):
            self.groups.append(group)
        return gid

    def least(self, gid: int, values: np.ndarray):
        """The sorted values least in their orbit under conjugation by
        group gid, with the id of each one's stabiliser within the group."""
        if gid == 0 or not len(values):
            return values, np.zeros(len(values), dtype=np.int32)
        T, G = self.T, self.groups[gid]
        # a running minimum over blocks of at most one table row: a
        # |G| x d! slice of conj would weigh as much as conj at d = 7
        step = max(1, T.order // len(values))
        least = values.copy()
        for i in range(0, len(G), step):
            np.minimum(least, T.conj[G[i : i + step, None], values].min(axis=0), out=least)
        kept = values[least == values]
        fixed = T.conj[G[:, None], kept] == kept
        masks, which = np.unique(fixed.T, axis=0, return_inverse=True)
        ids = np.array([self.intern(G[m]) for m in masks], dtype=np.int32)
        return kept, ids[which.reshape(-1)]


def _extend(stabs: _Stabilisers, rows: np.ndarray, gids: np.ndarray, values: np.ndarray):
    """Every least one-column extension of the least prefixes rows, whose
    stabilisers are gids, by the values."""
    if not len(rows):
        return np.zeros((0, rows.shape[1] + 1), dtype=np.int32), gids
    present = np.unique(gids)
    exts = [stabs.least(g, values) for g in present.tolist()]
    sizes = np.array([len(kept) for kept, _ in exts], dtype=np.int64)
    slot = np.searchsorted(present, gids)
    reps, at = _expand(sizes[slot], (np.cumsum(sizes) - sizes)[slot])
    kept = np.concatenate([kept for kept, _ in exts])
    child = np.concatenate([ids for _, ids in exts])
    return np.column_stack([rows[reps], kept[at]]), child[at]


def _keep_least(stabs: _Stabilisers, values: np.ndarray, gids: np.ndarray):
    """Which (row, value) pairs have their value least in its orbit under
    the row's stabiliser gids, and the stabiliser of every pair kept.
    Each row must come with its value's whole orbit."""
    keep = np.ones(len(values), dtype=bool)
    child = gids.copy()
    by_group = np.argsort(gids, kind="stable")
    for sel in np.split(by_group, np.flatnonzero(np.diff(gids[by_group])) + 1):
        if not len(sel) or gids[sel[0]] == 0:
            continue
        kept, ids = stabs.least(int(gids[sel[0]]), np.unique(values[sel]))
        pos = np.minimum(np.searchsorted(kept, values[sel]), len(kept) - 1)
        hit = kept[pos] == values[sel]
        keep[sel] = hit
        child[sel[hit]] = ids[pos[hit]]
    return keep, child[keep]


def _least_tuples(T: GroupTable, base: ClosedSurface, b: int, mvals: np.ndarray):
    """One tuple per conjugation class of the cell's valid tuples, the
    least of its class in column order, with its raw count: a
    (classes, generators) index array in datum order and the class sizes.

    Columns go in datum order with the generator the relation solves
    moved last: the last meridian over an orientable base with b >= 1,
    forced as the inverse of the prefix's product; the last crosscap over
    a nonorientable base, one of the square roots of what the prefix
    leaves. With neither, the relation filters the finished rows.

    Orderly generation: let p be a prefix least among its conjugates and
    C(p) its stabiliser, the elements commuting with every entry of p.
    A conjugator t outside C(p) has t.p != p, so t.p > p and t.(p, x) >
    (p, x) whatever x is; one in C(p) has t.(p, x) = (p, t.x). So (p, x)
    is least exactly when x is least in its C(p)-orbit, and its
    stabiliser is C(p) n C(x). As every prefix of a least tuple is least,
    extending least prefixes this way reaches each class exactly once.
    Which values extend p depends on C(p) alone, so it is found once per
    column for each distinct stabiliser. A forced meridian is fixed by
    C(p), which preserves the relation; C(p) permutes the square roots of
    what p leaves, and a root is kept when it is least in its orbit. The
    value sets are unions of conjugacy classes, so the class of a valid
    tuple holds valid tuples only, d! / |stabiliser| of them.
    """
    stabs = _Stabilisers(T)
    everything = np.arange(T.order, dtype=np.int32)
    r = _generators(base)
    free = r if base.orientable else r - 1
    rows = np.zeros((1, 0), dtype=np.int32)
    gids = np.array([stabs.intern(everything)], dtype=np.int32)
    solved_meridian = base.orientable and b > 0
    for values in [everything] * free + [mvals] * (b - solved_meridian):
        rows, gids = _extend(stabs, rows, gids, values)
    head = _surface_word(T, base.orientable, rows[:, :free])
    if not base.orientable:
        rest = T.mult[T.inv[head], T.inv[_word_product(T, rows[:, free:])]]
        reps, at = _expand(T.nsqrt[rest], T.sqrt_off[rest])
        roots = T.sqrt_flat[at]
        keep, gids = _keep_least(stabs, roots, gids[reps])
        reps = reps[keep]
        rows = np.column_stack([rows[reps, :free], roots[keep], rows[reps, free:]])
    elif solved_meridian:
        last = T.inv[T.mult[head, _word_product(T, rows[:, free:])]]
        keep = np.isin(last, mvals)
        rows, gids = np.column_stack([rows[keep], last[keep]]), gids[keep]
    else:
        keep = head == 0
        rows, gids = rows[keep], gids[keep]
    orders = np.array([len(g) for g in stabs.groups], dtype=np.int64)
    return rows, T.order // orders[gids]


def enumerate_shard(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True
) -> CensusShard:
    """One least tuple per conjugation class of a census cell, with the
    class's raw tuple count; classify_shard turns it into the cell's row."""
    T = _group_table(d)
    values = T.transpositions if simple_only else np.arange(1, T.order, dtype=np.int32)
    forms, raw = _least_tuples(T, base, b, values)
    counts: dict[tuple[int, ...], int] = {}
    # row by row: one list of every row would outweigh the dictionary
    for form, n in zip(forms, raw.tolist()):
        counts[tuple(form.tolist())] = n
    return CensusShard(base, d, b, simple_only, counts)


def _surface_sort_key(surface: ClosedSurface):
    return (not surface.orientable, surface.genus)


def _orbit_verdicts(T: GroupTable, base: ClosedSurface, forms: np.ndarray):
    """Per row of forms: is the cover connected, and is the component
    over sheet 0 orientable? Both are read off the orbit of (0, 0) on the
    sign double cover, whose sheets (i, s) a crosscap c sends to
    (c(i), 1 - s) and any other generator g to (g(i), s), held as the
    d-bit masks lo and hi of the sheets reached with s = 0 and s = 1 and
    grown through T.image until a pass over the columns adds nothing."""
    caps = 0 if base.orientable else base.genus
    lo = np.ones(len(forms), dtype=np.uint8)
    hi = np.zeros(len(forms), dtype=np.uint8)
    while True:
        before = lo.copy(), hi.copy()
        for j in range(forms.shape[1]):
            g = forms[:, j]
            if j < caps:
                lo, hi = lo | T.image[g, hi], hi | T.image[g, lo]
            else:
                lo |= T.image[g, lo]
                if caps:
                    hi |= T.image[g, hi]
        if np.array_equal(lo, before[0]) and np.array_equal(hi, before[1]):
            return (lo | hi) == (1 << T.degree) - 1, (hi & 1) == 0


def _classify_forms(T: GroupTable, base: ClosedSurface, forms: np.ndarray):
    """Connectivity, Euler characteristic and orientability of the total
    space of every row of forms, a (classes, generators) index array in
    datum order: handle pairs or crosscaps, then meridians.

    Raises InvalidData unless every row closes the surface relation with
    non-identity meridians. chi is the whole total space's (Riemann-
    Hurwitz); connected and orientable (that of the component over
    sheet 0) come from one orbit closure, _orbit_verdicts.
    """
    d = T.degree
    r = _generators(base)
    if forms.size and (forms.min() < 0 or forms.max() >= T.order):
        raise InvalidData(f"class forms index outside S_{d}")
    meridians = forms[:, r:]
    relation = T.mult[_surface_word(T, base.orientable, forms[:, :r]), _word_product(T, meridians)]
    bad = (relation != 0) | (meridians == 0).any(axis=1)
    if bad.any():
        raise InvalidData(
            f"class form {forms[np.argmax(bad)].tolist()} fails the surface relation"
            " or has an identity meridian"
        )
    connected, orientable = _orbit_verdicts(T, base, forms)
    chi = d * euler_characteristic(base) - (d - T.ncycles[meridians]).sum(axis=1)
    return connected, chi, orientable


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

