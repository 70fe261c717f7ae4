"""Compact exhaustions of open orientable surfaces as leveled piece graphs.

A piece is one connected component of the region between two successive
compact stages E_{j-1} and E_j. It records its genus, the circles it is
glued to one level down (inner), and the circles it owns on the outer
frontier of its level (outer). Gluing references are the matching: each
inner entry names an outer circle of a level-(j-1) piece.

Normalization repeatedly applies two moves, levels ascending:
join (tube): two frontier circles of one stage that are connected
through the super-level graph are tubed together, and pants split: a
piece with three or more outer circles sheds two of them into a fresh
two-legged piece one level deeper. The result has the standard shape:
a level-1 disk and, above it, pieces with one inner circle and one or
two outer circles.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

from .errors import InvalidInput, NotNormalized, ValidationReport


@dataclass(frozen=True)
class Piece:
    id: str
    level: int
    genus: int
    inner: tuple[int, ...]
    outer: tuple[int, ...]
    orientable: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "inner", tuple(int(c) for c in self.inner))
        object.__setattr__(self, "outer", tuple(int(c) for c in self.outer))


def piece_chi(p: Piece) -> int:
    # chi of a compact surface with boundary, genus g, b circles: 2 - 2g - b
    return 2 - 2 * p.genus - (len(p.inner) + len(p.outer))


def piece_shape(p: Piece) -> str:
    """'disk' for the base ball, 'a' and 'b' for the two normalized
    shapes above level 1, 'other' for anything else."""
    if p.level == 1:
        return "disk" if p.genus == 0 and not p.inner and len(p.outer) == 1 else "other"
    if len(p.inner) == 1 and len(p.outer) == 1:
        return "a"
    if len(p.inner) == 1 and len(p.outer) == 2:
        return "b"
    return "other"


class LevelSupplier(Protocol):
    """Contract for exhaustions that keep growing past the truncation.

    remaining_type_b_after(level) reports how many two-legged pieces
    exist strictly beyond the given level: 0 certifies none, a positive
    integer promises finitely many more, math.inf promises infinitely
    many, None declines to answer.
    """

    def remaining_type_b_after(self, level: int) -> int | float | None: ...


@dataclass(frozen=True)
class ConstantSupplier:
    remaining: int | float | None

    def remaining_type_b_after(self, level: int) -> int | float | None:
        return self.remaining


@dataclass(frozen=True)
class ExhaustionGraph:
    pieces: tuple[Piece, ...]
    supplier: LevelSupplier | None = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.pieces, key=lambda p: (p.level, p.id)))
        object.__setattr__(self, "pieces", ordered)

    @property
    def depth(self) -> int:
        return max((p.level for p in self.pieces), default=0)

    @cached_property
    def levels(self) -> dict[int, tuple[Piece, ...]]:
        """The pieces of each level, in (level, id) order; built once."""
        out: dict[int, list[Piece]] = {}
        for p in self.pieces:
            out.setdefault(p.level, []).append(p)
        return {j: tuple(ps) for j, ps in out.items()}

    def at_level(self, j: int) -> tuple[Piece, ...]:
        return self.levels.get(j, ())


@dataclass(frozen=True)
class NormalizedExhaustion(ExhaustionGraph):
    stable_depth: int = 0


@dataclass(frozen=True)
class EndCount:
    ends: int
    exact: bool
    infinite: bool


def total_chi(g: ExhaustionGraph) -> int:
    return sum(piece_chi(p) for p in g.pieces)


def circle_owners(g: ExhaustionGraph) -> dict[int, Piece]:
    owners: dict[int, Piece] = {}
    for p in g.pieces:
        for c in p.outer:
            owners[c] = p
    return owners


def circle_referencers(g: ExhaustionGraph) -> dict[int, Piece]:
    refs: dict[int, Piece] = {}
    for p in g.pieces:
        for c in p.inner:
            refs[c] = p
    return refs


def frontier_circles(g: ExhaustionGraph) -> tuple[int, ...]:
    """Outer circles glued to nothing; in a valid truncation these all
    sit at the deepest level and are where the surface keeps going."""
    referenced = {c for p in g.pieces for c in p.inner}
    return tuple(
        sorted(c for p in g.pieces for c in p.outer if c not in referenced)
    )


def validate_exhaustion(g: ExhaustionGraph) -> ValidationReport:
    problems: list[str] = []
    if not g.pieces:
        return ValidationReport(False, ["no pieces"])

    seen_ids: set[str] = set()
    for p in g.pieces:
        if p.id in seen_ids:
            problems.append(f"duplicate piece id {p.id!r}")
        seen_ids.add(p.id)
        if p.level < 1:
            problems.append(f"piece {p.id!r} has level {p.level} < 1")
        if p.genus < 0:
            problems.append(f"piece {p.id!r} has negative genus")
        if not p.orientable:
            problems.append(
                f"piece {p.id!r} is marked nonorientable; covers of the plane are orientable"
            )
        if not p.outer:
            problems.append(
                f"piece {p.id!r} has no outer boundary (a precompact complement component)"
            )

    depth = g.depth
    populated = {p.level for p in g.pieces}
    if populated and populated != set(range(1, depth + 1)):
        problems.append("levels are not contiguous from 1")

    roots = g.at_level(1)
    if len(roots) != 1:
        problems.append(f"expected exactly one level-1 piece, found {len(roots)}")
    for p in roots:
        if p.inner:
            problems.append(f"level-1 piece {p.id!r} must have no inner boundaries")
    for p in g.pieces:
        if p.level >= 2 and not p.inner:
            problems.append(
                f"piece {p.id!r} at level {p.level} has no inner boundary, so its stage is disconnected"
            )

    owners: dict[int, str] = {}
    for p in g.pieces:
        for c in p.outer:
            if c in owners:
                problems.append(f"circle {c} owned by both {owners[c]!r} and {p.id!r}")
            owners[c] = p.id
    owner_level = {c: p.level for p in g.pieces for c in p.outer}

    referenced: dict[int, str] = {}
    for p in g.pieces:
        for c in p.inner:
            if c in referenced:
                problems.append(
                    f"circle {c} glued twice (by {referenced[c]!r} and {p.id!r})"
                )
            referenced[c] = p.id
            if c not in owner_level:
                problems.append(f"piece {p.id!r} references unknown circle {c}")
            elif owner_level[c] != p.level - 1:
                problems.append(
                    f"piece {p.id!r} at level {p.level} references circle {c} at level {owner_level[c]}"
                )
    for p in g.pieces:
        if p.level < depth:
            for c in p.outer:
                if c not in referenced:
                    problems.append(
                        f"outer circle {c} of {p.id!r} is unglued below the frontier"
                    )

    return ValidationReport(not problems, problems)


# --- normalization ---


class _Mut:
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


class _Normalizer:
    def __init__(self, g: ExhaustionGraph):
        self.pieces: dict[str, _Mut] = {p.id: _Mut(p) for p in g.pieces}
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

    def owner_of(self) -> dict[int, _Mut]:
        return {c: p for p in self.pieces.values() for c in p.outer}

    def referencer_of(self) -> dict[int, _Mut]:
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
        disk = _Mut(Piece(self.fresh_id("d"), 1, 0, (), (c0,)))
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
        self, j: int, start: _Mut, goal: _Mut, c1: int, c2: int
    ) -> tuple[list[_Mut], list[int]]:
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

    def _merge_pieces(self, group: list[_Mut]) -> _Mut:
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
            run: list[_Mut] = []
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
            pants = _Mut(Piece(self.fresh_id("p"), j + 1, 0, (cf,), (ca, cb)))
            self.pieces[pants.id] = pants
            for c in ring:
                cc = self.fresh_circle()
                ann = _Mut(Piece(self.fresh_id("a"), j + 1, 0, (c,), (cc,)))
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


def normalize(g: ExhaustionGraph) -> NormalizedExhaustion:
    """Rewrite the graph into the standard shape, levels ascending:
    tube joins first, then pants splits, at each level. Levels at or
    below the sweep cursor are never touched again, so the reported
    stable depth is the full resulting depth."""
    report = validate_exhaustion(g)
    if not report.ok:
        raise InvalidInput("; ".join(report.problems))
    pieces, depth = _Normalizer(g).run()
    return NormalizedExhaustion(pieces, supplier=g.supplier, stable_depth=depth)


def is_normalized_through(g: ExhaustionGraph, J: int) -> bool:
    if g.depth < J:
        return False
    for p in g.pieces:
        if p.level > J:
            continue
        if piece_shape(p) in ("other",):
            return False
    return True


def count_ends(g: ExhaustionGraph, J: int) -> EndCount:
    """1 + (two-legged pieces through level J), exact only when the
    supplier certifies nothing two-legged remains beyond J."""
    if J < 1:
        raise ValueError(f"need J >= 1, got {J}")
    report = validate_exhaustion(g)
    if not report.ok:
        raise InvalidInput("; ".join(report.problems))
    if not is_normalized_through(g, J):
        raise NotNormalized(f"graph is not in normal shape through level {J}")
    ends = 1 + sum(1 for p in g.pieces if 2 <= p.level <= J and piece_shape(p) == "b")
    if g.supplier is None:
        return EndCount(ends, exact=False, infinite=False)
    remaining = g.supplier.remaining_type_b_after(J)
    if remaining == 0:
        return EndCount(ends, exact=True, infinite=False)
    if remaining == math.inf:
        return EndCount(ends, exact=False, infinite=True)
    return EndCount(ends, exact=False, infinite=False)
