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

The sweep keeps its working copy indexed: each circle's owner and
referencer, and the pieces of each level (pieces point at their level,
so inserting a level renumbers levels, not pieces). Before the sweep,
one pass from the top level down, with a union-find, groups the circles
of every level by the component of the graph above the level that
reaches them. The sweep's moves keep those groups: a join merges pieces
that its tube already connects above every lower level, and a split's
new levels reach each component above them through one circle. Each
join finds its tube by a breadth-first search from both ends, which
stops where the two meet, then walks back from the goal over the pieces
of shortest paths only; a search from one end takes 1.5 to 3.9 times
as long on ring ladders of 10,000 to 20,000 pieces. A normalization
costs its input and output and one search per join; on a ring ladder a
search may cover a patch as wide as the ring, so the cost per piece
grows with the width, not the depth. `normalize` is admitted before any
of it (see its prices). When the sweep ends it empties its levels, so
reference counts free the working copy, whose pieces and levels point
at each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidInput, NotNormalized, ValidationReport, admit


@dataclass(frozen=True)
class Piece:
    id: str
    level: int
    genus: int
    inner: tuple[int, ...]
    outer: tuple[int, ...]
    orientable: bool = True

    def __post_init__(self) -> None:
        # callers pass ints (jsonio type-checks them); lists become tuples
        object.__setattr__(self, "inner", tuple(self.inner))
        object.__setattr__(self, "outer", tuple(self.outer))


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


@dataclass(frozen=True)
class ExhaustionGraph:
    pieces: tuple[Piece, ...]

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


def validate_exhaustion(g: ExhaustionGraph) -> ValidationReport:
    problems: list[str] = []
    if not g.pieces:
        return ValidationReport(["no pieces"])

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
    # levels 1..depth exactly, tested without a depth-sized set: depth
    # is read from the document
    populated = {p.level for p in g.pieces}
    if min(populated) != 1 or len(populated) != depth:
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

    owners: dict[int, Piece] = {}
    for p in g.pieces:
        for c in p.outer:
            if c in owners:
                problems.append(f"circle {c} owned by both {owners[c].id!r} and {p.id!r}")
            owners[c] = p

    referenced: dict[int, str] = {}
    for p in g.pieces:
        for c in p.inner:
            if c in referenced:
                problems.append(
                    f"circle {c} glued twice (by {referenced[c]!r} and {p.id!r})"
                )
            referenced[c] = p.id
            if c not in owners:
                problems.append(f"piece {p.id!r} references unknown circle {c}")
            elif owners[c].level != p.level - 1:
                problems.append(
                    f"piece {p.id!r} at level {p.level} references circle {c} at level {owners[c].level}"
                )
    for p in g.pieces:
        if p.level < depth:
            for c in p.outer:
                if c not in referenced:
                    problems.append(
                        f"outer circle {c} of {p.id!r} is unglued below the frontier"
                    )

    return ValidationReport(problems)


# --- normalization ---

# Prices for errors.admit, fitted to whole CLI runs of normalize (fastest
# of 3, 2-core Xeon, Python 3.11): per input piece, per piece of the bound
# on the output, and per piece the joins' searches are expected to reach
# (see _Normalizer._group_circles). Fans of 560 and 632 ends (156,521 and
# 199,397 pieces out) take 2.5 and 3.1 s; ring ladders from 20 x 1000 to
# 200 x 100 and 400 x 30 1.2 to 3.2 s, and those at the budget's edge
# (250 x 100, 200 x 137, 100 x 397, 20 x 3331, 528 x 30, 570 x 20) 3.6 to
# 4.6 s: 0.8 to 1.5 us a step. Above the interpreter's 20 MB a run peaks
# at 42 bytes a step for the 632-way fan, 11 for the 251 x 100 ladder and
# 22 for the 20 x 3331 one, its document's parse included.
_PIECE_STEPS = 30
_MADE_STEPS = 20
# a join's search is priced at an eighth of its group's size in pieces,
# but at most the levels its component spans above the join
_GROUP_SHARE = 8


class _Level(dict):
    """The pieces of one level during normalization, by id. Pieces point
    at their level, so inserting a level renumbers levels, not pieces.
    groups holds the level's glued outer circles that its joins tube
    together, grouped as the sweep found the input (see _group_circles);
    a level that a split inserts has none."""

    __slots__ = ("number", "groups")

    def __init__(self, number: int):
        super().__init__()
        self.number = number
        self.groups: list[list[int]] = []


class _Mut:
    """Mutable working copy of a piece during normalization."""

    __slots__ = ("id", "home", "genus", "inner", "outer")

    def __init__(self, id: str, home: _Level, genus: int, inner: list[int], outer: list[int]):
        self.id = id
        self.home = home
        self.genus = genus
        self.inner = inner
        self.outer = outer

    @property
    def level(self) -> int:
        return self.home.number

    def freeze(self) -> Piece:
        return Piece(
            self.id,
            self.level,
            self.genus,
            tuple(sorted(self.inner)),
            tuple(sorted(self.outer)),
        )


class _Normalizer:
    """The sweep over a working copy of the graph. Every move keeps the
    circle maps (owner: the piece with the circle on its outer list;
    refer: the piece glued to it) and the per-level piece index up to
    date, so it touches only the pieces and circles it changes."""

    def __init__(self, g: ExhaustionGraph):
        self.pieces: dict[str, _Mut] = {}
        self.levels = [_Level(j) for j in range(g.depth + 1)]
        self.owner: dict[int, _Mut] = {}
        self.refer: dict[int, _Mut] = {}
        for p in g.pieces:
            self._add(_Mut(p.id, self.levels[p.level], p.genus, list(p.inner), list(p.outer)))
        self.next_circle = max(self.owner, default=0) + 1
        self.next_name = 1
        self.made, self.searched = self._group_circles()

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

    def _add(self, p: _Mut) -> None:
        self.pieces[p.id] = p
        p.home[p.id] = p
        for c in p.inner:
            self.refer[c] = p
        for c in p.outer:
            self.owner[c] = p

    def _shift_above(self, j: int) -> None:
        """Move every piece above level j one level deeper."""
        self.levels.insert(j + 1, _Level(j + 1))
        for k in range(j + 2, len(self.levels)):
            self.levels[k].number = k

    def _glued_above(self, p: _Mut, j: int) -> list[tuple[_Mut, int]]:
        """The pieces above level j glued to p, a piece above level j, each
        with its circle: the pieces glued to its outer circles, and those
        that own its inner circles unless they lie at level j."""
        out = [(self.refer[c], c) for c in p.outer if c in self.refer]
        if p.home.number > j + 1:
            out += [(self.owner[c], c) for c in p.inner]
        return out

    # -- level-1 disk --

    def ensure_disk(self) -> None:
        root = min(self.levels[1].values(), key=lambda p: p.id)
        if root.genus == 0 and len(root.outer) == 1 and not root.inner:
            return
        self._shift_above(0)
        c0 = self.fresh_circle()
        self._add(_Mut(self.fresh_id("d"), self.levels[1], 0, [], [c0]))
        root.inner = [c0]
        self.refer[c0] = root

    # -- move (1): tube joins --

    def _group_circles(self) -> tuple[int, int]:
        """Group the glued outer circles of every level by the component
        of the graph above the level that they reach, in one pass from the
        top level down: a union-find holds the pieces above the level, and
        each level's pieces join it once its circles are grouped. Keeps
        the groups of two or more circles, each sorted.

        Returns a bound on the pieces the sweep makes and the pieces its
        joins' searches are expected to reach: for each group, its size
        times the lesser of an eighth of it and the levels its component
        spans. After its joins a level keeps one glued circle per
        component above it, and a piece of it at most one per component
        glued to each of the input pieces merged into it; each split then
        adds a pants piece and an annulus for each other circle of the
        level."""
        parent: dict[_Mut, _Mut] = {}
        high: dict[_Mut, int] = {}  # a root's component's top level

        def find(p: _Mut) -> _Mut:
            while (q := parent[p]) is not p:
                parent[p] = p = parent[q]
            return p

        made = 1  # the disk
        searched = 0
        for level in reversed(self.levels):
            j = level.number
            groups: dict[_Mut, list[int]] = {}
            glued = []
            free = 0  # unglued circles, which only the top level has
            fat = 0  # each piece's circles past two, each one split
            for q in level.values():
                parent[q] = q
                high[q] = j
                tops = set()
                loose = 0
                for c in q.outer:
                    if (r := self.refer.get(c)) is not None:
                        groups.setdefault(top := find(r), []).append(c)
                        glued.append((q, r))
                        tops.add(top)
                    else:
                        loose += 1
                free += loose
                fat += max(0, len(tops) + loose - 2)
            level.groups = [sorted(cs) for cs in groups.values() if len(cs) >= 2]
            searched += sum(
                len(cs) * min(len(cs), _GROUP_SHARE * (high[top] - j))
                for top, cs in groups.items()
                if len(cs) >= 2
            ) // _GROUP_SHARE
            for q, r in glued:
                if (a := find(q)) is not (b := find(r)):
                    parent[a] = b
                    high[b] = max(high[a], high[b])
            # a merged piece has at most two splits more than its parts
            merged = len(level) - len({find(q) for q in level.values()})
            circles = len(groups) + free
            splits = min(max(0, circles - 2), fat + 2 * merged)
            made += splits * (circles - 1) - splits * (splits - 1) // 2
        return made, searched

    def joins_at(self, j: int) -> None:
        # the input's grouping still holds: a join merges pieces of one
        # level that its tube connects through pieces no lower, so through
        # the graph above every level beneath them, and the circles it
        # drops are parallel to circles it keeps; so the level's circles
        # are its groups less the circles lower joins dropped, and its own
        # joins keep them too, as each drops the larger of its two circles
        groups, self.levels[j].groups = self.levels[j].groups, []
        for circles in sorted([c for c in cs if c in self.refer] for cs in groups):
            while len(circles) >= 2:
                c1, c2 = circles[0], circles.pop(1)
                path, crossings = self._tube_path(j, self.refer[c1], self.refer[c2], c1, c2)
                self._apply_join(j, path, crossings)

    def _tube_path(
        self, j: int, start: _Mut, goal: _Mut, c1: int, c2: int
    ) -> tuple[list[_Mut], list[int]]:
        """Shortest gluing path from the piece over c1 to the piece over
        c2 among pieces above level j; ties resolved by least piece id,
        then least circle id. Returns the pieces and the crossed
        circles, bracketed by c1 and c2."""
        if start is goal:
            return [start], [c1, c2]
        # breadth-first from both ends, a whole layer at a time from the
        # end whose frontier has fewer circles, until a layer reaches the
        # other end's pieces: these meeting pieces lie on every shortest
        # path, at one distance from each end
        refer, owner = self.refer.get, self.owner
        floor = j + 1  # the inner circles of its pieces lie at level j
        dist = ({start: 0}, {goal: 0})
        fronts = [[start], [goal]]
        costs = [len(start.inner) + len(start.outer), len(goal.inner) + len(goal.outer)]
        meet: list[_Mut] = []
        while not meet:
            side = costs[0] > costs[1]
            near = dist[side]
            k = near[fronts[side][0]] + 1
            layer = []
            for u in fronts[side]:
                for c in u.outer:
                    if (v := refer(c)) is not None and v not in near:
                        near[v] = k
                        layer.append(v)
                if u.home.number > floor:
                    for c in u.inner:
                        if (v := owner[c]) not in near:
                            near[v] = k
                            layer.append(v)
            fronts[side] = layer
            costs[side] = sum(len(v.inner) + len(v.outer) for v in layer)
            meet = [v for v in layer if v in dist[not side]]
        # back from the meeting pieces, the pieces one nearer the goal give
        # exactly the goal's half of the shortest paths; each keeps the
        # gluings by which a step leads one nearer the start
        back = dist[1]
        ahead: dict[_Mut, list[tuple[_Mut, int]]] = {}
        rank = meet
        while rank:
            behind = []
            for v in rank:
                k = back[v] - 1
                for u, c in self._glued_above(v, j):
                    if back.get(u) == k:
                        if u not in ahead:
                            ahead[u] = []
                            behind.append(u)
                        ahead[u].append((v, c))
            rank = behind
        # walk back from the goal, each step to the least piece one nearer
        # the start, as a search from the start alone would
        first = dist[0]
        path = [goal]
        circles: list[int] = []
        u = goal
        while u is not start:
            if u in first:
                k = first[u] - 1
                steps = [(v, c) for v, c in self._glued_above(u, j) if first.get(v) == k]
            else:
                steps = ahead[u]
            u, c = min(steps, key=lambda vc: (vc[0].id, vc[1]))
            path.append(u)
            circles.append(c)
        path.reverse()
        circles.reverse()
        return path, [c1] + circles + [c2]

    def _merge_pieces(self, group: list[_Mut]) -> None:
        group = sorted(group, key=lambda p: p.id)
        head = group[0]
        for p in group[1:]:
            head.genus += p.genus
            head.inner += p.inner
            head.outer += p.outer
            for c in p.inner:
                self.refer[c] = head
            for c in p.outer:
                self.owner[c] = head
            del self.pieces[p.id]
            del p.home[p.id]

    def _merge_circles(self, a: int, b: int) -> None:
        """Drop the larger of two circles that the join left with one
        owner and one referencer."""
        drop = max(a, b)
        self.owner.pop(drop).outer.remove(drop)
        self.refer.pop(drop).inner.remove(drop)

    def _apply_join(self, j: int, path: list[_Mut], crossings: list[int]) -> None:
        walk = [j] + [p.level for p in path] + [j]
        stack: list[int] = []
        pairs: list[tuple[int, int]] = []
        for i, circle in enumerate(crossings):
            if walk[i + 1] > walk[i]:
                stack.append(circle)
            else:
                pairs.append((stack.pop(), circle))

        # each component above level j - 1 meets level j in one piece, so
        # both ends of the tube have one owner and the join is a handle on it
        self.owner[crossings[0]].genus += 1

        # the path's pieces of one level merge when no lower piece lies
        # between them on the path
        runs: dict[int, list[_Mut]] = {}
        for p in path:
            for level in [k for k in runs if k > p.level]:
                self._merge_pieces(runs.pop(level))
            runs.setdefault(p.level, []).append(p)
        for run in runs.values():
            self._merge_pieces(run)

        for a, b in pairs:
            self._merge_circles(a, b)

    # -- move (2): pants splits --

    def splits_at(self, j: int) -> None:
        level = self.levels[j]
        while True:
            fat = [p for p in level.values() if len(p.outer) >= 3]
            if not fat:
                return
            x = min(fat, key=lambda p: p.id)
            ca, cb = sorted(x.outer)[:2]
            # the inserted ring pushes everything deeper by one level, so
            # every other circle of this stage needs a pass-through tube
            # to keep gluings strictly one level apart
            ring = sorted(c for p in level.values() for c in p.outer if c not in (ca, cb))
            self._shift_above(j)
            cf = self.fresh_circle()
            x.outer = [c for c in x.outer if c not in (ca, cb)] + [cf]
            self.owner[cf] = x
            self._add(_Mut(self.fresh_id("p"), self.levels[j + 1], 0, [cf], [ca, cb]))
            for c in ring:
                cc = self.fresh_circle()
                r = self.refer.get(c)
                self._add(_Mut(self.fresh_id("a"), self.levels[j + 1], 0, [c], [cc]))
                if r is not None:
                    r.inner = [cc if d == c else d for d in r.inner]
                    self.refer[cc] = r

    def run(self) -> tuple[tuple[Piece, ...], int]:
        self.ensure_disk()
        j = 2
        while j < len(self.levels):
            self.joins_at(j)
            self.splits_at(j)
            j += 1
        frozen = tuple(
            p.freeze() for level in self.levels for p in sorted(level.values(), key=lambda p: p.id)
        )
        # pieces and their levels point at each other; emptying the levels
        # lets reference counts free the working copy, with no collection
        for level in self.levels:
            level.clear()
        return frozen, len(self.levels) - 1


def normalize(g: ExhaustionGraph) -> NormalizedExhaustion:
    """Rewrite the graph into the standard shape, levels ascending:
    tube joins first, then pants splits, at each level. Levels at or
    below the sweep cursor are never touched again, so the reported
    stable depth is the full resulting depth."""
    n = len(g.pieces)
    # the input alone first, so a document too large to sweep is refused
    # before it is validated
    admit(f"normalizing {n} pieces", _PIECE_STEPS * n)
    report = validate_exhaustion(g)
    if not report.ok:
        raise InvalidInput("; ".join(report.problems))
    sweep = _Normalizer(g)
    bound = n + sweep.made
    admit(
        f"normalizing {n} pieces into at most {bound}",
        _PIECE_STEPS * n + _MADE_STEPS * bound + sweep.searched,
    )
    pieces, depth = sweep.run()
    return NormalizedExhaustion(pieces, stable_depth=depth)


def is_normalized_through(g: ExhaustionGraph, J: int) -> bool:
    if g.depth < J:
        return False
    for p in g.pieces:
        if p.level > J:
            continue
        if piece_shape(p) in ("other",):
            return False
    return True


def count_ends(
    g: ExhaustionGraph, J: int, remaining: int | float | None = None
) -> EndCount:
    """1 + (two-legged pieces through level J). remaining is how many
    two-legged pieces lie beyond level J: an integer n makes the count
    exact, as each of them adds one end; math.inf makes it infinite, and
    None (unknown) leaves the count through level J a lower bound."""
    if J < 1:
        raise ValueError(f"need J >= 1, got {J}")
    if remaining is not None and remaining < 0:
        raise ValueError(f"need remaining >= 0, got {remaining}")
    report = validate_exhaustion(g)
    if not report.ok:
        raise InvalidInput("; ".join(report.problems))
    if not is_normalized_through(g, J):
        raise NotNormalized(f"graph is not in normal shape through level {J}")
    ends = 1 + sum(1 for p in g.pieces if 2 <= p.level <= J and piece_shape(p) == "b")
    if remaining is None or remaining == math.inf:
        return EndCount(ends, exact=False, infinite=remaining == math.inf)
    return EndCount(ends + remaining, exact=True, infinite=False)
