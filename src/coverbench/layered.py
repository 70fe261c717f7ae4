"""Branched covers of the plane built level by level over an exhaustion.

Each piece of a normalized exhaustion is covered by one block. The
block over the level-1 disk is the two-sheeted cover branched at one
point. A one-legged piece of genus g is covered by an annulus block on
the same two sheets with 2g simple branch points. A two-legged piece
adds two fresh sheets capped inward by disks, so the degree over later
stages grows by two per split; its meridians are the lexicographically
first word of transpositions whose total boundary product splits the
four sheets into two pairs while the meridians alone connect them. Over
continuing sheets s1 < s2 and fresh t1 < t2 that word is
(s1 s2)^(2g+1), (s1 t1), (s2 t2), and the pairs are (s1 t1), (s2 t2).

The staircase is the standalone comparison cover: one new sheet per
level, one branch point per level, fiber count growing without bound.
Both constructors write every block from these closed forms and
multiply no permutations. All invariants checked here are combinatorial
consequences of counting lifted cells, so verify_layered re-derives
them from the raw block data rather than trusting the constructors: it
keeps its own boundary product of each block, the inbound cycle then
the meridians, and checks the block's claimed outbound cycles against
it instead of decomposing it. One walk reads each block once and does
every check that needs that block alone against one set of its sheets;
only the gluing checks that need every circle's owner, and the checks
by level, make passes of their own.

Both checkers read one level index, built on first use and cached on
the cover: the blocks of each level in document order, the first level
at which each sheet appears, and each block's relation verdict (whether
each claimed outbound cycle, listed from its least sheet, is a cycle of
the boundary product, and together they cover every sheet the product
moves and every sheet of the block). A verdict reads only those four
fields, so it is made once per distinct shape: the 160-way fan's normal
form has 12,721 blocks and 475 shapes. verify_layered is then linear in
the size of the cover, and restriction_compatibility(c, i) touches only
levels i and i + 1, so a sweep over every level is linear as well.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    DepthExceeded,
    InvalidInput,
    NonorientableInput,
    NotNormalized,
    UnverifiedInput,
    admit,
)

if TYPE_CHECKING:
    from .exhaustion import ExhaustionGraph

BLOCK_KINDS = ("disk", "annulus", "pants", "staircase")

# Prices for errors.admit per unit of the report, known before the cover
# is built, fitted to the wall time of whole CLI runs, 0.9-1.1 us a step
# at the edge (2-core Xeon, Python 3.11). A run at the edge peaks at 16
# to 59 bytes a step above the interpreter, as measured below.
# Per branch point of build-cover: 129 report bytes, 4.0-4.6 us and 147
# to 117 bytes of peak from 500,001 to 2,000,001 branch points (74 to
# 234 MB, 2.0 to 8.3 s); 28.5 bytes a step at 999,999.
_BRANCH_STEPS = 4
# Per block of build-cover, one per piece through the level asked for:
# 25-27 us and 1,620 to 1,720 bytes of peak; at the edge a genus-0 chain
# of 142,857 levels (11.8 MB) takes 3.8-4.1 s and 255 MB, 58.5 bytes a
# step, and the 533-way fan's normal form (141,779 blocks, 25.7 MB)
# 3.6-3.8 s and 240 MB, 55 bytes a step.
_BLOCK_STEPS = 28
# Per squared level of a staircase run, each level listing all its sheets:
# 28 report bytes and 0.36-0.39 us, and as much again for --verify;
# 11 to 15 bytes of peak from 2,000 to 4,000 levels; 31.6 bytes a step at
# 3,464 levels and 16.4 at 2,449 with --verify.
_SQUARED_LEVELS_PER_STEP = 3
# Per level of compose-staircase: 64 report bytes, 4.1-4.4 us and 126 to
# 117 bytes of peak from 10^6 to 2*10^6 levels (126 to 234 MB, 4.1 to 8.8
# s); 28.4 bytes a step at 10^6.
_LEVEL_STEPS = 4


# A block is a slotted record, built once and never changed: a changed
# block is a new one, made by dataclasses.replace, in a new cover, since a
# cover caches its index. A frozen dataclass took 1.9 us to build, this
# one 0.3 us (2-core Xeon, Python 3.11), and the fan's cover has 12,721
# blocks to build and to read. Unfrozen, it has no hash, so neither has a
# cover.
@dataclass(slots=True)
class Block:
    piece: str
    level: int
    kind: str
    sheets: tuple[int, ...]
    caps: tuple[int, ...]
    inbound: tuple[int, ...] | None
    meridians: tuple[tuple[int, int], ...]
    labels: tuple[tuple[int, int], ...]
    outbound: tuple[tuple[int, tuple[int, ...]], ...]
    parent: str | None
    parent_circle: int | None


@dataclass(frozen=True)
class LevelIndex:
    levels: dict[int, tuple[int, ...]]
    """Positions in LayeredCover.blocks of each level's blocks, in order."""
    first_level: dict[int, int]
    """Lowest level from 1 up whose blocks list each sheet."""
    sunk_sheets: frozenset[int]
    """Sheets of blocks below level 1 (malformed covers only): they lie
    under every level."""
    relations: tuple[str | None, ...]
    """Per block: why its boundary product fails, or None when it holds."""


@dataclass(frozen=True)
class LayeredCover:
    depth: int
    degree: int
    blocks: tuple[Block, ...]

    @cached_property
    def index(self) -> LevelIndex:
        """Built on first use from the blocks, which are never changed
        after, and kept; its verdicts are shared by blocks of one shape."""
        levels: dict[int, list[int]] = {}
        for k, b in enumerate(self.blocks):
            levels.setdefault(b.level, []).append(k)
        first_level: dict[int, int] = {}
        sunk: set[int] = set()
        # deepest level first, so the lowest level writes last
        for j in sorted(levels, reverse=True):
            for k in levels[j]:
                if j >= 1:
                    first_level.update(dict.fromkeys(self.blocks[k].sheets, j))
                else:
                    sunk.update(self.blocks[k].sheets)
        return LevelIndex(
            {j: tuple(ks) for j, ks in levels.items()},
            first_level,
            frozenset(sunk),
            _relations(self.blocks),
        )

    def at_level(self, j: int) -> tuple[Block, ...]:
        return tuple(self.blocks[k] for k in self.index.levels.get(j, ()))

    @property
    def branch_count(self) -> int:
        return sum(len(b.meridians) for b in self.blocks)


@dataclass(frozen=True)
class LayeredReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, passed, _ in self.checks if not passed)


@dataclass(frozen=True)
class ComposedReport:
    cover_degree: int
    staircase_depth: int
    fiber_count: int
    labels: tuple[tuple, ...]
    potentially_nonsimple: bool
    unbounded_in_depth: bool
    notes: tuple[str, ...]


# --- permutation words on small sheet sets ---


def _relations(blocks: tuple[Block, ...]) -> tuple[str | None, ...]:
    """_relation_problem of each of blocks. A verdict reads only a block's
    sheets, inbound cycle, meridians and outbound cycles, so it is made
    once per shape: in a normal form each end's annulus repeats at every
    later level."""
    verdicts: dict[tuple, str | None] = {}
    relations = []
    for b in blocks:
        shape = (b.sheets, b.inbound, b.meridians, tuple([cyc for _, cyc in b.outbound]))
        try:
            verdict = verdicts[shape]
        except KeyError:
            verdict = verdicts[shape] = _relation_problem(b)
        relations.append(verdict)
    return tuple(relations)


def _relation_problem(b: Block) -> str | None:
    """Why the boundary product of b, its inbound cycle first and then
    its meridians left to right, is not exactly its outbound cycles
    covering all its sheets; None when it is."""
    own = set(b.sheets)
    inbound = b.inbound or ()
    if (
        len(set(inbound)) != len(inbound)
        or not own.issuperset(inbound)
        or not all(len(t) == 2 and own.issuperset(t) for t in b.meridians)
    ):
        return "inbound cycle or a meridian is not a cycle on its sheets"
    # applying (a c) before a product swaps its images of a and c, so the
    # meridians are taken right to left, and then the inbound cycle
    perm = dict(zip(b.sheets, b.sheets))
    for a, c in reversed(b.meridians):
        perm[a], perm[c] = perm[c], perm[a]
    perm.update(zip(inbound, tuple(map(perm.get, inbound[1:] + inbound[:1]))))
    moved = sum(map(operator.ne, perm, perm.values()))
    # each claimed cycle must be one of the product's, listed from its
    # least sheet; distinct ones are then disjoint, so they are all of
    # them when their lengths add up to the sheets the product moves
    want = {cyc for _, cyc in b.outbound}
    if sum(map(len, want)) != moved or not all(
        len(cyc) > 1
        and len(set(cyc)) == len(cyc)
        and min(cyc) == cyc[0]
        and all(map(operator.eq, map(perm.get, cyc), cyc[1:] + cyc[:1]))
        for cyc in want
    ):
        return "boundary product disagrees with outbound cycles"
    if moved != len(perm):
        return "outbound cycles miss some sheets"
    return None


# --- canonical pants meridians ---


def _pants_meridians(
    genus: int, s1: int, s2: int, t1: int, t2: int
) -> tuple[tuple[int, int], ...]:
    """Lexicographically first transposition word of length 2g + 3 on
    sheets s1 < s2 < t1 < t2 (s1, s2 continuing, t1, t2 capped) whose
    boundary product after the inbound (s1 s2) pairs all four sheets
    without fixed points, with the word alone acting transitively:
    (s1 s2)^(2g+1), (s1 t1), (s2 t2), with product (s1 t1)(s2 t2).

    Relabel the sheets 0 < 1 < 2 < 3, which keeps the order of words.
    The word (0 1)^(2g+1), (0 2), (1 3) qualifies, so each of the first
    2g + 1 places takes the least letter (0 1). The product is then the
    identity and no letter has reached 2 or 3; the two letters left
    must reach both, so the next is one that reaches one of them, the
    least being (0 2). After it only (1 3) leaves no fixed point: (0 3)
    and (2 3) make a 3-cycle, and the rest leave 3 unreached."""
    return ((s1, s2),) * (2 * genus + 1) + ((s1, t1), (s2, t2))


# --- constructors ---


def build_cover(e: ExhaustionGraph, J: int) -> LayeredCover:
    """Degree 2k cover of the plane truncated at level J, where k - 1
    is the number of two-legged pieces through level J."""
    from .exhaustion import is_normalized_through, piece_shape, validate_exhaustion

    if J < 1:
        raise ValueError(f"need J >= 1, got {J}")
    bad = [p.id for p in e.pieces if not p.orientable]
    if bad:
        raise NonorientableInput(f"nonorientable pieces: {', '.join(bad)}")
    report = validate_exhaustion(e)
    if not report.ok:
        raise InvalidInput("; ".join(report.problems))
    if not is_normalized_through(e, J):
        raise NotNormalized(f"exhaustion is not in normal shape through level {J}")
    # a block per piece; the disk's one branch point, 2g per annulus and
    # 2g + 3 per pants
    later = [p for p in e.pieces if 2 <= p.level <= J]
    blocks_made = 1 + len(later)
    branch_points = 1 + sum(2 * p.genus + 3 * (piece_shape(p) == "b") for p in later)
    admit(
        f"the cover through level {J} with {blocks_made} blocks and {branch_points} branch points",
        _BRANCH_STEPS * branch_points + _BLOCK_STEPS * blocks_made,
    )

    blocks: list[Block] = []
    feeds: dict[int, tuple[str, tuple[int, ...]]] = {}
    root = e.at_level(1)[0]
    c0 = root.outer[0]
    blocks.append(
        Block(root.id, 1, "disk", (0, 1), (), None, ((0, 1),), ((1, 1),), ((c0, (0, 1)),), None, None)
    )
    feeds[c0] = (root.id, (0, 1))
    next_sheet = 2

    for j in range(2, J + 1):
        branch_idx = 0
        for p in e.at_level(j):
            circle = p.inner[0]
            parent_id, cyc = feeds[circle]
            s1, s2 = sorted(cyc)
            if piece_shape(p) == "a":
                word = ((s1, s2),) * (2 * p.genus)
                labels = tuple((j, branch_idx + i + 1) for i in range(len(word)))
                branch_idx += len(word)
                out_c = p.outer[0]
                blocks.append(
                    Block(p.id, j, "annulus", (s1, s2), (), (s1, s2), word, labels, ((out_c, (s1, s2)),), parent_id, circle)
                )
                feeds[out_c] = (p.id, (s1, s2))
            else:
                t1, t2 = next_sheet, next_sheet + 1
                next_sheet += 2
                word = _pants_meridians(p.genus, s1, s2, t1, t2)
                labels = tuple((j, branch_idx + i + 1) for i in range(len(word)))
                branch_idx += len(word)
                # the product's cycles, least sheet first as s1 < s2 < t1 < t2
                outbound = tuple(zip(sorted(p.outer), ((s1, t1), (s2, t2))))
                blocks.append(
                    Block(p.id, j, "pants", (s1, s2, t1, t2), (t1, t2), (s1, s2), word, labels, outbound, parent_id, circle)
                )
                for c, ccyc in outbound:
                    feeds[c] = (p.id, ccyc)

    degree = 2 + 2 * sum(1 for b in blocks if b.kind == "pants")
    return LayeredCover(J, degree, tuple(blocks))


def staircase(J: int, passes: int = 1) -> LayeredCover:
    """Connected cover over the standard disk/annulus exhaustion with
    one fresh sheet and one simple branch point per level; the fiber
    count over stage J is J + 1. Its admission charges the passes its
    caller makes over it, its report and a verification each."""
    if J < 1:
        raise ValueError(f"need J >= 1, got {J}")
    squares = J * J
    admit(f"the staircase through level {J}", passes * squares // _SQUARED_LEVELS_PER_STEP)
    blocks = [
        Block("s1", 1, "staircase", (0, 1), (), None, ((0, 1),), ((1, 1),), ((1, (0, 1)),), None, None)
    ]
    prev = (0, 1)
    # every level's sheets and cycle are sliced from one tuple, so the
    # levels share their int objects rather than making new ones
    all_sheets = tuple(range(J + 1))
    for i in range(2, J + 1):
        sheets = all_sheets[: i + 1]
        # the inbound cycle (0, i-1, ..., 1) followed by (i-1 i)
        out_cycle = sheets[:1] + sheets[:0:-1]
        blocks.append(
            Block(f"s{i}", i, "staircase", sheets, (i,), prev, ((i - 1, i),), ((i, 1),), ((i, out_cycle),), f"s{i - 1}", i - 1)
        )
        prev = out_cycle
    return LayeredCover(J, J + 1, tuple(blocks))


# --- verification ---


def verify_layered(c: LayeredCover) -> LayeredReport:
    index = c.index
    levels = index.levels.keys()
    problems: list[str] = []
    if not c.blocks:
        problems.append("no blocks")
    if levels and not (min(levels) == 1 and max(levels) == len(levels) == c.depth):
        problems.append("levels not contiguous from 1")
    if c.depth != max(levels, default=0):
        problems.append("depth field disagrees with deepest block")
    roots = len(index.levels.get(1, ()))
    if roots != 1:
        problems.append(f"expected one level-1 block, found {roots}")

    # one walk does every check that reads a single block, against one
    # set of its sheets; each check keeps its own messages in block order
    glue: list[str] = []
    simple: list[str] = []
    trans: list[str] = []
    chi: list[str] = []
    by_piece: dict[str, Block] = {}
    out_owner: dict[int, tuple[Block, tuple[int, ...]]] = {}
    seen_labels: set[tuple[int, int]] = set()
    part: dict[int, int] = {}

    def find(x: int) -> int:
        while part[x] != x:
            part[x] = part[part[x]]
            x = part[x]
        return x

    total = branches = pants = caps_above = 0
    for b in c.blocks:
        own = set(b.sheets)
        name, m = b.piece, len(b.meridians)
        if name in by_piece:
            problems.append(f"two blocks over piece {name!r}")
        by_piece[name] = b
        if b.kind not in BLOCK_KINDS:
            problems.append(f"unknown block kind {b.kind!r}")
        if len(own) != len(b.sheets):
            problems.append(f"block {name!r} repeats sheets")
        if not own.issuperset(b.caps):
            problems.append(f"block {name!r} caps outside its sheets")
        if b.inbound is not None and not own.difference(b.caps).issuperset(b.inbound):
            problems.append(f"block {name!r} inbound cycle leaves its open sheets")
        if len(b.labels) != m:
            problems.append(f"block {name!r} labels out of step with meridians")
        if (b.level == 1) != (b.parent is None):
            problems.append(f"block {name!r} parent link wrong for its level")
        for circle, cyc in b.outbound:
            if circle in out_owner:
                glue.append(f"circle {circle} emitted twice")
            out_owner[circle] = (b, cyc)
        for t in b.meridians:
            if len(t) != 2 or t[0] == t[1] or not own.issuperset(t):
                simple.append(f"block {name!r} has a non-transposition meridian")
                break
        for lab in b.labels:
            if lab in seen_labels:
                simple.append(f"branch label {lab} reused")
            seen_labels.add(lab)
        if b.kind == "pants":
            pants += 1
            if not all(len(t) == 2 and own.issuperset(t) for t in b.meridians):
                trans.append(f"pants block {name!r} meridians leave its sheets")
            else:
                part = dict(zip(b.sheets, b.sheets))
                for x, y in b.meridians:
                    part[find(x)] = find(y)
                if len({find(s) for s in b.sheets}) != 1:
                    trans.append(f"pants block {name!r} meridians not transitive")
            if m < 3 or m % 2 != 1:
                chi.append(f"pants block {name!r} branch count not 2g + 3")
        elif b.kind == "annulus" and m % 2 != 0:
            chi.append(f"annulus block {name!r} has odd branch count")
        elif b.kind == "disk" and (len(b.sheets) != 2 or m != 1):
            chi.append(f"disk block {name!r} is not the two-sheeted branched disk")
        # level 1 covers a disk (chi 1), later levels cover annuli (chi 0);
        # inward caps are disks glued back on
        total += (len(b.sheets) if b.level == 1 else len(b.caps)) - m
        branches += m
        if b.level > c.depth:
            caps_above += len(b.caps)

    # what needs every owner, or the levels in order, keeps its own pass
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
    for j in sorted(j for j in levels if 1 <= j <= c.depth):
        for b in c.at_level(j):
            if any(index.first_level.get(s, j) < j for s in b.caps):
                glue.append(f"block {b.piece!r} caps reuse lower sheets")

    # the fiber over stage j is the sheets of level j plus the caps of
    # every deeper block: a suffix sum over the levels, deepest first
    fiber: list[str] = []
    counts = []
    for j in range(c.depth, 0, -1):
        level = c.at_level(j)
        counts.append((j, sum(len(b.sheets) for b in level) + caps_above))
        caps_above += sum(len(b.caps) for b in level)
    for j, count in reversed(counts):
        if count != c.degree:
            fiber.append(f"fiber count over stage {j} is {count}, not {c.degree}")

    rel = [
        f"block {b.piece!r} {problem}"
        for b, problem in zip(c.blocks, index.relations)
        if problem is not None
    ]
    expected = c.degree - branches
    if total != expected:
        chi.append(f"blockwise chi {total} disagrees with degree - branching {expected}")
    ends = 1 + pants
    return LayeredReport((
        ("structure", not problems, "; ".join(problems) or "block shapes consistent"),
        ("gluing", not glue, "; ".join(glue) or "inbound cycles match parent gluings"),
        ("relations", not rel, "; ".join(rel) or "boundary products match outbound cycles"),
        ("simple-branching", not simple, "; ".join(simple) or "all meridians simple, labels distinct"),
        ("pants-transitivity", not trans, "; ".join(trans) or "pants meridians transitive"),
        ("fiber-count", not fiber, "; ".join(fiber) or f"fiber count {c.degree} at every stage"),
        ("chi", not chi, "; ".join(chi) or f"chi of stage {c.depth} is {total} both ways"),
        (
            "ends-bound",
            ends <= c.degree,
            f"{ends} ends within degree {c.degree}" if ends <= c.degree else f"{ends} ends exceeds degree {c.degree}",
        ),
    ))


def restriction_compatibility(c: LayeredCover, i: int) -> bool:
    """Whether the data at level i + 1 restricts to exactly the data at
    level i: parent gluings match, fresh sheets are genuinely fresh,
    and the level-(i + 1) boundary products close up."""
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    if c.depth < i + 1:
        raise DepthExceeded(f"cover truncated at depth {c.depth}, level {i + 1} missing")
    index = c.index
    out_map: dict[int, tuple[Block, tuple[int, ...]]] = {}
    for b in c.at_level(i):
        for circle, cyc in b.outbound:
            out_map[circle] = (b, cyc)
    claimed: list[int] = []
    for k in index.levels.get(i + 1, ()):
        b = c.blocks[k]
        if b.parent_circle not in out_map:
            return False
        owner, cyc = out_map[b.parent_circle]
        if b.parent != owner.piece or b.inbound != cyc:
            return False
        if any(
            s in index.sunk_sheets or index.first_level.get(s, i + 1) <= i
            for s in b.caps
        ):
            return False
        if index.relations[k] is not None:
            return False
        claimed.append(b.parent_circle)
    return sorted(claimed) == sorted(out_map)


def compose_with_staircase(c: LayeredCover, J: int) -> ComposedReport:
    """Stack a verified finite-degree cover on top of the staircase
    truncated at level J. The composite has one fiber copy of the cover
    per staircase sheet, so its degree over stage J is degree * (J + 1)
    and grows without bound in J."""
    if J < 0:
        raise ValueError(f"need J >= 0, got {J}")
    admit(f"the composite with the staircase through level {J}", _LEVEL_STEPS * J)
    report = verify_layered(c)
    if not report.ok:
        raise UnverifiedInput(
            "cover failed verification: " + ", ".join(report.failures)
        )
    labels: list[tuple] = [
        ("cover",) + lab for b in c.blocks for lab in b.labels
    ]
    labels += [("staircase", i, 1) for i in range(1, J + 1)]
    notes = (
        "branch images of the two maps are kept disjoint by tagging",
        "fiber count grows linearly in the staircase depth",
        "branch points of the upper map may collide over a staircase branch value, so simplicity is not claimed",
    )
    return ComposedReport(
        cover_degree=c.degree,
        staircase_depth=J,
        fiber_count=c.degree * (J + 1),
        labels=tuple(labels),
        potentially_nonsimple=True,
        unbounded_in_depth=True,
        notes=notes,
    )
