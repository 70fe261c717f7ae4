"""Independent cross-checks used by the test suite only.

These recompute invariants by a different route than the library:
Euler characteristics by counting cells of a lifted cell structure,
orientability by brute-force search over sign assignments.  Agreement
with the library is what the randomized tests assert.
"""
from __future__ import annotations

import random
from typing import Iterable

from coverbench.errors import DepthExceeded
from coverbench.hurwitz import HurwitzData
from coverbench.layered import BLOCK_KINDS, Block, LayeredCover
from coverbench.perms import Perm, compose_all, inverse
from coverbench.surfaces import ClosedSurface


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
    word: list[Perm] = []
    if orientable:
        handles = tuple(
            (random_perm(rng, d), random_perm(rng, d)) for _ in range(genus)
        )
        for a, b in handles:
            word += [a, b, inverse(a), inverse(b)]
    else:
        crosscaps = tuple(random_perm(rng, d) for _ in range(genus))
        for c in crosscaps:
            word += [c, c]
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
        if (p.is_transposition() if simple_only else not p.is_identity())
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
        if not last.is_transposition():
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
        for s in sheets:
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
