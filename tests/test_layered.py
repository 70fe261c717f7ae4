import itertools
import random
import time
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from coverbench.errors import (
    DepthExceeded,
    InvalidInput,
    NonorientableInput,
    NotNormalized,
    UnverifiedInput,
)
from coverbench.exhaustion import (
    ExhaustionGraph,
    Piece,
    count_ends,
    normalize,
    total_chi,
)
from coverbench.layered import (
    Block,
    _pants_meridians,
    _relation_problem,
    build_cover,
    compose_with_staircase,
    restriction_compatibility,
    staircase,
    verify_layered,
)

from oracles import (
    _quadratic_perm_cycles,
    _quadratic_word_perm,
    quadratic_restriction_compatibility,
    quadratic_verify_layered,
)
from test_exhaustion import random_exhaustion


def tower(*pieces):
    return ExhaustionGraph(tuple(pieces))


def chain(J, genus=0):
    """Disk plus a column of one-legged pieces up to level J."""
    pieces = [Piece("d", 1, 0, (), (1,))]
    for j in range(2, J + 1):
        pieces.append(Piece(f"x{j:02d}", j, genus, (j - 1,), (j,)))
    return tower(*pieces)


def apply(p, t):
    a, b = t
    return tuple(b if x == a else a if x == b else x for x in p)


def pants_product(word):
    """Boundary product on sheets 0..3: the inbound (0 1), then word."""
    prod = (1, 0, 2, 3)
    for t in word:
        prod = apply(prod, t)
    return prod


class TestPantsMeridians:
    def test_genus_zero_word(self):
        word = _pants_meridians(0, 0, 1, 2, 3)
        assert word == ((0, 1), (0, 2), (1, 3))
        assert pants_product(word) == (2, 3, 0, 1)

    def brute_force(self, genus):
        trans = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        for word in itertools.product(trans, repeat=2 * genus + 3):
            prod = pants_product(word)
            if any(prod[i] == i or prod[prod[i]] != i for i in range(4)):
                continue
            part = list(range(4))

            def find(x):
                while part[x] != x:
                    x = part[x]
                return x

            for a, b in word:
                part[find(a)] = find(b)
            if len({find(i) for i in range(4)}) != 1:
                continue
            return word
        return None

    def test_matches_brute_force_small_genus(self):
        # the search meets the answer within its first 36 words
        for g in range(11):
            assert _pants_meridians(g, 0, 1, 2, 3) == self.brute_force(g), g

    def test_properties_up_to_genus_ten(self):
        witnessed = ((0, 1), (0, 2), (1, 3))
        for g in range(11):
            word = _pants_meridians(g, 0, 1, 2, 3)
            prod = pants_product(word)
            assert len(word) == 2 * g + 3
            assert word <= ((0, 1),) * (2 * g) + witnessed
            assert all(prod[i] != i and prod[prod[i]] == i for i in range(4))


class TestBuildCover:
    def test_disk_alone(self):
        c = build_cover(tower(Piece("d", 1, 0, (), (1,))), 1)
        assert c.degree == 2 and c.depth == 1
        (blk,) = c.blocks
        assert blk.kind == "disk" and blk.meridians == ((0, 1),)
        assert verify_layered(c).ok

    def test_annulus_chain_keeps_degree_two(self):
        c = build_cover(chain(6, genus=1), 6)
        assert c.degree == 2
        assert all(b.sheets == (0, 1) for b in c.blocks)
        assert c.branch_count == 1 + 5 * 2
        assert verify_layered(c).ok

    def test_single_split_gives_degree_four(self):
        e = tower(
            Piece("d", 1, 0, (), (1,)),
            Piece("x", 2, 0, (1,), (2, 3)),
            Piece("u", 3, 0, (2,), (4,)),
            Piece("v", 3, 0, (3,), (5,)),
        )
        c = build_cover(e, 3)
        assert c.degree == 4
        pants = next(b for b in c.blocks if b.kind == "pants")
        assert pants.sheets == (0, 1, 2, 3) and pants.caps == (2, 3)
        assert pants.meridians == ((0, 1), (0, 2), (1, 3))
        # the two legs each continue a two-cycle pairing
        assert [cyc for _, cyc in pants.outbound] == [(0, 2), (1, 3)]
        assert verify_layered(c).ok

    def test_pants_with_genus(self):
        e = tower(
            Piece("d", 1, 0, (), (1,)),
            Piece("x", 2, 2, (1,), (2, 3)),
            Piece("u", 3, 0, (2,), (4,)),
            Piece("v", 3, 1, (3,), (5,)),
        )
        c = build_cover(e, 3)
        pants = next(b for b in c.blocks if b.kind == "pants")
        assert len(pants.meridians) == 2 * 2 + 3
        assert verify_layered(c).ok

    def test_degree_tracks_end_count(self):
        e = normalize(
            tower(
                Piece("d", 1, 0, (), (1,)),
                Piece("x", 2, 0, (1,), (2, 3, 4, 5)),
            )
        )
        J = e.stable_depth
        c = build_cover(e, J)
        assert c.degree == 2 * count_ends(e, J).ends
        assert verify_layered(c).ok

    def test_truncation_shallower_than_graph(self):
        c = build_cover(chain(8), 3)
        assert c.depth == 3 and len(c.blocks) == 3
        assert verify_layered(c).ok

    def test_not_normalized_rejected(self):
        e = tower(
            Piece("d", 1, 0, (), (1,)),
            Piece("x", 2, 0, (1,), (2, 3, 4)),
        )
        with pytest.raises(NotNormalized):
            build_cover(e, 2)
        with pytest.raises(NotNormalized):
            build_cover(chain(3), 7)

    def test_nonorientable_rejected(self):
        e = tower(Piece("d", 1, 0, (), (1,), orientable=False))
        with pytest.raises(NonorientableInput):
            build_cover(e, 1)

    def test_invalid_rejected(self):
        e = tower(Piece("a", 1, 0, (), (1,)), Piece("b", 1, 0, (), (2,)))
        with pytest.raises(InvalidInput):
            build_cover(e, 1)
        with pytest.raises(ValueError):
            build_cover(chain(3), 0)

    def test_chi_two_ways(self):
        e = normalize(
            tower(
                Piece("d", 1, 0, (), (1,)),
                Piece("x", 2, 1, (1,), (2, 3)),
                Piece("y", 3, 0, (2,), (4,)),
                Piece("z", 3, 2, (3,), (5, 6)),
                Piece("p", 4, 0, (4,), (7,)),
                Piece("q", 4, 0, (5,), (8,)),
                Piece("r", 4, 0, (6,), (9,)),
            )
        )
        c = build_cover(e, e.stable_depth)
        assert verify_layered(c).ok
        assert sum(1 for b in c.blocks if b.kind == "pants") == 2
        assert c.degree == 6


class TestStaircase:
    def test_small_staircase(self):
        c = staircase(3)
        assert c.degree == 4 and c.depth == 3
        assert [b.meridians for b in c.blocks] == [((0, 1),), ((1, 2),), ((2, 3),)]
        assert c.blocks[2].sheets == (0, 1, 2, 3) and c.blocks[2].caps == (3,)
        assert verify_layered(c).ok

    def test_outbound_is_full_cycle(self):
        c = staircase(5)
        for b in c.blocks:
            (circle, cyc) = b.outbound[0]
            assert circle == b.level
            assert len(cyc) == b.level + 1
            assert set(cyc) == set(b.sheets)

    def test_restriction_compatible_all_levels(self):
        c = staircase(12)
        assert all(restriction_compatibility(c, i) for i in range(1, 12))

    def test_depth_exceeded(self):
        c = staircase(4)
        with pytest.raises(DepthExceeded):
            restriction_compatibility(c, 4)
        with pytest.raises(ValueError):
            restriction_compatibility(c, 0)

    def test_corrupted_meridian_detected(self):
        c = staircase(6)
        bad_block = replace(c.blocks[3], meridians=((0, 3),))
        bad = replace(c, blocks=c.blocks[:3] + (bad_block,) + c.blocks[4:])
        assert not verify_layered(bad).ok
        assert not restriction_compatibility(bad, 3)
        # untouched lower levels still restrict fine
        assert restriction_compatibility(bad, 1)

    def test_bad_depth_argument(self):
        with pytest.raises(ValueError):
            staircase(0)


class TestVerifyLayered:
    def cover(self):
        e = tower(
            Piece("d", 1, 0, (), (1,)),
            Piece("x", 2, 0, (1,), (2, 3)),
            Piece("u", 3, 0, (2,), (4,)),
            Piece("v", 3, 0, (3,), (5,)),
        )
        return build_cover(e, 3)

    def test_report_lines_all_pass(self):
        rep = verify_layered(self.cover())
        names = [name for name, _, _ in rep.checks]
        assert names == [
            "structure",
            "gluing",
            "relations",
            "simple-branching",
            "pants-transitivity",
            "fiber-count",
            "chi",
            "ends-bound",
        ]
        assert rep.ok and rep.failures == ()

    def test_detects_relation_break(self):
        c = self.cover()
        i = next(k for k, b in enumerate(c.blocks) if b.kind == "pants")
        bad_block = replace(c.blocks[i], meridians=((0, 1), (0, 2), (1, 2)))
        bad = replace(c, blocks=c.blocks[:i] + (bad_block,) + c.blocks[i + 1 :])
        rep = verify_layered(bad)
        assert "relations" in rep.failures

    def test_detects_label_reuse(self):
        c = self.cover()
        i = next(k for k, b in enumerate(c.blocks) if b.kind == "pants")
        bad_block = replace(c.blocks[i], labels=((1, 1),) * 3)
        bad = replace(c, blocks=c.blocks[:i] + (bad_block,) + c.blocks[i + 1 :])
        assert "simple-branching" in verify_layered(bad).failures

    def test_detects_degree_mismatch(self):
        bad = replace(self.cover(), degree=6)
        assert "fiber-count" in verify_layered(bad).failures

    def test_detects_gluing_break(self):
        c = self.cover()
        i = next(k for k, b in enumerate(c.blocks) if b.level == 3)
        bad_block = replace(c.blocks[i], inbound=(0, 3))
        bad = replace(c, blocks=c.blocks[:i] + (bad_block,) + c.blocks[i + 1 :])
        assert "gluing" in verify_layered(bad).failures


class TestCompose:
    def test_fiber_count_growth(self):
        c = build_cover(chain(4), 4)
        rep = compose_with_staircase(c, 10)
        assert rep.cover_degree == 2
        assert rep.fiber_count == 2 * 11
        assert rep.potentially_nonsimple and rep.unbounded_in_depth
        assert ("staircase", 10, 1) in rep.labels
        assert ("cover", 1, 1) in rep.labels

    def test_depth_zero_is_plain_cover(self):
        c = build_cover(chain(2), 2)
        rep = compose_with_staircase(c, 0)
        assert rep.fiber_count == c.degree
        assert all(lab[0] == "cover" for lab in rep.labels)

    def test_unverified_input_rejected(self):
        c = staircase(4)
        bad_block = replace(c.blocks[2], meridians=((0, 2),))
        bad = replace(c, blocks=c.blocks[:2] + (bad_block,) + c.blocks[3:])
        with pytest.raises(UnverifiedInput):
            compose_with_staircase(bad, 3)
        with pytest.raises(ValueError):
            compose_with_staircase(c, -1)


class TestPipeline:
    def test_normalized_random_graphs_build_and_verify(self):
        for seed in range(25):
            g = random_exhaustion(random.Random(55_000 + seed))
            n = normalize(g)
            J = n.stable_depth
            c = build_cover(n, J)
            rep = verify_layered(c)
            assert rep.ok, (seed, rep.failures)
            ec = count_ends(n, J)
            assert c.degree == 2 * ec.ends, seed
            pants = sum(b.kind == "pants" for b in c.blocks)
            assert 1 + pants == ec.ends, seed
            assert 1 + pants <= c.degree, seed

    def test_chi_agreement_with_exhaustion(self):
        # blockwise chi equals degree - branching; independently, the
        # cover doubles each piece chi and subtracts one per branch point
        for seed in range(10):
            g = random_exhaustion(random.Random(91_000 + seed))
            n = normalize(g)
            c = build_cover(n, n.stable_depth)
            total = c.degree - c.branch_count
            base = total_chi(n)
            # each end contributes one boundary circle on the frontier;
            # cover chi = 2 * base chi only when every piece is hit, so
            # just re-check the verifier's identity here
            assert verify_layered(c).ok, seed
            assert total == sum(
                (len(b.sheets) - len(b.meridians)) if b.level == 1 else (len(b.caps) - len(b.meridians))
                for b in c.blocks
            ), (seed, base)


# --- the level index against the quadratic reference checkers ---


def _lower_sheet(c, b, rng):
    """A sheet of some block below b that b does not list, or None."""
    lower = sorted({s for o in c.blocks if o.level < b.level for s in o.sheets} - set(b.sheets))
    return rng.choice(lower) if lower else None


def _mutate(c, rng):
    """One structural corruption of the kinds a hand-edited document
    carries, or its blocks out of level order. Never repeats a sheet
    inside one block."""
    blocks = list(c.blocks)
    kind = rng.choice(
        ["cap", "cap-rename", "sheet", "drop", "duplicate", "shift", "inbound", "meridian", "depth", "shuffle"]
    )
    k = rng.randrange(len(blocks))
    b = blocks[k]
    if kind in ("cap", "cap-rename") and b.caps:
        t = _lower_sheet(c, b, rng)
        if t is not None:
            s = rng.choice(b.caps)
            if kind == "cap":
                blocks[k] = replace(b, caps=tuple(t if x == s else x for x in b.caps))
            else:
                swap = {s: t}
                blocks[k] = replace(
                    b,
                    sheets=tuple(swap.get(x, x) for x in b.sheets),
                    caps=tuple(swap.get(x, x) for x in b.caps),
                    meridians=tuple(tuple(swap.get(x, x) for x in m) for m in b.meridians),
                    outbound=tuple(
                        (circle, tuple(swap.get(x, x) for x in cyc)) for circle, cyc in b.outbound
                    ),
                )
    elif kind == "sheet":
        extra = max(b.sheets, default=0) + rng.randint(1, 3)
        blocks[k] = replace(
            b, sheets=b.sheets + (extra,), caps=b.caps + (extra,) * rng.randint(0, 1)
        )
    elif kind == "drop" and len(blocks) > 1:
        del blocks[k]
    elif kind == "duplicate":
        copy = replace(b, level=b.level - rng.choice((0, 0, 1, 2, 3)))
        blocks.insert(rng.randrange(len(blocks) + 1), copy)
    elif kind == "shift":
        blocks[k] = replace(b, level=b.level + rng.choice((-3, -2, -1, 1, 2)))
    elif kind == "inbound":
        if b.inbound is None or rng.random() < 0.2:
            new = None if b.inbound is not None else (0, 1)
        else:
            new = list(b.inbound)
            new[rng.randrange(len(new))] = rng.randrange(c.degree + 2)
            rng.shuffle(new)
            new = tuple(new)
        blocks[k] = replace(b, inbound=new)
    elif kind == "meridian" and b.meridians:
        ms = list(b.meridians)
        ms[rng.randrange(len(ms))] = (rng.randrange(c.degree + 2), rng.randrange(c.degree + 2))
        blocks[k] = replace(b, meridians=tuple(ms))
    elif kind == "depth":
        return replace(c, depth=c.depth + rng.choice((-2, -1, 1, 2)))
    elif kind == "shuffle":
        rng.shuffle(blocks)
    return replace(c, blocks=tuple(blocks))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DepthExceeded, ValueError) as exc:
        return type(exc)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_level_index_agrees_with_quadratic_reference(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    if data.draw(st.booleans(), label="staircase"):
        c = staircase(data.draw(st.integers(1, 12), label="levels"))
    else:
        n = normalize(random_exhaustion(rng, max_levels=5, max_pieces=3))
        c = build_cover(n, rng.randint(1, n.stable_depth))
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        c = _mutate(c, rng)
    assert verify_layered(c).checks == quadratic_verify_layered(c)
    for i in range(-1, c.depth + 3):
        got = _outcome(restriction_compatibility, c, i)
        assert got == _outcome(quadratic_restriction_compatibility, c, i), i


def test_level_index_is_built_once_and_shared():
    c = staircase(6)
    assert verify_layered(c).ok
    index = c.index
    assert all(restriction_compatibility(c, i) for i in range(1, 6))
    assert c.index is index
    assert index.levels == {j: (j - 1,) for j in range(1, 7)}
    assert index.first_level == {0: 1, 1: 1, **{s: s for s in range(2, 7)}}
    assert index.relations == (None,) * 6
    assert c.at_level(3) == (c.blocks[2],) and c.at_level(9) == ()


def test_staircase_800_restriction_sweep_is_linear():
    c = staircase(800)
    assert verify_layered(c).ok
    start = time.perf_counter()
    assert all(restriction_compatibility(c, i) for i in range(1, 800))
    # the sweep that rebuilt the lower sheets per level took about 2 s on
    # a 2-core Xeon; over the level index it takes about 0.01 s
    assert time.perf_counter() - start < 1.0


# --- one block's relation against the quadratic reference ---


def _quadratic_relation(b):
    """The verdict of quadratic_verify_layered on one block."""
    perm = _quadratic_word_perm(b.sheets, b.inbound, b.meridians)
    want = {cyc for _, cyc in b.outbound}
    if perm is None:
        return "inbound cycle or a meridian is not a cycle on its sheets"
    if set(_quadratic_perm_cycles(perm)) != want:
        return "boundary product disagrees with outbound cycles"
    if {s for cyc in want for s in cyc} != set(b.sheets):
        return "outbound cycles miss some sheets"
    return None


def _random_block(rng):
    """A block with a few sheets whose outbound cycles are the true
    product's, perturbed now and then: a rotated, reversed, dropped or
    duplicated cycle, an empty or 1-cycle, a foreign or repeated sheet.
    Its sheets, inbound cycle and meridians sometimes repeat a sheet,
    and the last two sometimes leave the block's sheets."""
    sheets = rng.sample(range(8), rng.randint(1, 6))
    if rng.random() < 0.05:
        sheets.insert(rng.randrange(len(sheets) + 1), rng.choice(sheets))
    pool = sheets + [8] * (rng.random() < 0.1)
    inbound = None
    if rng.random() < 0.8:
        inbound = rng.sample(sheets, rng.randint(0, len(sheets)))
        if inbound and rng.random() < 0.05:
            inbound.append(rng.choice(inbound))
        if rng.random() < 0.05:
            inbound.append(8)
        inbound = tuple(inbound)
    meridians = tuple(
        (rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 4))
    )
    if rng.random() < 0.03:
        meridians += ((rng.choice(sheets),),)
    perm = _quadratic_word_perm(tuple(sheets), inbound, meridians)
    cycles = list(_quadratic_perm_cycles(perm or {s: s for s in sheets}))
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        kind = rng.choice(
            ["rotate", "drop", "duplicate", "fixed", "empty", "foreign", "repeat", "reverse"]
        )
        k = rng.randrange(len(cycles)) if cycles else None
        if kind == "rotate" and k is not None:
            r = rng.randint(1, max(1, len(cycles[k]) - 1))
            cycles[k] = cycles[k][r:] + cycles[k][:r]
        elif kind == "drop" and k is not None:
            del cycles[k]
        elif kind == "duplicate" and k is not None:
            cycles.append(cycles[k])
        elif kind == "fixed":
            cycles.append((rng.choice(sheets),))
        elif kind == "empty":
            cycles.append(())
        elif kind == "foreign":
            cycles.append(tuple(sorted(rng.sample(range(10), 2))))
        elif kind == "repeat" and k is not None:
            cycles[k] = cycles[k] * 2
        elif kind == "reverse" and k is not None:
            cycles[k] = cycles[k][:1] + cycles[k][:0:-1]
    rng.shuffle(cycles)
    return Block(
        "x", 2, "pants", tuple(sheets), (), inbound, meridians, (),
        tuple(enumerate(cycles)), "p", 1,
    )


def test_relation_verdicts_agree_with_quadratic_reference():
    rng = random.Random(20261019)
    seen = set()
    repeated = set()
    for _ in range(6000):
        b = _random_block(rng)
        verdict = _quadratic_relation(b)
        assert _relation_problem(b) == verdict, b
        seen.add(verdict)
        if len(set(b.sheets)) < len(b.sheets):
            repeated.add(verdict)
    # blocks that repeat a sheet reach a verdict of each kind too
    assert repeated == seen == {
        None,
        "inbound cycle or a meridian is not a cycle on its sheets",
        "boundary product disagrees with outbound cycles",
        "outbound cycles miss some sheets",
    }
