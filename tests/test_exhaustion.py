import gc
import math
import random
import time
from itertools import count

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from coverbench.errors import STEP_BUDGET, InvalidInput, LimitExceeded, NotNormalized
from coverbench.exhaustion import (
    EndCount,
    ExhaustionGraph,
    _Normalizer,
    Piece,
    count_ends,
    is_normalized_through,
    normalize,
    piece_chi,
    piece_shape,
    total_chi,
    validate_exhaustion,
)
from oracles import frontier_circles, quadratic_normalize


def graph(*pieces):
    return ExhaustionGraph(tuple(pieces))


class TestValidation:
    def test_disk_alone_is_valid(self):
        g = graph(Piece("d", 1, 0, (), (0,)))
        assert validate_exhaustion(g).ok

    def test_two_level_one_pieces(self):
        g = graph(Piece("a", 1, 0, (), (0,)), Piece("b", 1, 0, (), (1,)))
        rep = validate_exhaustion(g)
        assert not rep.ok
        assert any("level-1" in p for p in rep.problems)

    def test_piece_without_outer_boundary(self):
        g = graph(Piece("d", 1, 0, (), (0,)), Piece("x", 2, 0, (0,), ()))
        rep = validate_exhaustion(g)
        assert not rep.ok
        assert any("no outer boundary" in p for p in rep.problems)

    def test_unglued_circle_below_frontier(self):
        # circle 1 at level 1 never referenced although depth is 2
        g = graph(
            Piece("d", 1, 0, (), (0, 1)),
            Piece("x", 2, 0, (0,), (2,)),
        )
        rep = validate_exhaustion(g)
        assert not rep.ok
        assert any("unglued" in p for p in rep.problems)

    def test_double_gluing_rejected(self):
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 0, (0,), (1,)),
            Piece("y", 2, 0, (0,), (2,)),
        )
        rep = validate_exhaustion(g)
        assert not rep.ok
        assert any("glued twice" in p for p in rep.problems)

    def test_double_owner_and_wrong_level_reported_once_each(self):
        # circle 5 is owned at levels 2 and 3; the later owner is the one
        # c's reference is checked against
        g = graph(
            Piece("d", 1, 0, (), (0, 1)),
            Piece("a", 2, 0, (0,), (5,)),
            Piece("e", 2, 0, (1,), (6,)),
            Piece("b", 3, 0, (6,), (5,)),
            Piece("c", 3, 0, (5,), (7,)),
        )
        assert validate_exhaustion(g).problems == [
            "circle 5 owned by both 'a' and 'b'",
            "piece 'c' at level 3 references circle 5 at level 3",
        ]

    def test_level_gap_rejected(self):
        g = graph(Piece("d", 1, 0, (), (0,)), Piece("x", 3, 0, (0,), (1,)))
        rep = validate_exhaustion(g)
        assert not rep.ok

    def test_nonorientable_piece_rejected(self):
        g = graph(Piece("d", 1, 0, (), (0,), orientable=False))
        rep = validate_exhaustion(g)
        assert not rep.ok
        assert any("nonorientable" in p for p in rep.problems)

    def test_level2_piece_missing_inner(self):
        g = graph(Piece("d", 1, 0, (), (0,)), Piece("x", 2, 0, (), (1,)))
        rep = validate_exhaustion(g)
        assert not rep.ok


class TestChiBookkeeping:
    def test_piece_chi(self):
        assert piece_chi(Piece("d", 1, 0, (), (0,))) == 1
        assert piece_chi(Piece("x", 2, 0, (0,), (1,))) == 0
        assert piece_chi(Piece("x", 2, 0, (0,), (1, 2))) == -1
        assert piece_chi(Piece("x", 2, 1, (0,), (1,))) == -2

    def test_shape_labels(self):
        assert piece_shape(Piece("d", 1, 0, (), (0,))) == "disk"
        assert piece_shape(Piece("x", 2, 3, (0,), (1,))) == "a"
        assert piece_shape(Piece("x", 2, 0, (0,), (1, 2))) == "b"
        assert piece_shape(Piece("x", 2, 0, (0,), (1, 2, 3))) == "other"
        assert piece_shape(Piece("d", 1, 1, (), (0,))) == "other"


class TestPantsSplit:
    def test_three_legged_piece_splits(self):
        # one wide piece over the disk: chi -2 must land as -1 + -1
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 0, (0,), (1, 2, 3)),
        )
        n = normalize(g)
        assert total_chi(n) == total_chi(g) == -1
        assert is_normalized_through(n, n.depth)
        assert n.stable_depth == n.depth
        x = next(p for p in n.pieces if p.id == "x")
        assert piece_shape(x) == "b" and piece_chi(x) == -1
        pants = [p for p in n.pieces if p.level >= 2 and piece_shape(p) == "b"]
        assert len(pants) == 2
        assert all(piece_chi(p) == -1 for p in pants if p.genus == 0)
        assert len(frontier_circles(n)) == len(frontier_circles(g)) == 3

    def test_split_repoints_upper_piece(self):
        # the wide piece is mid-tower; the annulus above must follow
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 0, (0,), (1, 2, 3)),
            Piece("u", 3, 0, (1,), (4,)),
            Piece("v", 3, 0, (2,), (5,)),
            Piece("w", 3, 0, (3,), (6,)),
        )
        n = normalize(g)
        assert validate_exhaustion(n).ok
        assert total_chi(n) == total_chi(g)
        assert is_normalized_through(n, n.depth)
        assert len(frontier_circles(n)) == 3

    def test_four_legs_need_two_splits(self):
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 0, (0,), (1, 2, 3, 4)),
        )
        n = normalize(g)
        assert total_chi(n) == total_chi(g) == -2
        assert is_normalized_through(n, n.depth)
        twos = [p for p in n.pieces if p.level >= 2 and piece_shape(p) == "b"]
        assert len(twos) == 3
        assert len(frontier_circles(n)) == 4


class TestTubeJoin:
    def test_join_through_single_piece(self):
        # two legs of x rejoin inside one deeper piece: x gains a handle,
        # the deeper piece gains chi + 1
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 0, (0,), (1, 2)),
            Piece("t", 3, 0, (1, 2), (7,)),
        )
        n = normalize(g)
        x = next(p for p in n.pieces if p.id == "x")
        t = next(p for p in n.pieces if p.id == "t")
        assert x.genus == 1 and piece_shape(x) == "a"
        assert piece_chi(x) == -2
        assert t.genus == 0 and piece_shape(t) == "a"
        assert piece_chi(t) == 0
        assert total_chi(n) == total_chi(g) == -1
        assert validate_exhaustion(n).ok

    def test_join_through_three_piece_path(self):
        # legs of x climb separately and rejoin two levels up: the two
        # level-3 pieces merge and the handle lands on x
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 0, (0,), (1, 2)),
            Piece("a", 3, 0, (1,), (3,)),
            Piece("b", 3, 0, (2,), (4,)),
            Piece("t", 4, 0, (3, 4), (5,)),
        )
        assert total_chi(g) == -1
        n = normalize(g)
        assert total_chi(n) == -1
        assert validate_exhaustion(n).ok
        assert is_normalized_through(n, n.depth)
        x = next(p for p in n.pieces if p.id == "x")
        assert x.genus == 1
        # the two branch pieces collapsed into one
        assert sum(1 for p in n.pieces if p.level == 3) == 1
        merged = next(p for p in n.pieces if p.level == 3)
        assert merged.id == "a" and merged.genus == 0
        t = next(p for p in n.pieces if p.id == "t")
        assert piece_chi(t) == 0
        assert len(frontier_circles(n)) == 1
        assert count_ends(n, n.depth).ends == 1

    def test_join_between_distinct_owners(self):
        # despite the name, a join never meets two owners: here t ties two
        # circles of the one level-2 owner x together, so the level-2 join
        # is a handle on x, and the tube's pieces p and q merge (x's split
        # into pants comes after its joins)
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 0, (0,), (1, 2, 3)),
            Piece("p", 3, 0, (1,), (4,)),
            Piece("q", 3, 0, (2,), (5,)),
            Piece("r", 3, 0, (3,), (6,)),
            Piece("t", 4, 0, (4, 5), (7,)),
            Piece("s", 4, 0, (6,), (8,)),
        )
        n = normalize(g)
        assert validate_exhaustion(n).ok
        assert total_chi(n) == total_chi(g)
        assert is_normalized_through(n, n.depth)
        assert len(frontier_circles(n)) == len(frontier_circles(g)) == 2

    def test_genus_is_conserved_through_merges(self):
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 2, (0,), (1, 2)),
            Piece("a", 3, 1, (1,), (3,)),
            Piece("b", 3, 3, (2,), (4,)),
            Piece("t", 4, 0, (3, 4), (5,)),
        )
        n = normalize(g)
        assert total_chi(n) == total_chi(g)
        assert sum(p.genus for p in n.pieces) == 2 + 1 + 3 + 1  # handle from the join


class TestNormalizeGeneral:
    def test_wide_root_gets_disk_inserted(self):
        g = graph(Piece("big", 1, 2, (), (0, 1)))
        n = normalize(g)
        assert validate_exhaustion(n).ok
        assert total_chi(n) == total_chi(g) == -4
        assert is_normalized_through(n, n.depth)
        root = n.at_level(1)[0]
        assert piece_shape(root) == "disk"
        assert root.id.startswith("+")

    def test_invalid_input_raises(self):
        g = graph(Piece("a", 1, 0, (), (0,)), Piece("b", 1, 0, (), (1,)))
        with pytest.raises(InvalidInput):
            normalize(g)

    def test_idempotent_on_annulus_chain(self):
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 1, (0,), (1,)),
            Piece("y", 3, 0, (1,), (2,)),
        )
        n = normalize(g)
        assert n.pieces == g.pieces
        again = normalize(n)
        assert again.pieces == n.pieces
        assert again.stable_depth == n.stable_depth


class TestEndCounting:
    def chain(self):
        return ExhaustionGraph(
            (
                Piece("d", 1, 0, (), (0,)),
                Piece("x", 2, 0, (0,), (1, 2)),
                Piece("y", 3, 0, (1,), (3,)),
                Piece("z", 3, 0, (2,), (4,)),
            )
        )

    def test_lower_bound_without_supplier(self):
        ec = count_ends(self.chain(), 3)
        assert ec == EndCount(ends=2, exact=False, infinite=False)

    def test_exact_with_certifying_supplier(self):
        ec = count_ends(self.chain(), 3, remaining=0)
        assert ec == EndCount(ends=2, exact=True, infinite=False)

    def test_infinite_flag(self):
        ec = count_ends(self.chain(), 3, remaining=math.inf)
        assert ec.infinite and not ec.exact and ec.ends == 2

    def test_pieces_beyond_the_truncation_add_one_end_each(self):
        ec = count_ends(self.chain(), 3, remaining=3)
        assert ec == EndCount(ends=5, exact=True, infinite=False)
        with pytest.raises(ValueError):
            count_ends(self.chain(), 3, remaining=-1)

    def test_truncating_below_a_split_sees_fewer_ends(self):
        assert count_ends(self.chain(), 2).ends == 2
        g = ExhaustionGraph(
            (
                Piece("d", 1, 0, (), (0,)),
                Piece("x", 2, 0, (0,), (1,)),
                Piece("y", 3, 0, (1,), (2, 3)),
                Piece("u", 4, 0, (2,), (4,)),
                Piece("v", 4, 0, (3,), (5,)),
            )
        )
        assert count_ends(g, 2).ends == 1
        assert count_ends(g, 4).ends == 2

    def test_not_normalized_raises(self):
        g = graph(
            Piece("d", 1, 0, (), (0,)),
            Piece("x", 2, 0, (0,), (1, 2, 3)),
        )
        with pytest.raises(NotNormalized):
            count_ends(g, 2)

    def test_deeper_than_truncation_raises(self):
        with pytest.raises(NotNormalized):
            count_ends(self.chain(), 9)

    def test_bad_level_raises(self):
        with pytest.raises(ValueError):
            count_ends(self.chain(), 0)


def random_exhaustion(rng: random.Random, max_levels=8, max_pieces=5) -> ExhaustionGraph:
    """Valid by construction: every lower outer circle is referenced by
    exactly one piece one level up, every piece keeps an outer circle."""
    circles = count()
    root_outer = tuple(next(circles) for _ in range(rng.randint(1, 3)))
    pieces = [Piece("r", 1, rng.randint(0, 2), (), root_outer)]
    prev = list(root_outer)
    names = count(1)
    for level in range(2, rng.randint(1, max_levels) + 1):
        rng.shuffle(prev)
        k = rng.randint(1, min(max_pieces, len(prev)))
        cuts = sorted(rng.sample(range(1, len(prev)), k - 1)) if k > 1 else []
        groups = [
            prev[a:b] for a, b in zip([0] + cuts, cuts + [len(prev)])
        ]
        nxt: list[int] = []
        for grp in groups:
            outs = tuple(next(circles) for _ in range(rng.randint(1, 3)))
            nxt.extend(outs)
            pieces.append(
                Piece(f"p{next(names)}", level, rng.randint(0, 2), tuple(grp), outs)
            )
        prev = nxt
    return ExhaustionGraph(tuple(pieces))


class TestRandomizedNormalization:
    def test_generator_emits_valid_graphs(self):
        for seed in range(40):
            g = random_exhaustion(random.Random(seed))
            assert validate_exhaustion(g).ok, seed

    def test_level_index_matches_a_scan(self):
        for seed in range(20):
            g = random_exhaustion(random.Random(seed))
            for graph in (g, normalize(g)):
                for j in range(0, graph.depth + 2):
                    scan = tuple(p for p in graph.pieces if p.level == j)
                    assert graph.at_level(j) == scan, (seed, j)
                assert graph.at_level(1) is graph.at_level(1)

    def test_normal_form_chi_ends_and_idempotence(self):
        for seed in range(50):
            rng = random.Random(10_000 + seed)
            g = random_exhaustion(rng)
            n = normalize(g)
            assert validate_exhaustion(n).ok, seed
            assert is_normalized_through(n, n.stable_depth), seed
            assert n.stable_depth == n.depth, seed
            assert total_chi(n) == total_chi(g), seed
            assert len(frontier_circles(n)) == len(frontier_circles(g)), seed
            again = normalize(n)
            assert again.pieces == n.pieces, seed

    def test_end_count_matches_frontier_on_closed_graphs(self):
        # with nothing known beyond the truncation, its frontier realizes the count
        for seed in range(30):
            g = random_exhaustion(random.Random(77_000 + seed))
            n = normalize(g)
            ec = count_ends(n, n.stable_depth)
            assert ec.ends == len(frontier_circles(n)), seed


# --- normalize against the quadratic reference sweep ---


def fan(rng: random.Random, ends: int) -> ExhaustionGraph:
    """One level-1 piece with `ends` outer circles."""
    return graph(Piece("f", 1, 0, (), tuple(rng.sample(range(1, 100 * ends), ends))))


def ring_ladder(rng: random.Random, width: int, depth: int) -> ExhaustionGraph:
    """A level-1 root under a ring of `width` pieces per level. From
    level 3 on, piece i glues to the right circle of piece i and the left
    circle of piece i + 1 (mod width) below, so every level closes cycles
    that normalization must tube."""
    circles = iter(rng.sample(range(1, 100 * width * depth), width * (2 * depth - 1)))
    names = iter(f"l{k}" for k in rng.sample(range(1000 * width * depth), width * depth))
    root_out = tuple(next(circles) for _ in range(width))
    pieces = [Piece(next(names), 1, 0, (), root_out)]
    below = []
    for c in root_out:
        out = (next(circles), next(circles))
        pieces.append(Piece(next(names), 2, 0, (c,), out))
        below.append(out)
    for level in range(3, depth + 1):
        current = []
        for i in range(width):
            out = (next(circles), next(circles))
            inner = (below[i][1], below[(i + 1) % width][0])
            pieces.append(Piece(next(names), level, rng.randint(0, 1), inner, out))
            current.append(out)
        below = current
    return graph(*pieces)


def relabelled(rng: random.Random, g: ExhaustionGraph, fresh_style_ids: bool) -> ExhaustionGraph:
    """The same graph with its circles renumbered at random, so circle
    order no longer follows level and piece order. With fresh_style_ids
    the pieces take the names normalize gives the pieces it makes (+d1,
    +p2, +a3, ...), so those names collide."""
    circles = sorted({c for p in g.pieces for c in p.outer})
    renumber = dict(zip(circles, rng.sample(range(1, 10 * len(circles) + 1), len(circles))))
    names = [p.id for p in g.pieces]
    if fresh_style_ids:
        pool = [f"+{tag}{k}" for tag in "dpa" for k in range(1, 3 * len(names) + 4)]
        names = rng.sample(pool, len(names))
    return graph(*(
        Piece(
            name,
            p.level,
            p.genus,
            tuple(renumber[c] for c in p.inner),
            tuple(renumber[c] for c in p.outer),
        )
        for name, p in zip(names, g.pieces)
    ))


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normalize_agrees_with_quadratic_reference(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    kind = data.draw(st.sampled_from(["random", "fan", "ladder"]), label="kind")
    if kind == "random":
        g = random_exhaustion(rng)
    elif kind == "fan":
        g = fan(rng, data.draw(st.integers(1, 12), label="ends"))
    else:
        # up to 8 wide and deep, so that joins span several levels
        width = data.draw(st.integers(2, 8), label="width")
        g = ring_ladder(rng, width, data.draw(st.integers(2, 8), label="depth"))
    relabel = data.draw(st.sampled_from(["none", "circles", "circles and ids"]), label="relabel")
    if relabel != "none":
        g = relabelled(rng, g, fresh_style_ids=relabel == "circles and ids")
    got, want = normalize(g), quadratic_normalize(g)
    assert got.pieces == want.pieces
    assert got.stable_depth == want.stable_depth
    # the admission's bound on the output holds
    assert len(got.pieces) <= len(g.pieces) + _Normalizer(g).made


def test_normalize_scales_with_its_output():
    # the reference sweep, which rebuilds its circle maps and a union-find
    # over every piece at each level and join, takes about 15 s on the fan
    # and 4.6 s on the 40 x 40 ladder on a 2-core Xeon; with live maps and
    # the level index, about 0.5 s and 0.2 s. The 200 x 100 ladder takes
    # 2.6 s, and 15.9 s when each level's circles are grouped by a pass
    # over the graph above it and each join searches from one end (10 to
    # 15 s with the one-pass grouping but searches from one end)
    rng = random.Random(5)
    for g, pieces_out, bound in (
        (fan(rng, 320), 51041, 10.0),
        (ring_ladder(rng, 40, 40), 859, 3.0),
        (ring_ladder(rng, 200, 100), 20199, 8.0),
    ):
        start = time.perf_counter()
        n = normalize(g)
        assert time.perf_counter() - start < bound
        assert len(n.pieces) == pieces_out


def test_normalize_is_priced_before_it_runs(monkeypatch):
    # the 633-way fan's pass-through rings make 200,029 pieces, over the
    # step budget; the input alone is priced before it is validated
    def swept(self):
        raise AssertionError("swept before admission")

    monkeypatch.setattr(_Normalizer, "run", swept)
    with pytest.raises(LimitExceeded, match="normalizing 1 pieces into at most 200029"):
        normalize(fan(random.Random(1), 633))
    with pytest.raises(AssertionError, match="swept"):
        normalize(fan(random.Random(1), 632))
    # a join's search is priced by the levels above it, so a shallow wide
    # ladder (400 x 30 normalizes in 2.4 to 3.2 s as a whole run) is admitted
    with pytest.raises(AssertionError, match="swept"):
        normalize(ring_ladder(random.Random(1), 400, 30))
    monkeypatch.setattr("coverbench.exhaustion._PIECE_STEPS", STEP_BUDGET)
    with pytest.raises(LimitExceeded, match="normalizing 2 pieces would take more"):
        normalize(graph(Piece("a", 1, 0, (), (1,)), Piece("b", 1, 0, (), (2,))))


def test_normalize_leaves_nothing_to_the_cycle_collector():
    # the CLI runs few collections, so the sweep's working copy, whose
    # pieces and levels point at each other, is freed by reference counts
    rng = random.Random(2)
    graphs = ring_ladder(rng, 6, 6), fan(rng, 9)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for g in graphs:
            normalize(g)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
