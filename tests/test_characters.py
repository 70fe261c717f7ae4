"""Exact census counts from the characters of S_d, against brute force,
the census's enumeration, closed forms and the benchmark's records."""
from __future__ import annotations

import importlib.util
import sys
from math import factorial, prod
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, seed, settings

from coverbench.census import enumerate_covers
from coverbench.characters import (
    _elementary,
    _fixed,
    _free_homs,
    _irreducibles,
    _key,
    _partitions,
    _power,
    _power_sums,
    _quotients,
    class_counts,
    connected_count,
    raw_counts,
)
from coverbench.cli import parse_base
from coverbench.errors import InvalidData
from coverbench.orderly import classify_shard, enumerate_shard
from coverbench.surfaces import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    ClosedSurface,
    classify,
    euler_characteristic,
)

from oracles import (
    ORACLE_NONSIMPLE_CELLS,
    ORACLE_SIMPLE_CELLS,
    all_connected_count,
    fraction_simple_homs,
    hom_count,
    irreducibles,
    oracle_census,
    simple_class_count,
    simple_connected_count,
    simple_homs,
    simple_orientable_count,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
SWEEP_BASES = (
    SPHERE,
    TORUS,
    ClosedSurface(True, 2),
    PROJECTIVE_PLANE,
    KLEIN_BOTTLE,
    ClosedSurface(False, 3),
)


def _generators(base: ClosedSurface) -> int:
    return 2 * base.genus if base.orientable else base.genus


@pytest.mark.parametrize("d", range(0, 9))
def test_irreducibles_sum_of_squares_and_contents(d):
    irreps = irreducibles(d)
    assert [(f, h) for f, h, _ in irreps] == list(_irreducibles(d))
    assert sum(f * f for f, _, _ in irreps) == factorial(d)
    assert all(f * h == factorial(d) for f, h, _ in irreps)
    # transposing a partition negates its content sum; the sign
    # character's central value is -C(d, 2)
    assert sorted(c for _, _, c in irreps) == sorted(-c for _, _, c in irreps)
    assert min(c for _, _, c in irreps) == -d * (d - 1) // 2


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.integers(-100, 2), st.integers(0, 14), st.integers(0, 40))
@example(2, 14, 40)
@example(2, 7, 3)
@example(-100, 14, 40)
def test_integer_character_sums_equal_the_fraction_formula(chi, d, b):
    # the simple keys c(lambda) with their integer terms
    # a = f^2 h^(2 - chi), summed against c^b, are d! times Frobenius'
    # formula in Fractions, and so is the oracle's integer sum; odd b
    # gives 0 every way
    keys = _free_homs(chi, d, 1)
    assert all(type(a) is int for a in keys.values())
    assert sorted(keys) == sorted({c for _, _, c in irreducibles(d)})
    count = fraction_simple_homs(chi, d, b)
    assert sum(a * c**b for c, a in keys.items()) == factorial(d) * count
    assert simple_homs(chi, d, b) == count


@pytest.fixture
def fresh_counts():
    # the counts are cached: a test that patches what they are made of
    # clears them before and after
    for cached in (_fixed, _quotients):
        cached.cache_clear()
    yield
    for cached in (_fixed, _quotients):
        cached.cache_clear()


def test_sphere_sum_with_a_remainder_names_the_cell(monkeypatch, fresh_counts):
    # the sphere's character sums are divided by d! once, as _fixed
    # divides the identity's fixed tuples by m! B^(2m - 1) = 3!: one key,
    # the content 1, Q = 1 + t, where d! times the tuples belong leaves 1/6
    monkeypatch.setattr("coverbench.characters._connected_keys", lambda chi, d, T: {_key([1], T): 1})
    with pytest.raises(InvalidData) as raised:
        raw_counts(SPHERE, 3, 2)
    assert str(raised.value) == (
        "census cell (sphere, degree 3, 2 branch points): a conjugator of cycle type 1^3 "
        "fixes 1/6 tuples of grade 2, not an integer"
    )


@pytest.mark.parametrize(
    "base,d,b,simple",
    [(*cell, True) for cell in ORACLE_SIMPLE_CELLS]
    + [(*cell, False) for cell in ORACLE_NONSIMPLE_CELLS],
)
def test_connected_count_matches_bruteforce_oracle(base, d, b, simple):
    rows = oracle_census(base, d, b, simple)
    assert connected_count(base, d, b, simple) == sum(raw for _, raw, _ in rows)


def _sweep_cells():
    for base in SWEEP_BASES:
        for simple in (True, False):
            for d in range(1, 5):
                for b in range(0, 7):
                    # the census searches one slot per generator but solves
                    # the last meridian or crosscap; o_g with b = 0 solves none
                    searched = _generators(base) + b - (b > 0 or not base.orientable)
                    if factorial(d) ** searched <= 20_000:
                        yield base, d, b, simple


@pytest.mark.parametrize("base,d,b,simple", list(_sweep_cells()))
def test_counts_match_enumeration(base, d, b, simple):
    shard = enumerate_shard(base, d, b, simple)
    assert hom_count(base, d, b, simple) == sum(shard.counts.values())
    row = classify_shard(shard)
    assert connected_count(base, d, b, simple) == sum(raw for _, raw, _ in row.realized)


def _closed_form_cells(bases):
    """Non-empty simple cells with d <= 6 and even b in 2..10 whose classes
    the engine lists quickly: at most 10^5 by the bound admission uses,
    hom_count/(d-1)!, of the 3*10^6 tuples the census sweep allows."""
    for base in bases:
        for d in range(2, 7):
            for b in range(2, 11, 2):
                tuples = hom_count(base, d, b)
                if tuples <= 3 * 10**6 and tuples // factorial(d - 1) <= 10**5:
                    if connected_count(base, d, b):
                        yield base, d, b


@pytest.mark.parametrize("base,d,b", list(_closed_form_cells(SWEEP_BASES[:3])))
def test_engine_matches_the_closed_form_row(base, d, b):
    # enumerate_covers answers these cells without the engine, so the
    # engine is checked against that answer here
    engine = classify_shard(enumerate_shard(base, d, b, True))
    assert engine == enumerate_covers(base, d, b, True)
    (row,) = engine.realized
    assert row[1:] == (connected_count(base, d, b), sum(class_counts(base, d, b)))


def _admitted_cells(bases):
    """Non-empty simple cells with d <= 6 and even b in 2..8 of at most
    3*10^7 tuples: about 5 s of enumeration over n_1..n_4."""
    for base in bases:
        for d in range(2, 7):
            for b in range(2, 9, 2):
                if hom_count(base, d, b) <= 3 * 10**7 and connected_count(base, d, b):
                    yield base, d, b


_N_H_CELLS = list(_closed_form_cells(SWEEP_BASES[3:]))
_N_H_CELLS += [
    cell for cell in _admitted_cells(SWEEP_BASES[3:] + (ClosedSurface(False, 4),))
    if cell not in _N_H_CELLS
]


@pytest.mark.parametrize("base,d,b", _N_H_CELLS)
def test_engine_matches_class_and_orientable_counts(base, d, b):
    # enumerate_covers answers these cells over n_h from the raw and class
    # counts split by orientability, orientable row first; the engine
    # classifies every class, so it checks both the split and the order
    engine = classify_shard(enumerate_shard(base, d, b, True))
    assert engine == enumerate_covers(base, d, b, True)
    assert sum(n for _, _, n in engine.realized) == sum(class_counts(base, d, b))
    orientable = [row[1:] for row in engine.realized if row[0].orientable]
    split = sum(raw_counts(base, d, b, True, True)), sum(class_counts(base, d, b, True, True))
    assert orientable == ([split] if split[0] else [])


def _engine_cells():
    """Cells over s2, torus, o2, rp2, klein, n3 and n4 with d <= 6 and
    b <= 7, simple or of any meridians, of at most 3*10^6 tuples. A simple
    cell with odd b has none by parity, but the engine would search every
    prefix of it, so it is left out."""
    for base in SWEEP_BASES + (ClosedSurface(False, 4),):
        for d in range(1, 7):
            for b in range(8):
                for simple in (True, False) if b % 2 == 0 else (False,):
                    if hom_count(base, d, b, simple) <= 3 * 10**6:
                        yield base, d, b, simple


_ENGINE_CELLS = list(_engine_cells())


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ENGINE_CELLS))
@example((PROJECTIVE_PLANE, 4, 4, False))
@example((ClosedSurface(False, 3), 4, 3, False))
def test_rows_match_the_engine(cell):
    # the census answers every cell from characters; the engine, which
    # classifies the least tuple of every class, is the reference
    base, d, b, simple = cell
    assert enumerate_covers(base, d, b, simple) == classify_shard(enumerate_shard(base, d, b, simple))


@pytest.mark.parametrize("base", SWEEP_BASES + (ClosedSurface(False, 4), ClosedSurface(True, 5)))
def test_free_homs_sum_to_the_scalar_counts(base):
    # d! times the tuples of any meridians is sum a_Q Q(t)^b: at t = 1
    # (d!)^(1 - chi + b), and with the identity removed from each
    # meridian, sum a_Q (Q(1) - 1)^b, the scalar inclusion-exclusion
    # (Q(1) is the sum of the coefficients Newton's identities give from
    # Q's d power sums)
    chi = 2 - 2 * base.genus if base.orientable else 2 - base.genus
    for d in range(1, 7):
        keys = _free_homs(chi, d, d)
        at_one = {key: sum(_elementary(_power_sums(key, d), d)) for key in keys}
        contents = [[j - i for i, row in enumerate(lam) for j in range(row)] for lam in _partitions(d)]
        assert sorted(at_one.values()) == sorted(prod(1 + c for c in cs) for cs in contents)
        for b in range(0, 5):
            free = sum(a * at_one[key] ** b for key, a in keys.items())
            assert free == factorial(d) * (factorial(d) ** (1 - chi + b) if b else hom_count(base, d, 0))
            nontrivial = sum(a * (at_one[key] - 1) ** b for key, a in keys.items())
            assert nontrivial == factorial(d) * hom_count(base, d, b, False), (d, b)
            if b:
                assert connected_count(base, d, b, False) == all_connected_count(base, d, b), (d, b)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.integers(1 - d, d - 1), max_size=d))))
@example((1, [0]))
@example((12, [-11] * 12))
@example((12, [11] * 12))
def test_keys_hold_the_power_sums_newton_reads(cell):
    # a key holds the first T power sums of up to T contents of size below
    # T, T = d for a cell of any meridians: the key of a merged product is
    # the sum of keys, and the orientation double cover's twice a key;
    # Newton's identities rebuild the product of 1 + c t
    T, contents = cell
    sums = [sum(c**k for c in contents) for k in range(1, T + 1)]
    half = contents[: len(contents) // 2]
    assert _power_sums(_key(half, T) + _key(contents[len(half):], T), T) == sums
    assert _power_sums(2 * _key(half, T), T) == [2 * sum(c**k for c in half) for k in range(1, T + 1)]
    want = [1]
    for c in contents:
        want = [x + c * y for x, y in zip(want + [0], [0] + want)]
    assert _elementary(sums, T) == want + [0] * (T + 1 - len(want))
    # T = 1 keys a product by its content sum, however large
    assert _key(contents * 50, 1) == 50 * sum(contents) and _key(contents, 0) == 0


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.integers(0, 3), st.integers(0, 12))
def test_power_matches_repeated_products(coefficients, low, n):
    p = [0] * low + coefficients
    want = [1]
    for _ in range(n):
        want = [sum(want[i] * p[k - i] for i in range(len(want)) if 0 <= k - i < len(p))
                for k in range(len(want) + len(p) - 1)]
    got = _power(p, n)
    assert got + [0] * (len(want) - len(got)) == want


@pytest.mark.parametrize("base", SWEEP_BASES[3:] + (ClosedSurface(False, 4),) + SWEEP_BASES[:3])
def test_orientable_count_without_branch_points(base):
    # enumerate_covers answers every cell without branch points from
    # closed forms, simple or not; the engine checks the raw, class and
    # orientable counts on each such cell of at most 10^8 tuples up to
    # degree 7
    for d in range(1, 8):
        if hom_count(base, d, 0) > 10**8:
            continue
        engine = classify_shard(enumerate_shard(base, d, 0, True))
        assert engine == enumerate_covers(base, d, 0, True) == enumerate_covers(base, d, 0, False), d
        assert sum(raw for _, raw, _ in engine.realized) == connected_count(base, d, 0), d
        assert sum(n for _, _, n in engine.realized) == sum(class_counts(base, d, 0)), d
        if not base.orientable:
            orientable = [row[1:] for row in engine.realized if row[0].orientable]
            split = sum(raw_counts(base, d, 0, True, True)), sum(class_counts(base, d, 0, True, True))
            assert orientable == ([split] if split[0] else []), d


def test_closed_forms_are_exact_integers():
    # 2^(2 - m chi) is a fraction over s2 with m >= 2, where no connected
    # unbranched cover of degree m exists; float arithmetic printed 120.0
    assert sum(class_counts(SPHERE, 4, 6)) == 120 and type(sum(class_counts(SPHERE, 4, 6))) is int
    big = sum(class_counts(SPHERE, 7, 142))
    assert type(big) is int and big * factorial(7) == connected_count(SPHERE, 7, 142)
    assert sum(class_counts(SPHERE, 2, 3)) == 0  # odd b: no tuple at all
    assert sum(raw_counts(PROJECTIVE_PLANE, 5, 4, True, True)) == 0
    assert sum(raw_counts(PROJECTIVE_PLANE, 6, 8, True, True)) == 33_546_240
    # without branch points: Mednykh's count of the index-6 subgroup classes
    assert sum(class_counts(ClosedSurface(True, 2), 6, 0)) == 1_112_204
    assert type(sum(class_counts(ClosedSurface(True, 2), 6, 0))) is int
    with pytest.raises(ValueError):
        sum(raw_counts(TORUS, 4, 2, True, True))


def test_non_integral_class_count_names_the_cell(monkeypatch, fresh_counts):
    # one tuple fixed by the identity and none by any other conjugator
    monkeypatch.setattr("coverbench.characters._fixed", lambda base, d, b, l, *flags: [1] if l == 1 else [])
    with pytest.raises(InvalidData) as raised:
        sum(class_counts(TORUS, 3, 4))
    assert str(raised.value) == (
        "census cell (torus, degree 3, 4 branch points): Burnside's lemma gives "
        "1/6 conjugation classes, not an integer"
    )


def test_non_integral_graded_count_names_the_cell(monkeypatch, fresh_counts):
    # one product Q = 1 + t, the power sums of the one content 1, where d!
    # times the tuples belong: the raw count of grade 2, the identity's
    # fixed tuples, is then 1/3!
    monkeypatch.setattr("coverbench.characters._connected_keys", lambda chi, d, T: {_key([1], T): 1})
    with pytest.raises(InvalidData) as raised:
        raw_counts(TORUS, 3, 2, False)
    assert str(raised.value) == (
        "census cell (torus, degree 3, 2 branch points): a conjugator of cycle type 1^3 "
        "fixes 1/6 tuples of grade 2, not an integer"
    )
    # the count over every grade, which the census checks for its digits
    # first, takes Q at t = 1: (2 - 1)^2 d!-scaled tuples, 1/3! again
    with pytest.raises(InvalidData) as raised:
        connected_count(TORUS, 3, 2, False)
    assert str(raised.value) == (
        "census cell (torus, degree 3, 2 branch points): a conjugator of cycle type 1^3 "
        "fixes 1/6 tuples, not an integer"
    )


@st.composite
def _bases(draw):
    orientable = draw(st.booleans())
    return ClosedSurface(orientable, draw(st.integers(0 if orientable else 1, 4)))


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(_bases(), st.integers(1, 12), st.integers(0, 20))
@example(ClosedSurface(False, 4), 12, 20)
@example(SPHERE, 12, 20)
@example(KLEIN_BOTTLE, 12, 0)
def test_one_route_matches_the_frobenius_pascal_route(base, d, half):
    # a simple cell is the graded sums cut at degree 1 and a cell without
    # branch points at degree 0; the oracle counts its rows the way the
    # census did before: Frobenius' sums folded with Pascal's row, the
    # orientation double cover's formula, and Burnside's lemma with l = 2
    # alone, or Mednykh's count without branch points
    b = 2 * half
    chi = euler_characteristic(base)
    raw, classes = simple_connected_count(chi, d, b), simple_class_count(base, d, b)
    assert (connected_count(base, d, b), sum(class_counts(base, d, b))) == (raw, classes)
    up = (raw, classes)
    if not base.orientable:
        up = simple_orientable_count(base, d, b), simple_class_count(base, d, b, True)
        assert (sum(raw_counts(base, d, b, True, True)), sum(class_counts(base, d, b, True, True))) == up
    rows = ((True, *up), (False, raw - up[0], classes - up[1]))
    want = tuple((classify(d * chi - b, o), n, c) for o, n, c in rows if n)
    assert enumerate_covers(base, d, b, True).realized == want
    if b == 0:
        assert enumerate_covers(base, d, 0, False) == enumerate_covers(base, d, 0, True)


@pytest.mark.parametrize("d", range(2, 11))
def test_hurwitz_count_of_sphere_covers(d):
    # simple connected covers of the sphere of genus 0
    b = 2 * d - 2
    assert connected_count(SPHERE, d, b) == factorial(b) * d ** (d - 3)


@pytest.mark.parametrize(
    "base,d,b,count",
    [
        (PROJECTIVE_PLANE, 5, 8, 185_285_520),
        (PROJECTIVE_PLANE, 5, 6, 1_606_800),
        (SPHERE, 6, 10, 783_820_800),
    ],
)
def test_cells_beyond_enumeration(base, d, b, count):
    assert connected_count(base, d, b) == count


def test_empty_cells_by_riemann_hurwitz_and_parity():
    # a connected simple cover of s2 needs b >= 2d - 2; one of rp2 has
    # chi = d - b, and its b transpositions multiply to a square
    for d in range(1, 8):
        for b in range(0, 9):
            if b < 2 * d - 2:
                assert connected_count(SPHERE, d, b) == 0, (d, b)
            if b % 2:
                assert connected_count(PROJECTIVE_PLANE, d, b) == 0, (d, b)


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_benchmark_census_totals_are_exact():
    totals = _bench_workloads().CENSUS_TOTALS
    assert totals
    for (token, d, b, simple), (total_raw, _) in totals.items():
        assert connected_count(parse_base(token), d, b, simple) == total_raw, (token, d, b)
