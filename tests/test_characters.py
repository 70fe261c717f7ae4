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
    _fixed,
    _free_homs,
    _irreducibles,
    _power,
    _simple_homs,
    class_count,
    connected_count,
    orientable_class_count,
    orientable_count,
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
)

from oracles import (
    ORACLE_NONSIMPLE_CELLS,
    ORACLE_SIMPLE_CELLS,
    all_connected_count,
    fraction_simple_homs,
    hom_count,
    oracle_census,
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
    irreps = _irreducibles(d)
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
    # the integer terms f h^(1 - chi) c^b, and the sphere's one division
    # by d!, against Frobenius' formula in Fractions; odd b gives 0 both ways
    count = _simple_homs(chi, d, b)
    assert type(count) is int
    assert count == fraction_simple_homs(chi, d, b)


def test_sphere_sum_with_a_remainder_names_the_cell(monkeypatch):
    monkeypatch.setattr("coverbench.characters._irreducibles", lambda d: ((1, 5, 1),))
    with pytest.raises(InvalidData) as raised:
        _simple_homs(2, 3, 2)
    assert str(raised.value) == (
        "census cell (sphere, degree 3, 2 branch points): the characters give "
        "1/6 tuples, not an integer"
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
    assert row[1:] == (connected_count(base, d, b), class_count(base, d, b))


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
    assert sum(n for _, _, n in engine.realized) == class_count(base, d, b)
    orientable = [row[1:] for row in engine.realized if row[0].orientable]
    split = orientable_count(base, d, b), orientable_class_count(base, d, b)
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
    chi = 2 - 2 * base.genus if base.orientable else 2 - base.genus
    for d in range(1, 7):
        at_one = {key: prod(1 + c for c in key) for key in _free_homs(chi, d)}
        for b in range(0, 5):
            free = sum(a * at_one[key] ** b for key, a in _free_homs(chi, d).items())
            assert free == factorial(d) * (factorial(d) ** (1 - chi + b) if b else hom_count(base, d, 0))
            nontrivial = sum(a * (at_one[key] - 1) ** b for key, a in _free_homs(chi, d).items())
            assert nontrivial == factorial(d) * hom_count(base, d, b, False), (d, b)
            if b:
                assert connected_count(base, d, b, False) == all_connected_count(base, d, b), (d, b)


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
        assert sum(n for _, _, n in engine.realized) == class_count(base, d, 0), d
        if not base.orientable:
            orientable = [row[1:] for row in engine.realized if row[0].orientable]
            split = orientable_count(base, d, 0), orientable_class_count(base, d, 0)
            assert orientable == ([split] if split[0] else []), d


def test_closed_forms_are_exact_integers():
    # 2^(2 - m chi) is a fraction over s2 with m >= 2, where no connected
    # unbranched cover of degree m exists; float arithmetic printed 120.0
    assert class_count(SPHERE, 4, 6) == 120 and type(class_count(SPHERE, 4, 6)) is int
    big = class_count(SPHERE, 7, 142)
    assert type(big) is int and big * factorial(7) == connected_count(SPHERE, 7, 142)
    assert class_count(SPHERE, 2, 3) == 0  # odd b: no tuple at all
    assert orientable_count(PROJECTIVE_PLANE, 5, 4) == 0
    assert orientable_count(PROJECTIVE_PLANE, 6, 8) == 33_546_240
    # without branch points: Mednykh's count of the index-6 subgroup classes
    assert class_count(ClosedSurface(True, 2), 6, 0) == 1_112_204
    assert type(class_count(ClosedSurface(True, 2), 6, 0)) is int
    with pytest.raises(ValueError):
        orientable_count(TORUS, 4, 2)


def test_non_integral_class_count_names_the_cell(monkeypatch):
    monkeypatch.setattr("coverbench.characters.connected_count", lambda *args: 1)
    with pytest.raises(InvalidData) as raised:
        class_count(TORUS, 3, 4)
    assert str(raised.value) == (
        "census cell (torus, degree 3, 4 branch points): Burnside's lemma gives "
        "1/6 conjugation classes, not an integer"
    )


def test_non_integral_graded_count_names_the_cell(monkeypatch):
    # one product Q = 1 + t where d! times the tuples belong: the raw count
    # of grade 2, the identity's fixed tuples, is then 1/3!
    monkeypatch.setattr("coverbench.characters._connected_keys", lambda chi, d: {(1,): 1})
    _fixed.cache_clear()
    try:
        with pytest.raises(InvalidData) as raised:
            connected_count(TORUS, 3, 2, False)
    finally:
        _fixed.cache_clear()
    assert str(raised.value) == (
        "census cell (torus, degree 3, 2 branch points): a conjugator of cycle type 1^3 "
        "fixes 1/6 tuples of grade 2, not an integer"
    )


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
