"""Exact census counts from the characters of S_d, against brute force,
the census's enumeration, closed forms and the benchmark's records."""
from __future__ import annotations

import importlib.util
import sys
from math import factorial
from pathlib import Path

import pytest

from coverbench.characters import _irreducibles, connected_count, hom_count
from coverbench.cli import parse_base
from coverbench.orderly import classify_shard, enumerate_shard
from coverbench.surfaces import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    ClosedSurface,
)

from oracles import ORACLE_NONSIMPLE_CELLS, ORACLE_SIMPLE_CELLS, oracle_census

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
    assert sum(f * f for f, _ in irreps) == factorial(d)
    # transposing a partition negates its content sum; the sign
    # character's central value is -C(d, 2)
    assert sorted(c for _, c in irreps) == sorted(-c for _, c in irreps)
    assert min(c for _, c in irreps) == -d * (d - 1) // 2


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
