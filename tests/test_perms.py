"""Permutation calculus: composition order, cycle structure, orbits."""
from __future__ import annotations

import pytest
from hypothesis import given, seed
import hypothesis.strategies as st

from coverbench.errors import DegreeMismatch
from coverbench.perms import (
    Perm,
    compose,
    from_cycles,
    identity,
    inverse,
    orbits,
    transposition,
)

from oracles import compose_all, cycle_type, is_transposition


def perm_strategy(max_degree: int = 8):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(range(n)).map(lambda xs: Perm(tuple(xs)))
    )


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_compose_identity():
    t = transposition(3, 0, 1)
    assert compose(identity(3), t) == t
    assert compose(t, identity(3)) == t


def test_compose_is_left_to_right():
    # first swap 0,1 then swap 1,2: 0 -> 1 -> 2, 1 -> 0, 2 -> 1
    p = transposition(3, 0, 1)
    q = transposition(3, 1, 2)
    assert compose(p, q).images == (2, 0, 1)


def test_compose_involution():
    t = transposition(2, 0, 1)
    assert compose(t, t) == identity(2)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(identity(2), identity(3))


def test_compose_all_empty_word():
    assert compose_all([], 4) == identity(4)
    with pytest.raises(ValueError):
        compose_all([])


def test_cycle_type_examples():
    assert cycle_type(identity(4)) == (1, 1, 1, 1)
    assert cycle_type(transposition(3, 0, 1)) == (2, 1)
    p = from_cycles(5, [(0, 1, 2), (3, 4)])
    assert cycle_type(p) == (3, 2)
    assert len(p.cycles(include_fixed=True)) == 2


def test_cycles_start_at_least_point():
    p = from_cycles(5, [(2, 0, 1), (4, 3)])
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.cycles(include_fixed=True) == [(0, 1, 2), (3, 4)]
    q = transposition(3, 1, 2)
    assert q.cycles(include_fixed=True) == [(0,), (1, 2)]


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValueError):
        from_cycles(4, [(0, 1), (1, 2)])


def test_orbit_examples():
    assert orbits([], 3) == [(0,), (1,), (2,)]
    assert orbits([transposition(3, 0, 1)], 3) == [(0, 1), (2,)]
    gens = [transposition(3, 0, 1), transposition(3, 1, 2)]
    assert orbits(gens, 3) == [(0, 1, 2)]


def test_orbits_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        orbits([identity(2)], 3)


def test_is_transposition():
    assert is_transposition(transposition(4, 1, 3))
    assert not is_transposition(identity(4))
    assert not is_transposition(from_cycles(4, [(0, 1, 2)]))


@seed(20261019)
@given(perm_strategy(), perm_strategy(), perm_strategy())
def test_compose_associative(a, b, c):
    n = max(a.degree, b.degree, c.degree)
    a, b, c = (_pad(p, n) for p in (a, b, c))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@seed(20261019)
@given(perm_strategy())
def test_compose_with_inverse(p):
    assert compose(p, inverse(p)) == identity(p.degree)
    assert compose(inverse(p), p) == identity(p.degree)


@seed(20261019)
@given(st.lists(perm_strategy(5), max_size=4))
def test_adding_generators_never_splits_orbits(gens):
    gens = [_pad(g, 5) for g in gens]
    extra = transposition(5, 0, 1)
    assert len(orbits(gens + [extra], 5)) <= len(orbits(gens, 5))


@seed(20261019)
@given(perm_strategy())
def test_cycle_type_sums_to_degree(p):
    assert sum(cycle_type(p)) == p.degree


def _pad(p: Perm, n: int) -> Perm:
    return Perm(p.images + tuple(range(p.degree, n)))
