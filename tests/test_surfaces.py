from __future__ import annotations

import pytest
from hypothesis import given, seed
import hypothesis.strategies as st

from coverbench.errors import NotASurface
from coverbench.surfaces import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    ClosedSurface,
    classify,
    euler_characteristic,
)


def test_euler_characteristic_values():
    assert euler_characteristic(SPHERE) == 2
    assert euler_characteristic(ClosedSurface(True, 2)) == -2
    assert euler_characteristic(ClosedSurface(False, 3)) == -1
    assert euler_characteristic(TORUS) == 0
    assert euler_characteristic(PROJECTIVE_PLANE) == 1
    assert euler_characteristic(KLEIN_BOTTLE) == 0


def test_classify_values():
    assert classify(2, True) == SPHERE
    assert classify(0, False) == KLEIN_BOTTLE
    with pytest.raises(NotASurface):
        classify(-1, True)
    with pytest.raises(NotASurface):
        classify(4, True)
    with pytest.raises(NotASurface):
        classify(2, False)


def test_bad_genus_rejected():
    with pytest.raises(NotASurface):
        ClosedSurface(True, -1)
    with pytest.raises(NotASurface):
        ClosedSurface(False, 0)


def test_names():
    assert SPHERE.name == "sphere"
    assert TORUS.name == "torus"
    assert PROJECTIVE_PLANE.name == "projective plane"
    assert KLEIN_BOTTLE.name == "Klein bottle"
    assert "genus-3" in ClosedSurface(True, 3).name
    assert "crosscaps" in ClosedSurface(False, 4).name


@seed(20261019)
@given(
    st.booleans().flatmap(
        lambda o: st.integers(min_value=0 if o else 1, max_value=30).map(
            lambda g: ClosedSurface(o, g)
        )
    )
)
def test_classify_round_trips(s):
    assert classify(euler_characteristic(s), s.orientable) == s
