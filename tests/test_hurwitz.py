"""Monodromy data: validation, total spaces, constructions."""
from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time

import pytest
from hypothesis import given, seed, settings
import hypothesis.strategies as st

from coverbench import jsonio
from coverbench.errors import (
    InvalidData,
    NonorientableBase,
    NotConnected,
    NotSimple,
    WorkbenchError,
    WrongBase,
)
from coverbench.hurwitz import (
    CoverSummary,
    HurwitzData,
    compose_orientation_double,
    construct_cyclic_rp2,
    construct_hyperelliptic,
    generators,
    is_connected,
    stabilize,
    stabilize_steps,
    total_space,
    validate,
)
from coverbench.perms import Perm, from_cycles, identity, inverse, orbits, transposition
from coverbench.surfaces import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    ClosedSurface,
    euler_characteristic,
)

from oracles import (
    compose_all,
    cycle_type,
    is_transposition,
    lifted_cell_chi,
    orientable_bruteforce,
    random_perm,
    random_simple_sphere_datum,
    random_valid_datum,
    relation_word,
    run_measured,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# --- validate ---


def test_validate_hyperelliptic_six_points():
    assert validate(construct_hyperelliptic(2)).ok


def test_validate_odd_transposition_count_fails():
    datum = HurwitzData(SPHERE, 2, meridians=(transposition(2, 0, 1),))
    report = validate(datum)
    assert not report.ok
    assert any("relation" in p for p in report.problems)


def test_validate_rp2_three_cycle():
    c = from_cycles(3, [(0, 1, 2)])
    datum = HurwitzData(PROJECTIVE_PLANE, 3, crosscaps=(c,), meridians=(c,))
    assert validate(datum).ok


def test_validate_structural_problems():
    report = validate(
        HurwitzData(
            SPHERE,
            3,
            crosscaps=(identity(3),),
            meridians=(identity(3), transposition(2, 0, 1)),
        )
    )
    assert not report.ok
    assert any("crosscap" in p for p in report.problems)
    assert any("identity" in p for p in report.problems)
    assert any("degree 2" in p for p in report.problems)


def test_validate_handle_count_checked():
    report = validate(HurwitzData(TORUS, 2))
    assert not report.ok
    assert any("handle" in p for p in report.problems)


def test_validate_unbranched_notes():
    report = validate(HurwitzData(SPHERE, 2))
    assert report.ok
    assert report.notes


# --- total_space ---


def test_total_space_hyperelliptic_genus_2():
    summary = total_space(construct_hyperelliptic(2))
    assert summary.degree == 2
    assert summary.simple
    assert summary.components == ((ClosedSurface(True, 2), 2),)
    assert summary.branch_point_count == 6
    assert summary.branching_indices == ((2,),) * 6
    assert euler_characteristic(summary.components[0][0]) == -2


def test_total_space_trivial_monodromy_splits():
    summary = total_space(HurwitzData(SPHERE, 2))
    assert summary.components == ((SPHERE, 1), (SPHERE, 1))
    assert not summary.connected


def test_total_space_klein_bottle():
    datum = HurwitzData(
        PROJECTIVE_PLANE,
        2,
        crosscaps=(identity(2),),
        meridians=(transposition(2, 0, 1), transposition(2, 0, 1)),
    )
    summary = total_space(datum)
    assert summary.components == ((KLEIN_BOTTLE, 2),)
    assert summary.simple


def test_total_space_rejects_invalid():
    with pytest.raises(InvalidData):
        total_space(HurwitzData(SPHERE, 2, meridians=(transposition(2, 0, 1),)))


def test_total_space_is_linear_in_the_sheets(tmp_path):
    # one walk over the sheets: the orbit-by-orbit cycle count it replaced
    # was quadratic, 4 s at 4,000 sheets of this datum and past 11 s at 8,000
    n = 10**5
    swaps = Perm(tuple(i ^ 1 for i in range(n)))
    path = tmp_path / "pairs.json"
    path.write_text(jsonio.dumps(jsonio.hurwitz_to_json(HurwitzData(SPHERE, n, meridians=(swaps, swaps)))))
    argv = ["total-space", "--input", str(path)]
    child, _ = run_measured([sys.executable, "-m", "coverbench.cli", *argv], timeout=30)
    assert (child.returncode, child.stderr) == (0, "")
    components = json.loads(child.stdout)["result"]["summary"]["components"]
    assert len(components) == n // 2
    assert all(c == components[0] for c in components)
    assert components[0]["sheets"] == 2 and components[0]["surface"]["name"] == "sphere"


# --- constructions ---


@pytest.mark.parametrize("g", [0, 1, 2, 5])
def test_hyperelliptic_family(g):
    datum = construct_hyperelliptic(g)
    assert validate(datum).ok
    assert datum.branch_count == 2 * g + 2
    summary = total_space(datum)
    assert summary.components == ((ClosedSurface(True, g), 2),)
    assert summary.simple


def test_cyclic_rp2_degenerate():
    datum = construct_cyclic_rp2(1)
    assert validate(datum).ok
    assert datum.degree == 1 and datum.branch_count == 0
    assert total_space(datum).components == ((PROJECTIVE_PLANE, 1),)


@pytest.mark.parametrize("h", [2, 3, 4, 7])
def test_cyclic_rp2_family(h):
    datum = construct_cyclic_rp2(h)
    assert validate(datum).ok
    summary = total_space(datum)
    assert summary.components == ((ClosedSurface(False, h), h),)
    assert summary.branching_indices == ((h,), (h,))


def test_cyclic_rp2_h3_monodromy():
    datum = construct_cyclic_rp2(3)
    assert datum.meridians[0].images == (1, 2, 0)
    assert datum.meridians[1].images == (2, 0, 1)
    assert total_space(datum).components[0][0] == ClosedSurface(False, 3)


# --- stabilize ---


def test_stabilize_torus_cover():
    out = stabilize(construct_hyperelliptic(1))
    assert out.degree == 3 and out.branch_count == 6
    assert total_space(out).components == ((TORUS, 3),)


def test_stabilize_twice_sphere():
    out = stabilize(stabilize(construct_hyperelliptic(0)))
    assert out.degree == 4 and out.branch_count == 6
    assert total_space(out).components == ((SPHERE, 4),)


@pytest.mark.parametrize("g", [0, 1, 3])
def test_stabilize_tower_every_degree(g):
    datum = construct_hyperelliptic(g)
    for n in range(3, 8):
        datum = stabilize(datum)
        summary = total_space(datum)
        assert datum.degree == n
        assert summary.simple
        assert summary.components == ((ClosedSurface(True, g), n),)


def test_stabilize_rejects_nonsimple():
    c = from_cycles(3, [(0, 1, 2)])
    datum = HurwitzData(SPHERE, 3, meridians=(c, inverse(c)))
    assert validate(datum).ok
    with pytest.raises(NotSimple):
        stabilize(datum)


def test_stabilize_rejects_disconnected():
    t = transposition(4, 0, 1)
    datum = HurwitzData(SPHERE, 4, meridians=(t, t))
    with pytest.raises(NotConnected):
        stabilize(datum)


def test_stabilize_rejects_nonorientable_base():
    with pytest.raises(NonorientableBase):
        stabilize(construct_cyclic_rp2(2))


def _single_steps(datum: HurwitzData, times: int) -> HurwitzData:
    for _ in range(times):
        datum = stabilize(datum)
    return datum


@seed(20261018)
@given(seeds, st.integers(0, 6), st.sampled_from(["simple", "any", "broken"]))
@settings(max_examples=120, deadline=None)
def test_stabilize_times_is_that_many_single_steps(seed, times, kind):
    # "simple": valid, simple and connected, over genus 0-2 (handles (a, id)
    # keep the relation); "any": random valid data, mostly rejected;
    # "broken": the last meridian redrawn, which breaks the relation
    rng = random.Random(seed)
    if kind == "simple":
        degree = rng.randint(2, 5)
        sphere = random_simple_sphere_datum(
            rng, degree=degree, branch=2 * rng.randint(degree - 1, degree + 1),
            require_connected=True,
        )
        genus = rng.randint(0, 2)
        handles = tuple((random_perm(rng, degree), identity(degree)) for _ in range(genus))
        datum = HurwitzData(ClosedSurface(True, genus), degree, handles, meridians=sphere.meridians)
    else:
        datum = random_valid_datum(rng, max_degree=5, max_branch=6)
        if kind == "broken" and datum.meridians:
            last = random_perm(rng, datum.degree)
            datum = HurwitzData(datum.base, datum.degree, datum.handles, datum.crosscaps,
                                datum.meridians[:-1] + (last,))
    try:
        want = _single_steps(datum, times)
    except WorkbenchError as exc:
        with pytest.raises(WorkbenchError) as raised:
            stabilize(datum, times)
        assert raised.type is type(exc)
    else:
        assert stabilize(datum, times) == want


def test_stabilize_rejects_negative_times():
    with pytest.raises(ValueError):
        stabilize(construct_hyperelliptic(0), -1)


def test_stabilize_165_times_is_one_pass(tmp_path):
    # the loop of single steps revalidated the growing datum at every
    # step and took 1.7 s; the digest is the loop's stdout
    path = tmp_path / "h.json"
    path.write_text(jsonio.dumps(jsonio.hurwitz_to_json(construct_hyperelliptic(0))))
    argv = ["stabilize", "--input", str(path), "--times", "165"]
    start = time.perf_counter()
    child, _ = run_measured([sys.executable, "-m", "coverbench.cli", *argv], timeout=60)
    assert time.perf_counter() - start < 1
    assert (child.returncode, child.stderr) == (0, "")
    assert hashlib.sha256(child.stdout.encode()).hexdigest() == (
        "db696ac61a7066f03ef8d05317748e865c11f899e1380f85766da3578a05c117"
    )


def test_stabilize_steps_are_one_input_and_one_output_pass():
    # the datum is checked once and built once, so the charge is
    # quadratic in --times where the tower's sum is cubic
    for k in range(4):
        for d in range(1, 5):
            for times in range(12):
                want = k * (d + 32) + (k + 2 * times) * (d + times + 32)
                assert stabilize_steps(k, d, times) == want
    assert stabilize_steps(2, 2, 1396) <= 4 * 10**6 < stabilize_steps(2, 2, 1397)


@pytest.mark.parametrize("times", [166, 1397])
def test_stabilize_budget_fits_the_one_pass_cost(tmp_path, times):
    # the tower's charge refused 166 steps from a degree-2 datum, which
    # take 0.25 s; the first refused count, 1397, is refused before any
    # permutation is built (1396 takes about 4 s and 355 MB)
    path = tmp_path / "h.json"
    path.write_text(jsonio.dumps(jsonio.hurwitz_to_json(construct_hyperelliptic(0))))
    argv = ["stabilize", "--input", str(path), "--times", str(times)]
    start = time.perf_counter()
    child, peak = run_measured(
        [sys.executable, "-m", "coverbench.cli", *argv],
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert time.perf_counter() - start < 1
    assert peak < 100 << 20
    if times == 166:
        assert (child.returncode, child.stderr) == (0, "")
        assert json.loads(child.stdout)["result"]["summary"]["degree"] == 2 + times
        return
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == (
        f"error: stabilizing {times} times would take more than the budget of 4000000 steps\n"
    )


# --- orientation double cover ---


def test_double_of_identity_cover():
    datum = HurwitzData(SPHERE, 1)
    out = compose_orientation_double(datum)
    assert out.base == PROJECTIVE_PLANE and out.degree == 2
    assert out.crosscaps[0].images == (1, 0)
    assert out.branch_count == 0
    assert total_space(out).components == ((SPHERE, 2),)


@pytest.mark.parametrize("g", [1, 2])
def test_double_of_hyperelliptic(g):
    out = compose_orientation_double(construct_hyperelliptic(g))
    assert out.degree == 4
    summary = total_space(out)
    assert summary.components == ((ClosedSurface(True, g), 4),)
    assert summary.simple


def test_double_rejects_other_bases():
    datum = HurwitzData(TORUS, 2, handles=((identity(2), identity(2)),))
    assert validate(datum).ok
    with pytest.raises(WrongBase):
        compose_orientation_double(datum)


@seed(20261019)
@given(seeds)
@settings(max_examples=60, deadline=None)
def test_double_preserves_components_and_doubles_degrees(seed):
    rng = random.Random(seed)
    datum = random_valid_datum(rng, max_degree=5, max_branch=6)
    if not datum.base.orientable or datum.base.genus != 0:
        return
    before = total_space(datum)
    after = total_space(compose_orientation_double(datum))
    assert after.degree == 2 * before.degree
    assert after.simple == before.simple
    assert tuple((s, 2 * n) for s, n in before.components) == after.components


# --- randomized agreement with the oracles ---


@seed(20261019)
@given(seeds)
@settings(max_examples=120, deadline=None)
def test_chi_matches_lifted_cell_count(seed):
    rng = random.Random(seed)
    datum = random_valid_datum(rng, max_degree=6, max_branch=8)
    summary = total_space(datum)
    parts = orbits(generators(datum), datum.degree)
    assert len(parts) == len(summary.components)
    for orbit, (surface, size) in zip(parts, summary.components):
        assert size == len(orbit)
        assert euler_characteristic(surface) == lifted_cell_chi(datum, orbit)
    assert summary.branching_indices == tuple(cycle_type(m) for m in datum.meridians)
    assert summary.simple == all(is_transposition(m) for m in datum.meridians)
    assert summary.meridian_cycles == tuple(tuple(m.cycles()) for m in datum.meridians)
    # validate folds the word over images; the reference multiplies Perms,
    # here on the datum and on a copy with one generator redrawn
    broken = _redrawn_last(rng, datum)
    for x in (datum, broken):
        product = compose_all(relation_word(x), x.degree)
        fails = [p for p in validate(x).problems if p.startswith("surface relation fails")]
        assert fails == ([] if product.is_identity() else [
            f"surface relation fails: word product has images {list(product.images)}"
        ])


def _redrawn_last(rng, datum):
    """The datum with its last meridian, else its first handle's second
    image or first crosscap, redrawn; with no generator, the datum."""
    if datum.meridians:
        last = random_perm(rng, datum.degree)
        return HurwitzData(datum.base, datum.degree, datum.handles, datum.crosscaps,
                           datum.meridians[:-1] + (last,))
    if datum.handles:
        (a, _), *rest = datum.handles
        return HurwitzData(datum.base, datum.degree, ((a, random_perm(rng, datum.degree)), *rest))
    if not datum.crosscaps:
        return datum
    (_, *rest) = datum.crosscaps
    return HurwitzData(datum.base, datum.degree, crosscaps=(random_perm(rng, datum.degree), *rest))


@seed(20261019)
@given(seeds)
@settings(max_examples=80, deadline=None)
def test_orientability_matches_bruteforce(seed):
    rng = random.Random(seed)
    datum = random_valid_datum(rng, max_degree=6, max_branch=6)
    summary = total_space(datum)
    for orbit, (surface, _) in zip(
        orbits(generators(datum), datum.degree), summary.components
    ):
        assert surface.orientable == orientable_bruteforce(datum, orbit)


@seed(20261019)
@given(seeds)
@settings(max_examples=80, deadline=None)
def test_orientable_base_gives_orientable_components(seed):
    rng = random.Random(seed)
    datum = random_valid_datum(rng, max_degree=6, max_branch=8)
    if not datum.base.orientable:
        return
    for surface, _ in total_space(datum).components:
        assert surface.orientable


@seed(20261019)
@given(seeds)
@settings(max_examples=40, deadline=None)
def test_stabilize_preserves_classification_over_sphere(seed):
    rng = random.Random(seed)
    degree = rng.randint(2, 5)
    datum = random_simple_sphere_datum(
        rng, degree=degree, branch=2 * rng.randint(degree - 1, degree + 1),
        require_connected=True,
    )
    before = total_space(datum)
    after = total_space(stabilize(datum))
    assert after.components[0][0] == before.components[0][0]
    assert after.degree == before.degree + 1


def test_sphere_total_space_needs_sphere_base():
    """Over an orientable base of positive genus no component can be a
    sphere: branching only lowers chi, so chi <= size*(2-2g) < 2."""
    for g in range(1, 4):
        for degree in range(1, 5):
            for size in range(1, degree + 1):
                assert size * (2 - 2 * g) < 2


@seed(20261019)
@given(seeds)
@settings(max_examples=60, deadline=None)
def test_positive_genus_base_never_covered_by_sphere(seed):
    rng = random.Random(seed)
    datum = random_valid_datum(rng, max_degree=4, max_branch=6)
    if not datum.base.orientable or datum.base.genus == 0:
        return
    for surface, _ in total_space(datum).components:
        assert surface != SPHERE
