"""Census enumeration: frozen small cells, oracle agreement, audits."""
from __future__ import annotations

import json
import resource
import sys
from functools import lru_cache
from math import factorial

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, seed, settings

from coverbench.census import (
    AuditReport,
    CensusRow,
    enumerate_covers,
    merge_shards,
    parity_audit,
    universal_base_report_dim2,
)
from coverbench import census, characters
from coverbench.characters import class_counts, connected_count
from coverbench.errors import InvalidData, LimitExceeded
from coverbench.hurwitz import HurwitzData, is_connected, total_space
from coverbench.orderly import (
    CensusShard,
    GroupTable,
    _classify_forms,
    _group_table,
    _orbit_verdicts,
    classify_shard,
    enumerate_shard,
)
from coverbench.perms import Perm, compose, identity, inverse
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
    compose_all,
    conjugation_classes,
    fraction_simple_homs,
    hom_count,
    is_transposition,
    label_verdicts,
    oracle_census,
    run_measured,
)


def test_sphere_degree2_two_points():
    row = enumerate_covers(SPHERE, 2, 2, True)
    assert row.realized == ((SPHERE, 1, 1),)


def test_rp2_degree2_two_points_is_klein_only():
    row = enumerate_covers(PROJECTIVE_PLANE, 2, 2, True)
    assert row.realized == ((KLEIN_BOTTLE, 2, 2),)
    assert all(not s.orientable for s, _, _ in row.realized)


def test_rp2_degree3_three_points_empty():
    row = enumerate_covers(PROJECTIVE_PLANE, 3, 3, True)
    assert row.realized == ()


def test_rp2_unbranched_degree2_is_orientation_double():
    row = enumerate_covers(PROJECTIVE_PLANE, 2, 0, True)
    assert row.realized == ((SPHERE, 1, 1),)


def test_degree1_rows():
    assert enumerate_covers(SPHERE, 1, 0, True).realized == ((SPHERE, 1, 1),)
    assert enumerate_covers(PROJECTIVE_PLANE, 1, 0, True).realized == (
        (PROJECTIVE_PLANE, 1, 1),
    )


@pytest.mark.parametrize("b", range(0, 9))
def test_sphere_degree2_completeness(b):
    # only the all-(0 1) tuple can close the relation in S_2
    row = enumerate_covers(SPHERE, 2, b, True)
    if b >= 2 and b % 2 == 0:
        genus = (b - 2) // 2
        assert row.realized == ((ClosedSurface(True, genus), 1, 1),)
    else:
        assert row.realized == ()


@pytest.mark.parametrize("base,d,b", ORACLE_SIMPLE_CELLS)
def test_simple_cells_match_bruteforce_oracle(base, d, b):
    # the s2 cells are answered from closed forms: the engine is compared
    # with the brute force too
    oracle = oracle_census(base, d, b, True)
    assert list(enumerate_covers(base, d, b, True).realized) == oracle
    assert list(classify_shard(enumerate_shard(base, d, b, True)).realized) == oracle


@pytest.mark.parametrize("base,d,b", ORACLE_NONSIMPLE_CELLS)
def test_nonsimple_cells_match_bruteforce_oracle(base, d, b):
    row = enumerate_covers(base, d, b, False)
    assert list(row.realized) == oracle_census(base, d, b, False)


def test_simple_chi_is_forced():
    for d in (2, 3, 4):
        for b in range(0, 7):
            for base in (SPHERE, PROJECTIVE_PLANE):
                row = enumerate_covers(base, d, b, True)
                for surface, raw, classes in row.realized:
                    assert raw >= classes >= 1
                    assert euler_characteristic(surface) == d * euler_characteristic(
                        base
                    ) - b


def test_shard_merge_is_order_independent():
    whole = enumerate_shard(PROJECTIVE_PLANE, 4, 4, True)
    keys = sorted(whole.counts)
    shards = [
        CensusShard(
            PROJECTIVE_PLANE, 4, 4, True, {key: whole.counts[key] for key in keys[i::3]}
        )
        for i in range(3)
    ]
    a = classify_shard(merge_shards(shards))
    b = classify_shard(merge_shards(reversed(shards)))
    assert a == b
    assert a.realized
    assert a == enumerate_covers(PROJECTIVE_PLANE, 4, 4, True)


def test_shards_from_different_cells_do_not_merge():
    with pytest.raises(ValueError):
        merge_shards(
            [
                enumerate_shard(SPHERE, 2, 2, True),
                enumerate_shard(SPHERE, 2, 4, True),
            ]
        )


def test_repeated_runs_identical():
    a = enumerate_covers(PROJECTIVE_PLANE, 4, 4, True)
    b = enumerate_covers(PROJECTIVE_PLANE, 4, 4, True)
    assert a == b


@pytest.mark.parametrize(
    "base, d, b, simple_only",
    [
        # a closed-form row whose counts pass the 4299 digits a report prints
        (ClosedSurface(False, 5000), 5, 8, True),
        # a row without branch points whose counts pass the digits a report prints
        (ClosedSurface(False, 5000), 6, 0, True),
        # o5/6/8 and torus/6/4 of any meridians were refused for the
        # listing's peak and now report (test_cells_once_refused_report);
        # at genus 30000 the character sums' powers pass the step budget
        (ClosedSurface(True, 30000), 6, 8, False),
        (ClosedSurface(True, 30000), 6, 4, False),
        # the character sums of s2/10^6/2 list partitions past the step budget
        (SPHERE, 10**6, 2, True),
        (SPHERE, 10**18, 0, True),
        # c = 21 for the sphere's degree-7 cells: its power passes the step budget
        (SPHERE, 7, 10**6, True),
        (SPHERE, 0, 2, True),
        (SPHERE, 2, -1, True),
    ],
)
def test_admission_refuses_cells_out_of_reach(base, d, b, simple_only):
    _group_table.cache_clear()
    with pytest.raises(LimitExceeded):
        enumerate_covers(base, d, b, simple_only)
    assert _group_table.cache_info().currsize == 0


@pytest.mark.parametrize(
    "base, d, b",
    [(ClosedSurface(True, 5), 6, 8), (TORUS, 6, 8), (KLEIN_BOTTLE, 5, 6), (ClosedSurface(False, 3), 5, 4)],
)
def test_closed_form_cells_are_answered_past_the_tuple_floor(base, d, b):
    # the listing's peak refused the engine these cells, but their simple
    # rows come from closed forms and list no tuple
    _group_table.cache_clear()
    (row,) = enumerate_covers(base, d, b, True).realized
    assert row[1:] == (connected_count(base, d, b, True), sum(class_counts(base, d, b)))
    assert _group_table.cache_info().currsize == 0


def test_tuples_of_any_meridians_by_inclusion_exclusion():
    # the count of a cell of any meridians: with r = 2 - chi and b >= 1,
    # (d!)^(r-1) ((d!-1)^b - (-1)^b) + (-1)^b (d!)^(r-1) sum (f^lambda)^chi
    for base in (TORUS, ClosedSurface(True, 2), ClosedSurface(True, 3),
                 KLEIN_BOTTLE, ClosedSurface(False, 3), ClosedSurface(False, 4)):
        chi = euler_characteristic(base)
        for d in range(2, 7):
            n = factorial(d)
            closed = fraction_simple_homs(chi, d, 0)
            for b in range(1, 7):
                sign = (-1) ** b
                want = n ** (1 - chi) * ((n - 1) ** b - sign) + sign * closed
                assert hom_count(base, d, b, simple_only=False) == want, (base, d, b)


def test_admission_reaches_past_eight_branch_points():
    assert enumerate_covers(SPHERE, 2, 9, True) == CensusRow(SPHERE, 2, 9, ())
    row = enumerate_covers(SPHERE, 2, 12, True)
    assert row.realized == ((ClosedSurface(True, 5), 1, 1),)


@pytest.mark.parametrize("b", [5000, 10**18])
def test_degree_2_cells_report_at_any_branch_count(b):
    # one double cover of the sphere branched at b points: its one key's
    # power is 1^b, and every count starts at the grade V = b, so the
    # sums take no longer for b = 10^18 than for b = 2
    assert enumerate_covers(SPHERE, 2, b, True).realized == ((ClosedSurface(True, b // 2 - 1), 1, 1),)


def test_empty_cell_builds_no_group_table():
    _group_table.cache_clear()
    row = enumerate_covers(SPHERE, 7, 2, True)
    assert row == CensusRow(SPHERE, 7, 2, ())
    assert _group_table.cache_info().currsize == 0


@pytest.mark.parametrize(
    "base, d, b, row",
    [
        (ClosedSurface(True, 2), 3, 4, (ClosedSurface(True, 6), 34944, 5824)),
        # refused by the listing's peak: 169,271,260 tuples
        (SPHERE, 5, 10, (TORUS, 142_732_800, 1_189_440)),
        # and 203,127,560 tuples, none of them orientable at odd degree
        (PROJECTIVE_PLANE, 5, 8, (ClosedSurface(False, 5), 185_285_520, 1_544_046)),
    ],
)
def test_closed_form_cell_builds_no_group_table(base, d, b, row):
    _group_table.cache_clear()
    assert enumerate_covers(base, d, b, True) == CensusRow(base, d, b, (row,))
    info = _group_table.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_empty_cell_is_still_bounded_when_enumerated_in_full():
    # s2/7/10 has no connected cover among its 11,052,356,721 tuples, so
    # enumerate_covers answers it from the characters and lists none
    _group_table.cache_clear()
    assert enumerate_covers(SPHERE, 7, 10, True) == CensusRow(SPHERE, 7, 10, ())
    assert _group_table.cache_info().currsize == 0


def _rows(realized):
    return [(s.orientable, s.genus, raw, classes) for s, raw, classes in realized]


# the rows of cells of any meridians that the listing's peak refused; the
# engine gave the same rows for the first four (1.1 to 4.9 s each)
ONCE_REFUSED_ROWS = {
    (SPHERE, 6, 4): [
        (True, 0, 11137680, 15650), (True, 1, 72157440, 100852), (True, 2, 146998080, 204888),
        (True, 3, 106381800, 148253), (True, 4, 22417920, 31252), (True, 5, 604800, 858),
    ],
    (PROJECTIVE_PLANE, 6, 3): [
        (True, 0, 25920, 36), (True, 1, 164400, 231), (True, 2, 187920, 282), (True, 3, 46800, 75),
        (True, 4, 1320, 8), (False, 2, 3046320, 4330), (False, 4, 43491600, 60708),
        (False, 6, 152100720, 212262), (False, 8, 137787120, 191970), (False, 10, 23258880, 32472),
    ],
    (PROJECTIVE_PLANE, 5, 4): [
        (False, 1, 10320, 86), (False, 3, 1520160, 12668), (False, 5, 21807960, 181733),
        (False, 7, 75668160, 630568), (False, 9, 78169440, 651412), (False, 11, 21151680, 176264),
        (False, 13, 675456, 5680),
    ],
    (TORUS, 5, 3): [
        (True, 3, 2286720, 19056), (True, 4, 35962920, 299691), (True, 5, 101386080, 844884),
        (True, 6, 57708000, 480900), (True, 7, 3273600, 27340),
    ],
    (TORUS, 6, 4): [
        (True, 3, 65197440, 90768), (True, 4, 17435128320, 24223952),
        (True, 5, 671685972480, 933022536), (True, 6, 8243123650560, 11449363472),
        (True, 7, 39498085087680, 54859916756), (True, 8, 76581991529280, 106365405260),
        (True, 9, 55377154344600, 76913722461), (True, 10, 11582184038400, 16086542352),
        (True, 11, 299106017280, 415444872),
    ],
    # its 17 rows are pinned by their report in test_reports
    (ClosedSurface(True, 5), 6, 8): None,
}


@pytest.mark.parametrize("cell", list(ONCE_REFUSED_ROWS), ids=lambda c: f"{c[0].name}-{c[1]}-{c[2]}")
def test_cells_once_refused_report(cell):
    # each row total is the scalar count of any meridians, a second route
    base, d, b = cell
    _group_table.cache_clear()
    row = enumerate_covers(base, d, b, False)
    assert _group_table.cache_info().currsize == 0
    want = ONCE_REFUSED_ROWS[cell]
    if want is not None:
        assert _rows(row.realized) == want
    else:
        assert len(row.realized) == 17
    assert sum(raw for _, raw, _ in row.realized) == all_connected_count(base, d, b)


_LAW_BASES = (SPHERE, TORUS, ClosedSurface(True, 2), PROJECTIVE_PLANE, KLEIN_BOTTLE,
              ClosedSurface(False, 3), ClosedSurface(False, 4))


def _law_rows(base, d, b):
    """The rows (orientable, chi) that the branched-cover existence
    theorem predicts for a cell of any meridians with b >= 1
    (Husemoller 1962 over orientable bases; Edmonds, Kulkarni and Stong
    1984): V = d chi(base) - chi is even with b <= V <= b (d - 1);
    orientable total spaces have chi <= 2 and, over n_h, even d and
    V <= b (d - 2), each meridian moving at most d/2 - 1 sheets of each
    half of the orientation double cover; nonorientable ones need a
    nonorientable base and chi <= 1."""
    chi = euler_characteristic(base)
    rows = set()
    for V in range(b + b % 2, b * (d - 1) + 1, 2):
        if d * chi - V <= 2 and (base.orientable or (d % 2 == 0 and V <= b * (d - 2))):
            rows.add((True, d * chi - V))
        if not base.orientable and d * chi - V <= 1:
            rows.add((False, d * chi - V))
    return rows


@pytest.mark.parametrize("base", _LAW_BASES, ids=lambda s: s.name)
def test_rows_of_any_meridians_obey_the_realizability_law(base):
    # every realized row obeys the law and every row it predicts is
    # realized: d <= 9 and 1 <= b <= 6, b <= 3 from degree 8
    for d in range(1, 10):
        for b in range(1, 4 if d >= 8 else 7):
            realized = enumerate_covers(base, d, b, False).realized
            got = {(s.orientable, euler_characteristic(s)) for s, _, _ in realized}
            assert got == _law_rows(base, d, b), (d, b)


def test_parity_audit_small():
    report = parity_audit(2, 2)
    assert isinstance(report, AuditReport)
    assert report.passed
    assert (2, 2, 2) in report.rows


def test_parity_audit_degree3():
    report = parity_audit(3, 5)
    assert report.passed
    assert all(h % 2 == 1 for d, b, h in report.rows if d == 3)
    assert all(h == 2 - d + b for d, b, h in report.rows)


def test_universal_report_degree2():
    report = universal_base_report_dim2(2, 3)
    assert [w.genus for w in report.sphere_witnesses] == [0, 1, 2, 3]
    assert all(w.degree == 2 for w in report.sphere_witnesses)
    assert all(
        w.branch_count == 2 * w.genus + 2 for w in report.sphere_witnesses
    )
    assert report.rp2_blocked_h == 1
    assert report.rp2_forced_branch == 1
    assert report.rp2_exhaustive_empty is True


def test_universal_report_degree3():
    report = universal_base_report_dim2(3, 2)
    assert report.rp2_blocked_h == 2
    assert report.rp2_forced_branch == 3
    assert report.rp2_exhaustive_cell == (3, 3)
    assert report.rp2_exhaustive_empty is True
    assert all(w.branch_count == 2 * w.genus + 2 * 3 - 2 for w in report.sphere_witnesses)


def test_universal_report_admits_degree_984_not_985():
    # the forced cell has an odd branch count, so it is empty without a
    # character sum; the two witnesses of degree 984 are the last within
    # the step budget (3,996,944 steps)
    report = universal_base_report_dim2(984, 1)
    assert report.rp2_exhaustive_cell == (984, 983)
    assert report.rp2_exhaustive_empty is True
    with pytest.raises(LimitExceeded, match="the sphere witnesses up to genus 1 would take more"):
        universal_base_report_dim2(985, 1)
    with pytest.raises(ValueError):
        universal_base_report_dim2(1, 1)


def test_degree_8_closed_form_cell_reports():
    # the S_8 tables refused every degree-8 cell, also those that build none
    _group_table.cache_clear()
    orientable, nonorientable = enumerate_covers(PROJECTIVE_PLANE, 8, 8, True).realized
    assert orientable == (TORUS, 28_178_841_600, 698_880)
    assert nonorientable == (KLEIN_BOTTLE, 387_754_859_520 - 28_178_841_600, 9_616_936 - 698_880)
    assert parity_audit(8, 8).passed
    assert _group_table.cache_info().currsize == 0


def test_parity_audit_admits_huge_ranges_without_listing_them(monkeypatch):
    def enumerated(*args):
        raise AssertionError(f"cell {args[1:3]} enumerated before admission")

    monkeypatch.setattr("coverbench.census._closed_form_row", enumerated)
    with pytest.raises(LimitExceeded):
        parity_audit(10**9, 10**9)


def test_parity_audit_prices_each_cell_once(monkeypatch):
    # the audit admits its cells in one pass and takes their rows unpriced,
    # and every price reads one table of partition counts, filled once
    priced, filled = [], []
    price, fill = census.sums_cost, characters._partition_table.__wrapped__
    monkeypatch.setattr(census, "sums_cost", lambda *cell: priced.append(cell) or price(*cell))
    monkeypatch.setattr(characters, "_partition_table", lru_cache(lambda: filled.append(1) or fill()))
    assert parity_audit(3, 4).passed
    assert sorted(priced, key=lambda cell: cell[1:3]) == [
        (PROJECTIVE_PLANE, d, b, True) for d in range(1, 4) for b in range(5)
    ]
    assert len(filled) == 1


# --- group tables and least class representatives ---


@pytest.mark.parametrize("d", range(1, 7))
def test_group_table_matches_perm_definitions(d):
    T = GroupTable(d)
    n = T.order
    perms = [Perm(tuple(int(v) for v in row)) for row in T.P]
    index = {p: i for i, p in enumerate(perms)}
    assert n == factorial(d) == len(index)
    assert [p.images for p in perms] == sorted(p.images for p in perms)
    assert perms[0] == identity(d)
    # whole tables in image terms: "i then j" sends y to P[j][P[i][y]],
    # and conj[t, x] = t^-1 x t sends y to P[t][P[x][P[t]^-1[y]]]
    P = T.P.astype(np.intp)
    Pinv = np.argsort(P, axis=1)
    rows = np.arange(n)
    assert np.array_equal(T.P[T.mult], T.P[rows[None, :, None], P[:, None, :]])
    inner = P[rows[None, :, None], Pinv[:, None, :]]
    assert np.array_equal(T.P[T.conj], T.P[rows[:, None, None], inner])
    # Perm composition on every pair up to d = 5, on a stride of rows at d = 6
    for i in range(0, n, 1 if d <= 5 else 37):
        p = perms[i]
        for j, q in enumerate(perms):
            assert T.mult[i, j] == index[compose(p, q)]
            assert T.conj[i, j] == index[compose_all([inverse(p), q, p])]
    assert [T.inv[i] for i in range(n)] == [index[inverse(p)] for p in perms]
    assert T.ncycles.tolist() == [len(p.cycles(include_fixed=True)) for p in perms]
    assert T.transpositions.tolist() == [i for i, p in enumerate(perms) if is_transposition(p)]
    # image[x, S] is x(S) as a bit mask: the sum of 2^x(i) over i in S
    members = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
    assert np.array_equal(T.image, (members[None] << P[:, None, :]).sum(axis=2))
    roots: dict[int, list[int]] = {}
    for i, p in enumerate(perms):
        roots.setdefault(index[compose(p, p)], []).append(i)
    for s in range(n):
        got = T.sqrt_flat[T.sqrt_off[s] : T.sqrt_off[s] + T.nsqrt[s]]
        assert T.nsqrt[s] == len(roots.get(s, []))
        assert got.tolist() == roots.get(s, [])


def _cap_address_space():
    cap = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_group_table_7_peak_memory_under_1gb():
    # mult and conj are two 5040 x 5040 int32 tables, about 200 MB; a
    # (7!, 7!, 7) int64 intermediate would take the child past 2.9 GB,
    # so the child runs under a 2 GiB address-space cap
    code = "from coverbench.orderly import GroupTable\nGroupTable(7)\n"
    child, peak = run_measured(
        [sys.executable, "-c", code], timeout=120, preexec_fn=_cap_address_space
    )
    assert child.returncode == 0, child.stderr
    assert peak < 1 << 30


_PROPERTY_BASES = (SPHERE, PROJECTIVE_PLANE, TORUS, ClosedSurface(True, 2), KLEIN_BOTTLE, ClosedSurface(False, 3))


@seed(20261017)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shard_keys_hit_every_class_once_with_its_orbit_size(data):
    # cells of at most 10,000 generator tuples, brute-forced with Perm
    base = data.draw(st.sampled_from(_PROPERTY_BASES), label="base")
    r = 2 * base.genus if base.orientable else base.genus
    d = data.draw(st.sampled_from([d for d in range(1, 5) if factorial(d) ** r <= 10_000]), label="d")
    simple = data.draw(st.booleans(), label="simple")
    pool = d * (d - 1) // 2 if simple else factorial(d) - 1
    b_max = max(b for b in range(7) if factorial(d) ** r * pool**b <= 10_000)
    b = data.draw(st.integers(0, b_max), label="b")
    classes = conjugation_classes(base, d, b, simple)
    class_of = {t: i for i, orbit in enumerate(classes) for t in orbit}
    T = _group_table(d)
    shard = enumerate_shard(base, d, b, simple)
    hits = [class_of[tuple(tuple(T.P[x].tolist()) for x in key)] for key in shard.counts]
    assert sorted(hits) == list(range(len(classes)))
    assert [len(classes[i]) for i in hits] == list(shard.counts.values())


def test_rp2_degree6_six_points_fits_in_one_gib():
    # listing the 28,398,780 tuples of this cell took 82 s and 2.8 GB
    argv = ["enumerate", "--base", "rp2", "--degree", "6", "--branch-points", "6"]
    child, peak = run_measured(
        [sys.executable, "-m", "coverbench.cli", *argv],
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert (child.returncode, child.stderr) == (0, ""), child.stderr
    rows = json.loads(child.stdout)["result"]["rows"]
    assert [(r["surface"]["name"], r["raw_count"], r["class_count"]) for r in rows] == [
        ("torus", 921_600, 1_280),
        ("Klein bottle", 13_312_800, 18_490),
    ]


# --- array classification against the per-class hurwitz route ---


def _datum(T: GroupTable, base: ClosedSurface, form) -> HurwitzData:
    perms = [Perm(tuple(int(v) for v in T.P[i])) for i in form]
    r = 2 * base.genus if base.orientable else base.genus
    if base.orientable:
        handles = tuple(zip(perms[0:r:2], perms[1:r:2]))
        return HurwitzData(base, T.degree, handles=handles, meridians=tuple(perms[r:]))
    return HurwitzData(base, T.degree, crosscaps=tuple(perms[:r]), meridians=tuple(perms[r:]))


O2 = ClosedSurface(True, 2)
N3 = ClosedSurface(False, 3)


@pytest.mark.parametrize(
    "base,d,b,simple",
    [
        (SPHERE, 1, 0, True),
        (SPHERE, 2, 1, True),  # empty: no tuple closes the relation
        (SPHERE, 3, 4, True),
        (SPHERE, 3, 2, False),
        (TORUS, 2, 2, False),
        (TORUS, 3, 2, False),
        (O2, 3, 0, True),
        (PROJECTIVE_PLANE, 1, 0, True),
        (PROJECTIVE_PLANE, 2, 0, True),
        (PROJECTIVE_PLANE, 4, 4, True),
        (PROJECTIVE_PLANE, 3, 2, False),
        (KLEIN_BOTTLE, 3, 2, False),
        (N3, 3, 2, True),
    ],
)
def test_array_classification_matches_total_space(base, d, b, simple):
    shard = enumerate_shard(base, d, b, simple)
    T = _group_table(d)
    k = (2 * base.genus if base.orientable else base.genus) + b
    forms = np.array(sorted(shard.counts), dtype=np.int32).reshape(len(shard.counts), k)
    connected, chi, orientable = _classify_forms(T, base, forms)
    realized: dict[ClosedSurface, list[int]] = {}
    for i, form in enumerate(forms.tolist()):
        datum = _datum(T, base, form)
        components = total_space(datum).components
        assert bool(connected[i]) == is_connected(datum)
        # chi of the whole total space, orientability of sheet 0's component
        assert chi[i] == sum(euler_characteristic(s) for s, _ in components)
        assert bool(orientable[i]) == components[0][0].orientable
        if connected[i]:
            assert classify(int(chi[i]), bool(orientable[i])) == components[0][0]
            bucket = realized.setdefault(components[0][0], [0, 0])
            bucket[0] += shard.counts[tuple(form)]
            bucket[1] += 1
    row = classify_shard(shard)
    assert dict((s, [raw, n]) for s, raw, n in row.realized) == realized
    assert [s for s, _, _ in row.realized] == sorted(
        realized, key=lambda s: (not s.orientable, s.genus)
    )


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_orbit_closure_matches_label_propagation(data):
    # any index arrays: rows need not close the relation or be connected
    d = data.draw(st.integers(1, 6), label="d")
    k = data.draw(st.integers(0, 8), label="columns")
    h = data.draw(st.integers(0, min(3, k)), label="crosscaps")
    genus = data.draw(st.integers(0, k // 2), label="genus")
    base = ClosedSurface(False, h) if h else ClosedSurface(True, genus)
    n = data.draw(st.integers(0, 300), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    T = _group_table(d)
    # a few elements and the identity, so that intransitive rows and
    # orbits needing several passes are common
    palette = np.append(rng.integers(0, T.order, size=data.draw(st.integers(1, 4))), 0)
    forms = rng.choice(palette, size=(n, k)).astype(np.int32)
    connected, orientable = _orbit_verdicts(T, base, forms)
    want_connected, want_orientable = label_verdicts(T, base, forms)
    assert connected.tolist() == want_connected.tolist()
    assert orientable.tolist() == want_orientable.tolist()


def test_classify_forms_rejects_broken_relations():
    T = _group_table(3)
    swap = int(T.transpositions[0])
    with pytest.raises(InvalidData):
        _classify_forms(T, SPHERE, np.array([[swap, 0]], dtype=np.int32))
    with pytest.raises(InvalidData):
        _classify_forms(T, SPHERE, np.array([[swap, int(T.transpositions[1])]], dtype=np.int32))


@pytest.mark.parametrize(
    "base,d,b,simple,totals",
    [
        (SPHERE, 4, 8, True, (131040, 5460)),
        (ClosedSurface(True, 2), 3, 4, True, (34944, 5824)),
        (PROJECTIVE_PLANE, 4, 4, False, (277110, 11856)),
        (PROJECTIVE_PLANE, 4, 6, True, (87504, 3662)),
        (TORUS, 4, 4, True, (58752, 2496)),
        (SPHERE, 4, 6, True, (2880, 120)),
    ],
)
def test_recorded_cell_totals(base, d, b, simple, totals):
    row = enumerate_covers(base, d, b, simple)
    assert (sum(raw for _, raw, _ in row.realized), sum(n for _, _, n in row.realized)) == totals
