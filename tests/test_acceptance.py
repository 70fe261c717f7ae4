"""Acceptance gate: one test per shipped guarantee, one printed verdict line
each. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Timing bounds are asserted with time.monotonic around the call under test.
"""
from __future__ import annotations

import random
import time

import pytest

from coverbench.census import parity_audit
from coverbench.exhaustion import (
    ExhaustionGraph,
    NormalizedExhaustion,
    Piece,
    count_ends,
    is_normalized_through,
    normalize,
    piece_shape,
    total_chi,
    validate_exhaustion,
)
from coverbench.hurwitz import (
    compose_orientation_double,
    construct_cyclic_rp2,
    construct_hyperelliptic,
    generators,
    stabilize,
    total_space,
    validate,
)
from coverbench.layered import build_cover, restriction_compatibility, staircase, verify_layered
from coverbench.perms import orbits
from coverbench.surfaces import PROJECTIVE_PLANE, SPHERE, euler_characteristic

from oracles import frontier_circles, lifted_cell_chi, random_valid_datum
from test_exhaustion import random_exhaustion


def verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def summary_chi(summary) -> int:
    return sum(euler_characteristic(s) for s, _ in summary.components)


def strand_tower(pants: int, depth: int) -> ExhaustionGraph:
    """Normal-shape exhaustion with the requested pants count, pants first,
    then parallel annulus strands down to the requested depth."""
    fresh = iter(range(1, 10_000))
    pieces = [Piece("d1", 1, 0, (), (next(fresh),))]
    strands = [pieces[0].outer[0]]
    level = 2
    remaining = pants
    while level <= depth:
        new_strands = []
        for idx, circle in enumerate(strands):
            if idx == 0 and remaining > 0:
                out = (next(fresh), next(fresh))
                pieces.append(Piece(f"p{level}", level, 0, (circle,), out))
                remaining -= 1
            else:
                out = (next(fresh),)
                pieces.append(Piece(f"a{level}.{idx}", level, 0, (circle,), out))
            new_strands.extend(out)
        strands = new_strands
        level += 1
    return ExhaustionGraph(tuple(pieces))


class TestAcceptance:
    def test_criterion_01_parity_audit_clean_and_fast(self):
        start = time.monotonic()
        small = parity_audit(4, 6)
        small_elapsed = time.monotonic() - start
        start = time.monotonic()
        full = parity_audit(5, 6)
        full_elapsed = time.monotonic() - start
        ok = (
            small.passed
            and full.passed
            and small_elapsed < 5.0
            and full_elapsed < 300.0
        )
        verdict(
            ok,
            "criterion 1: parity audit dmax=5 bmax=6 has zero violations"
            f" ({full_elapsed:.2f}s full, {small_elapsed:.2f}s at dmax=4)",
        )

    def test_criterion_02_count_law_on_every_realized_row(self):
        report = parity_audit(5, 6)
        rows = report.rows
        exact = all(h == 2 - d + b for d, b, h in rows)
        variant_fails = any(d + h != 2 - b for d, b, h in rows)
        ok = bool(rows) and exact and variant_fails
        verdict(
            ok,
            "criterion 2: crosscaps = 2 - degree + branch_points on all"
            f" {len(rows)} realized rows; variant relation rejected",
        )

    def test_criterion_03_cyclic_family_hits_every_crosscap_count(self):
        ok = True
        for h in range(1, 13):
            datum = construct_cyclic_rp2(h)
            summary = total_space(datum)
            ok = ok and validate(datum).ok and summary.connected
            surface = summary.components[0][0]
            ok = (
                ok
                and not surface.orientable
                and surface.genus == h
                and euler_characteristic(surface) == 2 - h
            )
        verdict(ok, "criterion 3: cyclic family realizes crosscaps 1..12 with chi = 2-h")

    def test_criterion_04_orientation_double_of_hyperelliptic(self):
        ok = True
        for g in range(6):
            datum = compose_orientation_double(construct_hyperelliptic(g))
            ok = ok and datum.base == PROJECTIVE_PLANE and datum.degree == 4
            summary = total_space(datum)
            ok = ok and summary.connected
            surface = summary.components[0][0]
            ok = ok and surface.orientable and surface.genus == g
        verdict(
            ok,
            "criterion 4: orientation double of hyperelliptic data gives"
            " degree-4 genus-g covers of the projective plane for g = 0..5",
        )

    def test_criterion_05_stabilization_fills_the_degree_range(self):
        ok = True
        for g in range(5):
            for n in range(2, 6):
                datum = stabilize(construct_hyperelliptic(g), n - 2)
                summary = total_space(datum)
                surface = summary.components[0][0]
                ok = (
                    ok
                    and validate(datum).ok
                    and datum.base == SPHERE
                    and datum.degree == n
                    and summary.simple
                    and summary.connected
                    and surface.orientable
                    and surface.genus == g
                )
        verdict(
            ok,
            "criterion 5: stabilized hyperelliptic data cover the full"
            " degree 2..5 by genus 0..4 grid over the sphere",
        )

    def test_criterion_06_chi_agrees_with_lifted_cell_count(self):
        rng = random.Random(20260817)
        start = time.monotonic()
        ok = True
        for _ in range(1000):
            datum = random_valid_datum(rng)
            summary = total_space(datum)
            cells = sum(
                lifted_cell_chi(datum, orbit)
                for orbit in orbits(generators(datum), datum.degree)
            )
            ok = ok and summary_chi(summary) == cells
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 10.0
        verdict(
            ok,
            "criterion 6: classification chi matches the lifted cell count"
            f" on 1000 random valid data ({elapsed:.2f}s)",
        )

    def test_criterion_07_covers_over_sample_exhaustions(self):
        ok = True
        for k in range(1, 7):
            graph = strand_tower(k - 1, 25)
            ok = ok and validate_exhaustion(graph).ok
            ok = ok and is_normalized_through(graph, 20)
            ends = count_ends(graph, 20, remaining=0)
            ok = ok and ends.exact and ends.ends == k
            cover = build_cover(graph, 20)
            ok = ok and cover.degree == 2 * k and verify_layered(cover).ok
        verdict(
            ok,
            "criterion 7: sample exhaustions with 1..6 ends lift to degree-2k"
            " verified covers through level 20",
        )

    def test_criterion_08_staircase_restrictions(self):
        tower = staircase(50)
        start = time.monotonic()
        ok = all(restriction_compatibility(tower, i) for i in range(1, 50))
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 1.0
        verdict(
            ok,
            "criterion 8: staircase(50) restricts compatibly at every"
            f" level 1..49 ({elapsed:.3f}s)",
        )

    def test_criterion_09_ends_never_exceed_degree(self):
        covers = []
        for k in range(1, 7):
            graph = strand_tower(k - 1, 25)
            covers.append((build_cover(graph, 20), count_ends(graph, 20).ends))
        for levels in (3, 10, 30):
            covers.append((staircase(levels), 1))
        rng = random.Random(99)
        for _ in range(20):
            graph = normalize(random_exhaustion(rng))
            depth = graph.stable_depth
            covers.append((build_cover(graph, depth), count_ends(graph, depth).ends))
        ok = all(
            ends <= cover.degree and 1 + sum(b.kind == "pants" for b in cover.blocks) <= cover.degree
            for cover, ends in covers
        )
        verdict(
            ok,
            f"criterion 9: ends within degree on all {len(covers)} generated covers",
        )

    def test_criterion_10_normalization_on_random_graphs(self):
        rng = random.Random(4242)
        ok = True
        for _ in range(50):
            graph = random_exhaustion(rng, max_levels=8, max_pieces=5)
            result = normalize(graph)
            ok = ok and isinstance(result, NormalizedExhaustion)
            ok = ok and validate_exhaustion(result).ok
            ok = ok and is_normalized_through(result, result.stable_depth)
            for p in result.pieces:
                shape = piece_shape(p)
                ok = ok and (shape in ("a", "b") or (p.level == 1 and shape == "disk"))
            ok = ok and total_chi(result) == total_chi(graph)
            ok = ok and len(frontier_circles(result)) == len(frontier_circles(graph))
            again = normalize(result)
            ok = ok and again.pieces == result.pieces
            ok = ok and again.stable_depth == result.stable_depth
        verdict(
            ok,
            "criterion 10: normalization reaches normal shape on 50 random"
            " graphs, preserving chi, end count, and its own output",
        )
