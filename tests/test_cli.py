"""End-to-end tests for the command line front end and the JSON codecs."""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from coverbench import jsonio
from coverbench.cli import build_parser, format_cycles, main, parse_base, parse_cycles
from coverbench.errors import InvalidInput
from coverbench.exhaustion import ExhaustionGraph, Piece, normalize
from coverbench.hurwitz import HurwitzData, construct_hyperelliptic
from coverbench.layered import build_cover, staircase
from coverbench.perms import Perm
from coverbench.surfaces import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    ClosedSurface,
)
from oracles import run_measured, stdlib_dumps


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage failures
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def report_of(text):
    doc = json.loads(text)
    assert doc["format"] == "report"
    assert doc["version"] == 1
    assert doc["tool"] == "coverbench"
    assert set(doc) == {
        "format",
        "version",
        "tool",
        "tool_version",
        "command",
        "input_digest",
        "result",
    }
    return doc


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(jsonio.dumps(doc))
    return str(path)


def sample_graph():
    return ExhaustionGraph((
        Piece("r", 1, 0, (), (1, 2, 3)),
        Piece("a", 2, 1, (1,), (4,)),
        Piece("b", 2, 0, (2,), (5,)),
        Piece("c", 2, 0, (3,), (6,)),
    ))


class TestSpecExamples:
    def test_classify_genus_two(self):
        rc, out, _ = run_cli(["classify", "--chi", "-2", "--orientable", "true"])
        assert rc == 0
        doc = report_of(out)
        surface = doc["result"]["surface"]
        assert surface["orientable"] is True
        assert surface["genus"] == 2
        assert surface["euler_characteristic"] == -2

    def test_enumerate_parity_blocked_cell_is_empty(self):
        rc, out, _ = run_cli(
            ["enumerate", "--base", "rp2", "--degree", "3",
             "--branch-points", "3", "--simple"]
        )
        assert rc == 0
        res = report_of(out)["result"]
        assert res["rows"] == []
        assert res["total_raw"] == 0
        assert res["simple_only"] is True

    def test_staircase_three_levels_verifies(self):
        rc, out, _ = run_cli(["staircase", "--levels", "3", "--verify"])
        assert rc == 0
        res = report_of(out)["result"]
        assert res["cover"]["degree"] == 4
        assert res["verification"]["ok"] is True
        assert all(c["passed"] for c in res["verification"]["checks"])


class TestReportEnvelope:
    def test_repeated_runs_are_byte_identical(self):
        _, first, _ = run_cli(["parity-audit", "--dmax", "3", "--bmax", "4"])
        _, second, _ = run_cli(["parity-audit", "--dmax", "3", "--bmax", "4"])
        assert first == second

    def test_digest_depends_on_parameters(self):
        _, a, _ = run_cli(["classify", "--chi", "-2", "--orientable", "true"])
        _, b, _ = run_cli(["classify", "--chi", "-4", "--orientable", "true"])
        assert json.loads(a)["input_digest"] != json.loads(b)["input_digest"]

    def test_file_digest_matches_bytes(self, tmp_path):
        import hashlib

        path = write_doc(
            tmp_path, "h.json", jsonio.hurwitz_to_json(construct_hyperelliptic(1))
        )
        rc, out, _ = run_cli(["validate", "--input", path])
        assert rc == 0
        with open(path, "rb") as fh:
            expected = hashlib.sha256(fh.read()).hexdigest()
        assert json.loads(out)["input_digest"] == expected


class TestCycleNotation:
    def test_basic_product_of_cycles(self):
        p = parse_cycles("(0 1)(2 3)", 4)
        assert p.images == (1, 0, 3, 2)

    def test_commas_and_spacing(self):
        assert parse_cycles("(0, 2, 1)", 3).images == (2, 0, 1)
        assert parse_cycles("  (1 2) ", 3).images == (0, 2, 1)

    def test_identity_spellings(self):
        for text in ("id", "()", ""):
            assert parse_cycles(text, 3).images == (0, 1, 2)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidInput):
            parse_cycles("0 1", 3)
        with pytest.raises(InvalidInput):
            parse_cycles("(0 x)", 3)
        with pytest.raises(InvalidInput):
            parse_cycles("(0 3)", 3)

    def test_format_round_trip(self):
        p = parse_cycles("(0 2 4)(1 3)", 5)
        assert parse_cycles(format_cycles(p), 5) == p
        assert format_cycles(Perm((0, 1, 2))) == "id"


class TestBaseTokens:
    def test_named_tokens(self):
        assert parse_base("s2") == SPHERE
        assert parse_base("sphere") == SPHERE
        assert parse_base("rp2") == PROJECTIVE_PLANE
        assert parse_base("TORUS") == TORUS
        assert parse_base("klein") == KLEIN_BOTTLE

    def test_parametrized_tokens(self):
        assert parse_base("o3") == ClosedSurface(True, 3)
        assert parse_base("n4") == ClosedSurface(False, 4)

    def test_unknown_token_exits_2(self):
        rc, _, err = run_cli(
            ["enumerate", "--base", "donut", "--degree", "2", "--branch-points", "2"]
        )
        assert rc == 2
        assert "unknown base" in err


class TestJsonRoundTrips:
    def test_perm(self):
        p = Perm((2, 0, 1, 3))
        doc = jsonio.perm_to_json(p)
        assert jsonio.perm_from_json(doc) == p

    def test_hurwitz(self):
        datum = construct_hyperelliptic(3)
        again = jsonio.hurwitz_from_json(
            json.loads(jsonio.dumps(jsonio.hurwitz_to_json(datum)))
        )
        assert again == datum

    def test_hurwitz_with_handles_and_crosscaps(self):
        datum = HurwitzData(
            KLEIN_BOTTLE,
            2,
            crosscaps=(Perm((1, 0)), Perm((1, 0))),
            meridians=(Perm((1, 0)), Perm((1, 0))),
        )
        assert jsonio.hurwitz_from_json(jsonio.hurwitz_to_json(datum)) == datum

    def test_exhaustion_plain_and_normalized(self):
        g = sample_graph()
        back = jsonio.exhaustion_from_json(
            json.loads(jsonio.dumps(jsonio.exhaustion_to_json(g)))
        )
        assert back.pieces == g.pieces
        n = normalize(g)
        doc = jsonio.exhaustion_to_json(n)
        assert doc["stable_depth"] == n.stable_depth
        back = jsonio.exhaustion_from_json(doc)
        assert back.stable_depth == n.stable_depth
        assert back.pieces == n.pieces

    def test_layered(self):
        cover = staircase(4)
        back = jsonio.layered_from_json(
            json.loads(jsonio.dumps(jsonio.layered_to_json(cover)))
        )
        assert back == cover

    def test_built_cover_survives_round_trip(self):
        n = normalize(sample_graph())
        cover = build_cover(n, n.stable_depth)
        back = jsonio.layered_from_json(jsonio.layered_to_json(cover))
        assert back == cover

    def test_sniff_rejects_unknown(self):
        with pytest.raises(InvalidInput):
            jsonio.sniff({"format": "mystery", "version": 1})
        with pytest.raises(InvalidInput):
            jsonio.sniff({"format": "hurwitz", "version": 2})

    def test_loads_rejects_non_object(self):
        with pytest.raises(InvalidInput):
            jsonio.loads("[1, 2]")
        with pytest.raises(InvalidInput):
            jsonio.loads("not json")


_INTS = st.one_of(
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 10**40, -1]),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324]),
)
_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\U0001f600'))
)
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
# a dict's keys share one type, as the stdlib sorts them against each other
_KEY_TYPES = st.sampled_from([_TEXT, _INTS, _FLOATS, st.booleans(), st.none()])


def _containers(children):
    int_lists = st.lists(_INTS, max_size=6)
    lists = st.lists(children, max_size=5)
    return st.one_of(
        int_lists,
        int_lists.map(tuple),
        lists,
        lists.map(tuple),
        _KEY_TYPES.flatmap(lambda keys: st.dictionaries(keys, children, max_size=5)),
    )


@seed(20261021)
@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _containers, max_leaves=40))
def test_dumps_is_the_stdlib_encoding(x):
    assert jsonio.dumps(x) == stdlib_dumps(x)


@pytest.mark.parametrize(
    "x", [{1, 2}, object(), [1, {2}], {"a": object()}, {object(): 1}, {(1, 2): 3}]
)
def test_dumps_refuses_what_the_stdlib_refuses(x):
    with pytest.raises(TypeError):
        stdlib_dumps(x)
    with pytest.raises(TypeError):
        jsonio.dumps(x)


def test_every_subcommand_reports_the_stdlib_encoding(tmp_path, monkeypatch):
    normal = normalize(sample_graph())
    depth = str(normal.stable_depth)
    h = write_doc(tmp_path, "h.json", jsonio.hurwitz_to_json(construct_hyperelliptic(2)))
    e = write_doc(tmp_path, "e.json", jsonio.exhaustion_to_json(sample_graph()))
    n = write_doc(tmp_path, "n.json", jsonio.exhaustion_to_json(normal))
    c = write_doc(tmp_path, "c.json", jsonio.layered_to_json(staircase(3)))
    runs = [
        ["classify", "--chi", "-2", "--orientable", "true"],
        ["validate", "--input", e],
        ["total-space", "--input", h],
        ["construct", "--family", "cyclic-rp2", "--crosscaps", "3"],
        ["stabilize", "--input", h, "--times", "1"],
        ["compose-double", "--input", h],
        ["enumerate", "--base", "rp2", "--degree", "3", "--branch-points", "2"],
        ["parity-audit", "--dmax", "3", "--bmax", "2"],
        ["universal-report", "--degree", "3", "--genus-max", "1"],
        ["normalize", "--input", e],
        ["count-ends", "--input", n, "--levels", depth, "--remaining", "inf"],
        ["build-cover", "--input", n, "--levels", depth],
        ["staircase", "--levels", "3", "--verify"],
        ["verify", "--input", c, "--restrictions"],
        ["compose-staircase", "--input", c, "--levels", "2"],
    ]
    subcommands = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
    assert {argv[0] for argv in runs} == set(subcommands)
    docs = []
    encode = jsonio.dumps
    monkeypatch.setattr(jsonio, "dumps", lambda doc: docs.append(doc) or encode(doc))
    for argv in runs:
        docs.clear()
        rc, out, err = run_cli(argv)
        assert (rc, err) == (0, ""), argv
        assert out == stdlib_dumps(docs[0]), argv


class TestDatumCommands:
    def test_total_space_from_flags(self):
        rc, out, _ = run_cli(
            ["total-space", "--base", "s2", "--degree", "2",
             "--meridians", "(0 1);(0 1);(0 1);(0 1)"]
        )
        assert rc == 0
        res = report_of(out)["result"]
        assert res["summary"]["components"][0]["surface"]["name"] == "torus"
        assert res["meridian_cycles"] == ["(0 1)"] * 4

    def test_total_space_from_file(self, tmp_path):
        path = write_doc(
            tmp_path, "h.json", jsonio.hurwitz_to_json(construct_hyperelliptic(2))
        )
        rc, out, _ = run_cli(["total-space", "--input", path])
        assert rc == 0
        comp = report_of(out)["result"]["summary"]["components"]
        assert comp == [
            {
                "surface": {
                    "orientable": True,
                    "genus": 2,
                    "name": "orientable genus-2 surface",
                    "euler_characteristic": -2,
                },
                "sheets": 2,
            }
        ]

    def test_validate_reports_problems_with_status_1(self):
        rc, out, _ = run_cli(
            ["validate", "--base", "s2", "--degree", "2", "--meridians", "(0 1)"]
        )
        assert rc == 1
        res = report_of(out)["result"]
        assert res["ok"] is False
        assert res["problems"]

    def test_construct_families(self):
        rc, out, _ = run_cli(["construct", "--family", "hyperelliptic", "--genus", "2"])
        assert rc == 0
        assert report_of(out)["result"]["summary"]["branch_points"] == 6
        rc, out, _ = run_cli(["construct", "--family", "cyclic-rp2", "--crosscaps", "4"])
        assert rc == 0
        surface = report_of(out)["result"]["summary"]["components"][0]["surface"]
        assert surface == {
            "orientable": False,
            "genus": 4,
            "name": "nonorientable surface with 4 crosscaps",
            "euler_characteristic": -2,
        }

    def test_construct_missing_parameter_exits_2(self):
        rc, _, err = run_cli(["construct", "--family", "hyperelliptic"])
        assert rc == 2
        assert "genus" in err

    def test_stabilize_twice(self, tmp_path):
        path = write_doc(
            tmp_path, "h.json", jsonio.hurwitz_to_json(construct_hyperelliptic(1))
        )
        rc, out, _ = run_cli(["stabilize", "--input", path, "--times", "2"])
        assert rc == 0
        res = report_of(out)["result"]
        assert res["summary"]["degree"] == 4
        assert res["summary"]["simple"] is True
        assert res["times"] == 2

    def test_compose_double_doubles_degree(self, tmp_path):
        path = write_doc(
            tmp_path, "h.json", jsonio.hurwitz_to_json(construct_hyperelliptic(3))
        )
        rc, out, _ = run_cli(["compose-double", "--input", path])
        assert rc == 0
        summary = report_of(out)["result"]["summary"]
        assert summary["degree"] == 4
        assert summary["components"][0]["surface"]["genus"] == 3
        assert summary["components"][0]["surface"]["orientable"] is True


class TestCensusCommands:
    def test_parity_audit_passes_and_notes_flag_variant_relation(self):
        rc, out, _ = run_cli(["parity-audit", "--dmax", "3", "--bmax", "4"])
        assert rc == 0
        res = report_of(out)["result"]
        assert res["passed"] is True
        assert res["violations"] == []
        assert any("inconsistent" in note for note in res["notes"])
        for row in res["realized_rows"]:
            assert row["crosscaps"] == 2 - row["degree"] + row["branch_points"]

    def test_small_degree_7_cell_needs_no_environment(self):
        rc, out, err = run_cli(
            ["enumerate", "--base", "s2", "--degree", "7", "--branch-points", "2"]
        )
        assert (rc, err) == (0, "")
        assert report_of(out)["result"]["rows"] == []

    def test_universal_report_admits_degree_7_not_8(self):
        rc, out, _ = run_cli(["universal-report", "--degree", "7", "--genus-max", "1"])
        assert rc == 0
        assert report_of(out)["result"]["rp2_exhaustive_cell"] == [7, 7]
        rc, out, err = run_cli(["universal-report", "--degree", "8", "--genus-max", "1"])
        assert (rc, out) == (2, "")
        assert err == "error: degree 8: the group tables of S_8 exceed the memory budget\n"

    def test_parity_audit_refuses_before_enumerating(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError(f"cell {args[1:3]} enumerated before admission")

        monkeypatch.setattr("coverbench.census.enumerate_covers", enumerated)
        rc, out, err = run_cli(["parity-audit", "--dmax", "6", "--bmax", "8"])
        assert (rc, out) == (2, "")
        assert err.startswith("error: census cell (projective plane, degree 6, 8 branch points")

    def test_enumeration_disagreeing_with_character_count_exits_2(self, monkeypatch):
        monkeypatch.setattr("coverbench.census.connected_count", lambda *args: 3)
        rc, out, err = run_cli(
            ["enumerate", "--base", "s2", "--degree", "2", "--branch-points", "2"]
        )
        assert (rc, out) == (2, "")
        assert err == (
            "error: census cell (sphere, degree 2, 2 branch points, simple) enumerates"
            " 1 connected tuples, but the characters of S_2 count 3\n"
        )

    def test_out_of_memory_exits_2_without_traceback(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("coverbench.census.enumerate_covers", exhausted)
        rc, out, err = run_cli(
            ["enumerate", "--base", "s2", "--degree", "2", "--branch-points", "2"]
        )
        assert rc == 2
        assert out == ""
        assert err == "error: out of memory running enumerate\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--base", "s2", "--degree", "2", "--branch-points", "2"],
            ["parity-audit", "--dmax", "2", "--bmax", "2"],
        ],
    )
    def test_workers_flag_is_gone(self, argv):
        rc, out, err = run_cli(argv + ["--workers", "2"])
        assert rc == 2 and out == ""
        assert "Traceback" not in err
        assert "--workers" in err

    def test_universal_report(self):
        rc, out, _ = run_cli(["universal-report", "--degree", "3", "--genus-max", "2"])
        assert rc == 0
        res = report_of(out)["result"]
        assert {w["genus"] for w in res["sphere_witnesses"]} == {0, 1, 2}
        assert res["rp2_blocked_crosscaps"]


class TestExhaustionCommands:
    def test_normalize_then_count_ends(self, tmp_path):
        path = write_doc(
            tmp_path, "e.json", jsonio.exhaustion_to_json(sample_graph())
        )
        rc, out, _ = run_cli(["normalize", "--input", path])
        assert rc == 0
        res = report_of(out)["result"]
        assert res["chi_before"] == res["chi_after"] == -3
        assert res["exhaustion"]["format"] == "exhaustion"
        npath = write_doc(tmp_path, "n.json", res["exhaustion"])
        depth = str(res["stable_depth"])

        rc, out, _ = run_cli(
            ["count-ends", "--input", npath, "--levels", depth, "--remaining", "0"]
        )
        assert rc == 0
        assert report_of(out)["result"] == {
            "levels": res["stable_depth"],
            "ends": 3,
            "exact": True,
            "infinite": False,
        }

        rc, out, _ = run_cli(
            ["count-ends", "--input", npath, "--levels", depth, "--remaining", "inf"]
        )
        assert report_of(out)["result"]["infinite"] is True

        rc, out, _ = run_cli(["count-ends", "--input", npath, "--levels", depth])
        assert report_of(out)["result"]["exact"] is False

    def test_count_ends_on_raw_graph_exits_2(self, tmp_path):
        path = write_doc(
            tmp_path, "e.json", jsonio.exhaustion_to_json(sample_graph())
        )
        rc, _, err = run_cli(["count-ends", "--input", path, "--levels", "2"])
        assert rc == 2
        assert "normal shape" in err

    def test_build_verify_compose_chain(self, tmp_path):
        n = normalize(sample_graph())
        npath = write_doc(tmp_path, "n.json", jsonio.exhaustion_to_json(n))
        rc, out, _ = run_cli(
            ["build-cover", "--input", npath, "--levels", str(n.stable_depth)]
        )
        assert rc == 0
        cover_doc = report_of(out)["result"]["cover"]
        assert cover_doc["degree"] == 6

        cpath = write_doc(tmp_path, "c.json", cover_doc)
        rc, out, _ = run_cli(["verify", "--input", cpath, "--restrictions"])
        assert rc == 0
        res = report_of(out)["result"]
        assert res["ok"] is True
        assert res["restrictions"]["all_compatible"] is True
        assert res["restrictions"]["checked_levels"] == list(
            range(1, cover_doc["depth"])
        )

        rc, out, _ = run_cli(["compose-staircase", "--input", cpath, "--levels", "4"])
        assert rc == 0
        res = report_of(out)["result"]
        assert res["fiber_count"] == 6 * 5
        assert res["potentially_nonsimple"] is True

    def test_verify_flags_corruption_with_status_1(self, tmp_path):
        doc = jsonio.layered_to_json(staircase(4))
        for block in doc["blocks"]:
            if block["piece"] == "s3":
                block["meridians"] = [[0, 2]]
        path = write_doc(tmp_path, "bad.json", doc)
        rc, out, _ = run_cli(["verify", "--input", path])
        assert rc == 1
        res = report_of(out)["result"]
        assert res["ok"] is False
        failed = [c["name"] for c in res["checks"] if not c["passed"]]
        assert failed

    def test_usage_errors_exit_2(self, tmp_path):
        rc, _, _ = run_cli(["staircase", "--levels", "0"])
        assert rc == 2
        rc, _, _ = run_cli(["build-cover", "--input", str(tmp_path / "nope.json"),
                            "--levels", "2"])
        assert rc == 2
        rc, _, _ = run_cli(["classify", "--chi", "-3", "--orientable", "true"])
        assert rc == 2
        rc, _, _ = run_cli(["classify", "--chi", "-2"])
        assert rc == 2

    def test_validate_dispatches_on_format(self, tmp_path):
        path = write_doc(
            tmp_path, "e.json", jsonio.exhaustion_to_json(sample_graph())
        )
        rc, out, _ = run_cli(["validate", "--input", path])
        assert rc == 0
        assert report_of(out)["result"]["kind"] == "exhaustion"


# --- malformed documents end in a report or a one-line error ---


def _hurwitz_doc(**changes):
    return {**jsonio.hurwitz_to_json(construct_hyperelliptic(1)), **changes}


def _exhaustion_doc(piece_changes):
    doc = jsonio.exhaustion_to_json(sample_graph())
    doc["pieces"][1].update(piece_changes)
    return doc


def _layered_doc(piece, **changes):
    doc = jsonio.layered_to_json(staircase(4))
    for block in doc["blocks"]:
        if block["piece"] == piece:
            block.update(changes)
    return doc


MALFORMED = {
    "handles-not-a-list": (_hurwitz_doc(handles=5), ["total-space", "validate", "stabilize"], 2),
    "crosscaps-not-a-list": (_hurwitz_doc(crosscaps={}), ["compose-double"], 2),
    "outer-not-ints": (_exhaustion_doc({"outer": [[1]]}), ["validate", "normalize"], 2),
    "inner-not-a-list": (_exhaustion_doc({"inner": 2}), ["validate"], 2),
    "orientable-not-a-bool": (_exhaustion_doc({"orientable": "no"}), ["validate"], 2),
    "outbound-cycle-not-a-list": (_layered_doc("s2", outbound=[[1, 5]]), ["verify"], 2),
    "label-not-ints": (_layered_doc("s2", labels=[[[2], 1]]), ["verify"], 2),
    "meridian-off-the-sheets": (
        _layered_doc("s3", meridians=[[0, 7]]),
        ["verify", "verify --restrictions"],
        1,
    ),
    "sheets-repeat": (
        _layered_doc("s3", sheets=[0, 1, 2, 2, 3], meridians=[[2, 3]]),
        ["verify", "verify --restrictions"],
        1,
    ),
    "inbound-repeats-a-sheet": (
        _layered_doc("s3", inbound=[0, 2, 0]),
        ["verify --restrictions"],
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_exit_cleanly(tmp_path, name):
    doc, commands, want = MALFORMED[name]
    path = write_doc(tmp_path, "doc.json", doc)
    for command in commands:
        words = command.split()
        rc, out, err = run_cli([words[0], "--input", path, *words[1:]])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
        if rc == 1:
            assert report_of(out)["result"]["ok"] is False
        if rc == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert rc == want, (command, err)


def test_stabilize_rejects_negative_times(tmp_path):
    path = write_doc(tmp_path, "h.json", _hurwitz_doc())
    rc, out, err = run_cli(["stabilize", "--input", path, "--times", "-3"])
    assert rc == 2 and out == ""
    assert err == "error: --times cannot be negative\n"


def test_depth_beyond_the_block_count_exits_2_quickly(tmp_path):
    doc = jsonio.layered_to_json(staircase(4))
    doc["depth"] = 200000
    path = write_doc(tmp_path, "deep.json", doc)
    start = time.perf_counter()
    rc, out, err = run_cli(["verify", "--input", path, "--restrictions"])
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert err == "error: layered.depth 200000 exceeds the 4 blocks\n"


def _cap_address_space():
    cap = 256 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_far_level_exits_cleanly_under_a_memory_cap(tmp_path):
    # a two-piece document whose second level is 10^12: a check that
    # built the set 1..level would need terabytes, so the children run
    # under a 256 MiB address-space cap
    far = 10**12
    doc = jsonio.exhaustion_to_json(ExhaustionGraph((
        Piece("r", 1, 0, (), (1,)),
        Piece("x", far, 0, (1,), (2,)),
    )))
    path = write_doc(tmp_path, "far.json", doc)
    problems = [
        "levels are not contiguous from 1",
        f"piece 'x' at level {far} references circle 1 at level 1",
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for command, want in (("validate", 1), ("normalize", 2), ("count-ends --levels 2", 2)):
        words = command.split()
        child = subprocess.run(
            [sys.executable, "-m", "coverbench.cli", words[0], "--input", path, *words[1:]],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
            preexec_fn=_cap_address_space,
        )
        assert child.returncode == want, (command, child.stderr)
        if want == 1:
            assert report_of(child.stdout)["result"]["problems"] == problems
        else:
            assert child.stdout == ""
            assert child.stderr == f"error: {'; '.join(problems)}\n"


def test_empty_census_cell_reports_without_enumerating():
    # s2/6/8 has 10,198,665 valid tuples and no connected one; enumerating
    # them takes about 90 s and 1.3 GB, so the child runs under a 1 GiB cap
    argv = ["enumerate", "--base", "s2", "--degree", "6", "--branch-points", "8"]
    start = time.perf_counter()
    child, peak = run_measured(
        [sys.executable, "-m", "coverbench.cli", *argv],
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    elapsed = time.perf_counter() - start
    assert child.returncode == 0, child.stderr
    assert report_of(child.stdout)["result"]["rows"] == []
    assert elapsed < 5
    assert peak < 100 << 20


def test_staircase_report_peaks_under_100_mb():
    # the 17.9 MB report of staircase(800): the stdlib's indent encoder
    # held one string per token until its final join and peaked at 138 MB
    argv = ["staircase", "--levels", "800", "--verify"]
    child, peak = run_measured([sys.executable, "-m", "coverbench.cli", *argv], timeout=120)
    assert child.returncode == 0, child.stderr
    assert len(child.stdout) > 17 << 20
    assert peak < 100 << 20


def test_high_genus_cells_are_answered_before_any_character_sum():
    # the tuple count of o30000/6/0 has 171,438 digits: computing it took
    # 7 s and printing it failed, so the closed-form floor refuses the cell
    # first; with one branch point the cell is empty by parity
    start = time.perf_counter()
    rc, out, err = run_cli(["enumerate", "--base", "o30000", "--degree", "6", "--branch-points", "0"])
    assert (rc, out) == (2, "")
    assert err == (
        "error: census cell (orientable genus-30000 surface, degree 6, 0 branch points) "
        "has a tuple count of at least 171438 digits, over the 4096 MiB budget\n"
    )
    rc, out, err = run_cli(["enumerate", "--base", "o30000", "--degree", "6", "--branch-points", "1"])
    assert (rc, err) == (0, "")
    assert report_of(out)["result"]["rows"] == []
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "cell", [("rp2", 5, 8), ("rp2", 6, 8), ("o5", 6, 8), ("s2", 8, 2), ("s2", 2, 5000)]
)
def test_cells_out_of_reach_are_refused_at_once(cell):
    # rp2/5/8 alone has 203,127,560 tuples: the refusal must come from the
    # cell's counts, before any group table or tuple exists
    base, d, b = cell
    script = (
        "import sys\n"
        "from coverbench import census\n"
        "from coverbench.cli import main\n"
        f"code = main(['enumerate', '--base', {base!r}, '--degree', '{d}', '--branch-points', '{b}'])\n"
        "print(census._group_table.cache_info().currsize, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    elapsed = time.perf_counter() - start
    error, tables = child.stderr.splitlines()
    assert (child.returncode, child.stdout, tables) == (2, "", "0")
    assert error.startswith("error: ")
    assert elapsed < 2


def test_plane_commands_do_not_import_numpy(tmp_path):
    path = write_doc(tmp_path, "c.json", jsonio.layered_to_json(staircase(4)))
    script = (
        "import sys\n"
        "from coverbench.cli import main\n"
        "codes = [main(['classify', '--chi', '-2', '--orientable', 'true']),\n"
        f"         main(['verify', '--input', {path!r}, '--restrictions'])]\n"
        "assert codes == [0, 0], codes\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
