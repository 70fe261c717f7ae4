"""End-to-end tests for the command line front end and the JSON codecs."""
from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from coverbench import cli, jsonio
from coverbench.characters import class_counts, connected_count
from coverbench.cli import build_parser, format_cycles, main, parse_base, parse_cycles
from coverbench.errors import InvalidInput
from coverbench.exhaustion import ExhaustionGraph, Piece, normalize
from coverbench.hurwitz import HurwitzData, construct_cyclic_rp2, construct_hyperelliptic
from coverbench.layered import build_cover, staircase
from coverbench.perms import Perm
from coverbench.surfaces import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    ClosedSurface,
    euler_characteristic,
)
from oracles import all_connected_count, genus0_chain, run_measured, stdlib_dumps


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
            ["enumerate", "--base", "rp2", "--degree", "3", "--branch-points", "3"]
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
        assert parse_cycles(format_cycles(p.cycles()), 5) == p
        assert format_cycles(Perm((0, 1, 2)).cycles()) == "id"


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
        assert jsonio.perm_from_json(json.loads(jsonio.dumps(p.images))) == p
        with pytest.raises(InvalidInput):
            jsonio.perm_from_json(p.images)  # readers take JSON documents

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
        again = jsonio.hurwitz_from_json(
            json.loads(jsonio.dumps(jsonio.hurwitz_to_json(datum)))
        )
        assert again == datum

    def test_exhaustion_plain_and_normalized(self):
        g = sample_graph()
        back = jsonio.exhaustion_from_json(
            json.loads(jsonio.dumps(jsonio.exhaustion_to_json(g)))
        )
        assert back.pieces == g.pieces
        n = normalize(g)
        doc = json.loads(jsonio.dumps(jsonio.exhaustion_to_json(n)))
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
        back = jsonio.layered_from_json(
            json.loads(jsonio.dumps(jsonio.layered_to_json(cover)))
        )
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
_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\U0001f600'))
)
# the kinds a report holds, each of exactly its type
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _TEXT)


def _rows(keys: list, values: list, reordered: bool, deeper: bool) -> list:
    rows = [dict(zip(keys, row)) for row in values]
    if reordered:
        rows.append(dict(zip(keys[::-1], values[0][::-1])))
    if deeper:
        rows.append([dict(rows[0])])
    return rows


def _records(children):
    """Lists of dicts over one key set, as a report lists its records, so
    that the encoder reuses their key lines: some rows hold the keys in
    another insertion order, and one sits a level deeper."""

    def rows(keys):
        row = st.tuples(*[children] * len(keys))
        return st.builds(
            _rows, st.just(keys), st.lists(row, min_size=1, max_size=4), st.booleans(), st.booleans()
        )

    return st.lists(_TEXT, min_size=1, max_size=4, unique=True).flatmap(rows)


def _containers(children):
    int_lists = st.lists(_INTS, max_size=6)
    lists = st.lists(children, max_size=5)
    return st.one_of(
        int_lists,
        int_lists.map(tuple),
        lists,
        lists.map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
        _records(children),
    )


# a report's top level is a container
_REPORTS = st.recursive(_containers(_LEAVES), _containers, max_leaves=4)


@seed(20261021)
@settings(max_examples=300, deadline=None)
@given(_REPORTS)
def test_dumps_is_the_stdlib_encoding(x):
    assert jsonio.dumps(x) == stdlib_dumps(x)


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(_REPORTS, st.integers(1, 12), st.integers(1, 4))
def test_dump_writes_the_stdlib_encoding_in_chunks(x, chunk, lines):
    # chunks of a few characters, measured every few lines, put chunk
    # boundaries inside and between every kind of container
    writes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "_CHUNK", chunk)
        mp.setattr(jsonio, "_LINES", lines)
        jsonio.dump(x, writes.append)
    assert "".join(writes) == stdlib_dumps(x)
    assert all(len(w) >= chunk for w in writes[:-1]) and writes[-1]


def test_key_lines_follow_the_reports_shape(monkeypatch):
    # every dict a report holds is a literal of its writer, so a staircase
    # 12 times deeper keeps the key lines of as many key tuples
    docs = []
    monkeypatch.setattr(jsonio, "dump", lambda doc, write: docs.append(doc))
    kept = []
    for levels in ("5", "60"):
        docs.clear()
        assert run_cli(["staircase", "--levels", levels, "--verify"])[0] == 0
        out = jsonio._Chunks(lambda text: None)
        jsonio._encode(docs[0], "\n", out)
        kept.append(len(out.keys))
    assert kept[0] == kept[1] > 1


# int tokens of every sign and size: the small ints every process shares,
# values above 256 that a cache can share, -0 and ints of up to 4300 digits
_INT_TOKENS = st.one_of(
    st.integers(-300, 300).map(str),
    st.integers().map(str),
    st.integers(-(10**4300) + 1, 10**4300 - 1).map(str),
    st.just("-0"),
)


def _ints_in(o):
    if isinstance(o, dict):
        for v in o.values():
            yield from _ints_in(v)
    elif isinstance(o, list):
        for v in o:
            yield from _ints_in(v)
    else:
        yield o


@seed(20261023)
@settings(max_examples=200, deadline=None)
@given(st.lists(_INT_TOKENS, max_size=40), st.integers(1, 8))
def test_loads_is_the_stdlib_decoding_with_shared_ints(tokens, shared):
    # every token occurs twice, and a bound of a few values lets most
    # documents hold more distinct values than the cache keeps
    items = ", ".join(tokens)
    text = f'{{"v": [{items}], "w": [[{items}], {{"n": [{items}]}}]}}'
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "_SHARED", shared)
        doc = jsonio.loads(text)
    assert doc == json.loads(text)
    values = list(_ints_in(doc))
    assert {type(x) for x in values} <= {int}
    # the first `shared` distinct tokens decode to one object each
    kept = list(dict.fromkeys(tokens))[:shared]
    first = {}
    for token, x in zip(tokens * 3, values):
        if token in kept:
            assert first.setdefault(token, x) is x


def test_loads_shares_ints_up_to_the_bound():
    # past the bound every value still decodes to its int; the document's
    # cache is its own, so a second document shares nothing with the first
    values = range(1000, 1000 + jsonio._SHARED + 100)
    text = json.dumps({"a": list(values), "b": list(values)})
    doc = jsonio.loads(text)
    assert doc == json.loads(text)
    assert doc["a"][0] is doc["b"][0] and doc["a"][-101] is doc["b"][-101]
    assert doc["a"][-100] == doc["b"][-100] and doc["a"][-100] is not doc["b"][-100]
    assert jsonio.loads(text)["a"][0] is not doc["a"][0]


def test_loads_refuses_an_int_as_the_stdlib_does():
    # over the interpreter's 4300-digit limit, both decoders raise the same
    # ValueError, which the CLI reports with exit 2
    text = '{"n": ' + "7" * 5000 + "}"
    with pytest.raises(ValueError) as stdlib:
        json.loads(text)
    with pytest.raises(ValueError) as ours:
        jsonio.loads(text)
    assert str(ours.value) == str(stdlib.value)
    assert "Exceeds the limit (4300 digits)" in str(ours.value)


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


_STDLIB_REFUSES = [{1, 2}, object(), [1, {2}], {"a": object()}, {object(): 1}, {(1, 2): 3}]
# kinds the stdlib encodes but no report holds: floats, subclasses,
# non-str keys and a scalar at top level
_NO_REPORT_HOLDS = [
    {"x": 1.5},
    [float("nan")],
    [1, float("inf")],
    {"x": [-float("inf")]},
    [_Str("a")],
    {"x": _Int(1)},
    [[0, 1], _List([2])],
    {"x": _Dict(y=1)},
    _Dict(y=1),
    {True: 1},
    {"x": {1: 2}},
    [{None: 1}],
    # records past the first, in the first batch and in a later one, of
    # a list long enough to be written by column
    [{"a": 0}, {_Str("a"): 1}] + [{"a": i} for i in range(100)],
    [{"a": i} for i in range(100)] + [{_Str("a"): 0}],
    [{"a": {"b": i}} for i in range(100)] + [{"a": {_Str("b"): 0}}],
    "report",
    7,
    None,
]


@pytest.mark.parametrize("x", _STDLIB_REFUSES + _NO_REPORT_HOLDS)
def test_dumps_refuses_what_the_stdlib_refuses(x):
    if any(x is refused for refused in _STDLIB_REFUSES):
        with pytest.raises(TypeError):
            stdlib_dumps(x)
    else:
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
    encode = jsonio.dump
    monkeypatch.setattr(jsonio, "dump", lambda doc, write: docs.append(doc) or encode(doc, write))
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

    def test_universal_report_admits_degree_984_not_985(self):
        # degree 8 was refused for the S_8 tables, which the report never
        # builds: its census cell is empty by parity, and the witnesses'
        # steps bound it now
        rc, out, _ = run_cli(["universal-report", "--degree", "984", "--genus-max", "1"])
        assert rc == 0
        assert report_of(out)["result"]["rp2_exhaustive_cell"] == [984, 983]
        rc, out, err = run_cli(["universal-report", "--degree", "985", "--genus-max", "1"])
        assert (rc, out) == (2, "")
        assert err == "error: the sphere witnesses up to genus 1 would take more than the budget of 4000000 steps\n"

    def test_degree_8_closed_form_cell_and_audit_report(self):
        rc, out, err = run_cli(["enumerate", "--base", "rp2", "--degree", "8", "--branch-points", "8"])
        assert (rc, err) == (0, "")
        res = report_of(out)["result"]
        assert (res["total_raw"], res["total_classes"]) == (387_754_859_520, 9_616_936)
        orientable = [(r["raw_count"], r["class_count"]) for r in res["rows"] if r["surface"]["orientable"]]
        assert orientable == [(28_178_841_600, 698_880)]
        rc, out, err = run_cli(["parity-audit", "--dmax", "8", "--bmax", "8"])
        assert (rc, err) == (0, "")
        assert report_of(out)["result"]["passed"] is True

    @pytest.mark.parametrize(
        ("admitted", "refused"),
        [
            # the audit, a genus-5 cell and a sphere cell with many branch
            # points at the edges of the integer sums' price; the audit's
            # and the degree-30 cell's keys are charged their merges
            (["parity-audit", "--dmax", "29", "--bmax", "8"], ["parity-audit", "--dmax", "30", "--bmax", "8"]),
            (["enumerate", "--base", "o5", "--degree", "24", "--branch-points", "830"],
             ["enumerate", "--base", "o5", "--degree", "24", "--branch-points", "832"]),
            (["enumerate", "--base", "s2", "--degree", "30", "--branch-points", "190"],
             ["enumerate", "--base", "s2", "--degree", "30", "--branch-points", "192"]),
        ],
    )
    def test_integer_sums_admit_the_new_edges(self, admitted, refused):
        rc, out, err = run_cli(admitted)
        assert (rc, err) == (0, "")
        res = report_of(out)["result"]
        if admitted[0] == "parity-audit":
            assert res["passed"] is True
        else:
            assert res["total_raw"] > 0
        rc, out, err = run_cli(refused)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("would take more than the budget of 4000000 steps\n")

    def test_parity_audit_refuses_before_enumerating(self, monkeypatch):
        # the audit is charged the character sums of all its cells, the
        # largest first, their keys once: through degree 29 they take
        # 3,768,487 steps, and degree 10^6 is priced without listing a
        # partition of it
        def enumerated(*args):
            raise AssertionError(f"cell {args[1:3]} enumerated before admission")

        monkeypatch.setattr("coverbench.census._closed_form_row", enumerated)
        for dmax, bmax in ((35, 8), (10**6, 2)):
            start = time.perf_counter()
            rc, out, err = run_cli(["parity-audit", "--dmax", str(dmax), "--bmax", str(bmax)])
            assert time.perf_counter() - start < 1
            assert (rc, out) == (2, "")
            assert err == (
                f"error: the parity audit up to degree {dmax} and {bmax} branch points "
                "would take more than the budget of 4000000 steps\n"
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
        for dmax, bmax in (("-1", "3"), ("3", "-2")):
            rc, out, err = run_cli(["parity-audit", "--dmax", dmax, "--bmax", bmax])
            assert (rc, out) == (2, "")
            assert err == f"error: need --dmax >= 1 and --bmax >= 0, got {dmax} and {bmax}\n"

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


def _block(doc, piece):
    return next(b for b in doc["blocks"] if b["piece"] == piece)


def _drop_a_meridian(piece):
    def mutate(doc):
        block = _block(doc, piece)
        del block["meridians"][0], block["labels"][0]

    return mutate


# a check's detail for one mutation of the cover over sample_graph's
# normal form: blocks +d1 (disk), r (pants), +a3 and +p2 at level 3,
# and the annuli a (genus 1), b and c at level 4, degree 6
VERIFY_FAILURES = {
    "no-blocks": (
        lambda doc: doc.update(blocks=[], depth=0),
        "structure",
        "no blocks; expected one level-1 block, found 0",
    ),
    "unknown-kind": (lambda doc: _block(doc, "b").update(kind="cone"), "structure", "unknown block kind 'cone'"),
    "labels-out-of-step": (
        lambda doc: _block(doc, "a")["labels"].pop(),
        "structure",
        "block 'a' labels out of step with meridians",
    ),
    "unknown-circle": (
        lambda doc: _block(doc, "c").update(parent_circle=99),
        "gluing",
        "block 'c' glued to unknown circle 99; circle 9 of block '+a3' feeds nothing",
    ),
    "parent-not-owner": (
        lambda doc: _block(doc, "c").update(parent="+p2"),
        "gluing",
        "block 'c' parent does not own circle 9",
    ),
    "annulus-odd": (_drop_a_meridian("a"), "chi", "annulus block 'a' has odd branch count"),
    "pants-not-2g+3": (_drop_a_meridian("r"), "chi", "pants block 'r' branch count not 2g + 3"),
    "ends-over-degree": (lambda doc: doc.update(degree=2), "ends-bound", "3 ends exceeds degree 2"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_FAILURES))
def test_verify_names_each_failed_check(tmp_path, name):
    mutate, check, detail = VERIFY_FAILURES[name]
    n = normalize(sample_graph())
    doc = json.loads(jsonio.dumps(jsonio.layered_to_json(build_cover(n, n.stable_depth))))
    mutate(doc)
    rc, out, err = run_cli(["verify", "--input", write_doc(tmp_path, "cover.json", doc)])
    assert (rc, err) == (1, "")
    checks = {c["name"]: c for c in report_of(out)["result"]["checks"]}
    assert (checks[check]["passed"], checks[check]["detail"]) == (False, detail)


def test_torus_datum_round_trips_and_a_bad_handle_exits_2(tmp_path):
    flags = ["--base", "torus", "--degree", "3", "--handles", "(0 1 2)|(0 2 1)"]
    rc, out, err = run_cli(["total-space", *flags])
    assert (rc, err) == (0, "")
    result = report_of(out)["result"]
    doc = result["datum"]
    assert doc["handles"] == [[[1, 2, 0], [2, 0, 1]]]
    rc, out, err = run_cli(["total-space", "--input", write_doc(tmp_path, "torus.json", doc)])
    assert (rc, err) == (0, "")
    assert report_of(out)["result"] == result
    doc["handles"] = [doc["handles"][0][:1]]
    rc, out, err = run_cli(["total-space", "--input", write_doc(tmp_path, "bad.json", doc)])
    assert (rc, out, err) == (2, "", "error: hurwitz.handles[0] must be a pair\n")


# --- every reader check has its one error line ---


def _reader_documents():
    """A valid document of each kind, as decoded text, with the subcommand
    that reads it."""
    torus = HurwitzData(TORUS, 3, ((Perm((1, 2, 0)), Perm((2, 0, 1))),), (), ())
    normal = normalize(sample_graph())
    docs = {
        "hurwitz": (jsonio.hurwitz_to_json(torus), "total-space"),
        "exhaustion": (jsonio.exhaustion_to_json(normal), "normalize"),
        "layered": (jsonio.layered_to_json(staircase(2)), "verify"),
    }
    return {kind: (json.loads(jsonio.dumps(doc)), command) for kind, (doc, command) in docs.items()}


_READER_DOCUMENTS = _reader_documents()
_GONE = object()


def _at(*path, to=_GONE):
    """A mutation that sets the value at path to `to`, or deletes it."""

    def mutate(doc):
        *head, key = path
        for k in head:
            doc = doc[k]
        if to is _GONE:
            del doc[key]
        else:
            doc[key] = to

    return mutate


# name: (document kind, mutation, the error line); a mutation that returns
# a value replaces the document with it
READER_ERRORS = {
    # loads and sniff
    "top-level-array": ("hurwitz", lambda doc: [doc], "expected a JSON object at top level"),
    "no-format": ("hurwitz", _at("format"), "missing document format tag"),
    "format-not-str": ("hurwitz", _at("format", to=1), "missing document format tag"),
    "unknown-format": ("hurwitz", _at("format", to="cover"), "unknown document format 'cover'"),
    "version": ("hurwitz", _at("version", to=2), "unsupported document version 2"),
    "version-bool": ("hurwitz", _at("version", to=True), "unsupported document version True"),
    "version-float": ("hurwitz", _at("version", to=1.0), "unsupported document version 1.0"),
    # hurwitz
    "hurwitz-format": ("hurwitz", _at("format", to="layered"), "expected a hurwitz document, got 'layered'"),
    "base-missing": ("hurwitz", _at("base"), "missing 'base' in hurwitz"),
    "base-not-object": ("hurwitz", _at("base", to=[]), "hurwitz.base must be dict"),
    "orientable-missing": ("hurwitz", _at("base", "orientable"), "missing 'orientable' in hurwitz.base"),
    "orientable-int": ("hurwitz", _at("base", "orientable", to=1), "hurwitz.base.orientable must be bool"),
    "genus-missing": ("hurwitz", _at("base", "genus"), "missing 'genus' in hurwitz.base"),
    "genus-bool": ("hurwitz", _at("base", "genus", to=True), "hurwitz.base.genus must be int"),
    "degree-missing": ("hurwitz", _at("degree"), "missing 'degree' in hurwitz"),
    "degree-str": ("hurwitz", _at("degree", to="3"), "hurwitz.degree must be int"),
    "degree-float": ("hurwitz", _at("degree", to=3.0), "hurwitz.degree must be int"),
    "handles-null": ("hurwitz", _at("handles", to=None), "hurwitz.handles must be list"),
    "handle-single": ("hurwitz", _at("handles", 0, 1), "hurwitz.handles[0] must be a pair"),
    "handle-object": ("hurwitz", _at("handles", 0, to={}), "hurwitz.handles[0] must be a pair"),
    "handle-perm-float": ("hurwitz", _at("handles", 0, 1, 2, to=1.5), "handles[0][1] must be a list of integers"),
    "crosscaps-object": ("hurwitz", _at("crosscaps", to={}), "hurwitz.crosscaps must be list"),
    "meridians-str": ("hurwitz", _at("meridians", to="x"), "hurwitz.meridians must be list"),
    "meridian-bool": ("hurwitz", _at("meridians", to=[[0, True, 2]]), "meridians[0] must be a list of integers"),
    "meridian-not-a-list": ("hurwitz", _at("meridians", to=[3]), "meridians[0] must be a list of integers"),
    "crosscap-not-a-bijection": (
        "hurwitz",
        _at("crosscaps", to=[[0, 0, 1]]),
        "crosscaps[0]: not a bijection of range(3): (0, 0, 1)",
    ),
    # exhaustion
    "exhaustion-format": (
        "exhaustion",
        _at("format", to="layered"),
        "expected an exhaustion document, got 'layered'",
    ),
    "pieces-missing": ("exhaustion", _at("pieces"), "missing 'pieces' in exhaustion"),
    "pieces-object": ("exhaustion", _at("pieces", to={}), "exhaustion.pieces must be list"),
    "piece-not-object": ("exhaustion", _at("pieces", 1, to=[]), "exhaustion.pieces[1] must be an object"),
    "piece-id-missing": ("exhaustion", _at("pieces", 1, "id"), "missing 'id' in pieces[1]"),
    "piece-level-missing": ("exhaustion", _at("pieces", 1, "level"), "missing 'level' in pieces[1]"),
    "piece-genus-missing": ("exhaustion", _at("pieces", 1, "genus"), "missing 'genus' in pieces[1]"),
    "piece-inner-missing": ("exhaustion", _at("pieces", 1, "inner"), "missing 'inner' in pieces[1]"),
    "piece-outer-missing": ("exhaustion", _at("pieces", 1, "outer"), "missing 'outer' in pieces[1]"),
    "piece-id-int": ("exhaustion", _at("pieces", 1, "id", to=5), "pieces[1].id must be str"),
    "piece-level-bool": ("exhaustion", _at("pieces", 1, "level", to=True), "pieces[1].level must be int"),
    "piece-genus-str": ("exhaustion", _at("pieces", 1, "genus", to="0"), "pieces[1].genus must be int"),
    "piece-inner-int": ("exhaustion", _at("pieces", 1, "inner", to=2), "pieces[1].inner must be list"),
    "piece-outer-object": ("exhaustion", _at("pieces", 1, "outer", to={}), "pieces[1].outer must be list"),
    "piece-inner-bools": (
        "exhaustion",
        _at("pieces", 1, "inner", to=[True]),
        "pieces[1].inner must be a list of integers",
    ),
    "piece-outer-lists": (
        "exhaustion",
        _at("pieces", 1, "outer", to=[[1]]),
        "pieces[1].outer must be a list of integers",
    ),
    "piece-orientable-str": (
        "exhaustion",
        _at("pieces", 1, "orientable", to="no"),
        "pieces[1].orientable must be bool",
    ),
    "piece-orientable-null": (
        "exhaustion",
        _at("pieces", 1, "orientable", to=None),
        "pieces[1].orientable must be bool",
    ),
    "stable-depth-str": ("exhaustion", _at("stable_depth", to="2"), "exhaustion.stable_depth must be int"),
    "stable-depth-null": ("exhaustion", _at("stable_depth", to=None), "exhaustion.stable_depth must be int"),
    # layered
    "layered-format": ("layered", _at("format", to="hurwitz"), "expected a layered document, got 'hurwitz'"),
    "blocks-missing": ("layered", _at("blocks"), "missing 'blocks' in layered"),
    "blocks-str": ("layered", _at("blocks", to="x"), "layered.blocks must be list"),
    "block-not-object": ("layered", _at("blocks", 1, to=5), "layered.blocks[1] must be an object"),
    "outbound-missing": ("layered", _at("blocks", 1, "outbound"), "missing 'outbound' in blocks[1]"),
    "outbound-object": ("layered", _at("blocks", 1, "outbound", to={}), "blocks[1].outbound must be list"),
    "outbound-entry-int": (
        "layered",
        _at("blocks", 1, "outbound", 0, to=5),
        "blocks[1].outbound[0] must be [circle, cycle]",
    ),
    "outbound-entry-short": (
        "layered",
        _at("blocks", 1, "outbound", 0, 1),
        "blocks[1].outbound[0] must be [circle, cycle]",
    ),
    "outbound-entry-long": (
        "layered",
        _at("blocks", 1, "outbound", 0, to=[2, [0, 2, 1], 0]),
        "blocks[1].outbound[0] must be [circle, cycle]",
    ),
    "outbound-circle-bool": (
        "layered",
        _at("blocks", 1, "outbound", 0, 0, to=True),
        "blocks[1].outbound[0] must be [circle, cycle]",
    ),
    "outbound-cycle-int": (
        "layered",
        _at("blocks", 1, "outbound", 0, 1, to=5),
        "blocks[1].outbound[0][1] must be a list of integers",
    ),
    "parent-int": ("layered", _at("blocks", 1, "parent", to=5), "blocks[1].parent must be str or null"),
    "parent-list": ("layered", _at("blocks", 1, "parent", to=[]), "blocks[1].parent must be str or null"),
    "parent-circle-str": (
        "layered",
        _at("blocks", 1, "parent_circle", to="1"),
        "blocks[1].parent_circle must be int or null",
    ),
    "parent-circle-bool": (
        "layered",
        _at("blocks", 1, "parent_circle", to=True),
        "blocks[1].parent_circle must be int or null",
    ),
    "block-piece-missing": ("layered", _at("blocks", 1, "piece"), "missing 'piece' in blocks[1]"),
    "block-level-missing": ("layered", _at("blocks", 1, "level"), "missing 'level' in blocks[1]"),
    "block-kind-missing": ("layered", _at("blocks", 1, "kind"), "missing 'kind' in blocks[1]"),
    "block-sheets-missing": ("layered", _at("blocks", 1, "sheets"), "missing 'sheets' in blocks[1]"),
    "block-caps-missing": ("layered", _at("blocks", 1, "caps"), "missing 'caps' in blocks[1]"),
    "block-meridians-missing": ("layered", _at("blocks", 1, "meridians"), "missing 'meridians' in blocks[1]"),
    "block-labels-missing": ("layered", _at("blocks", 1, "labels"), "missing 'labels' in blocks[1]"),
    "block-piece-int": ("layered", _at("blocks", 1, "piece", to=1), "blocks[1].piece must be str"),
    "block-level-str": ("layered", _at("blocks", 1, "level", to="2"), "blocks[1].level must be int"),
    "block-kind-null": ("layered", _at("blocks", 1, "kind", to=None), "blocks[1].kind must be str"),
    "block-sheets-str": ("layered", _at("blocks", 1, "sheets", to="x"), "blocks[1].sheets must be list"),
    "block-caps-object": ("layered", _at("blocks", 1, "caps", to={}), "blocks[1].caps must be list"),
    "block-meridians-int": ("layered", _at("blocks", 1, "meridians", to=0), "blocks[1].meridians must be list"),
    "block-labels-str": ("layered", _at("blocks", 1, "labels", to="x"), "blocks[1].labels must be list"),
    "block-sheets-strs": (
        "layered",
        _at("blocks", 1, "sheets", to=[0, "1"]),
        "blocks[1].sheets must be a list of integers",
    ),
    "block-caps-bools": ("layered", _at("blocks", 1, "caps", to=[True]), "blocks[1].caps must be a list of integers"),
    "inbound-str": ("layered", _at("blocks", 1, "inbound", to="x"), "blocks[1].inbound must be a list of integers"),
    "inbound-float": (
        "layered",
        _at("blocks", 1, "inbound", to=[0, 1.5]),
        "blocks[1].inbound must be a list of integers",
    ),
    "meridian-item-bool": (
        "layered",
        _at("blocks", 1, "meridians", 0, 1, to=True),
        "blocks[1].meridians[0] must be a list of integers",
    ),
    "label-item-int": (
        "layered",
        _at("blocks", 1, "labels", 0, to=5),
        "blocks[1].labels[0] must be a list of integers",
    ),
    "depth-missing": ("layered", _at("depth"), "missing 'depth' in layered"),
    "depth-str": ("layered", _at("depth", to="2"), "layered.depth must be int"),
    "degree-missing-layered": ("layered", _at("degree"), "missing 'degree' in layered"),
    "degree-bool-layered": ("layered", _at("degree", to=True), "layered.degree must be int"),
    "depth-over-blocks": ("layered", _at("depth", to=3), "layered.depth 3 exceeds the 2 blocks"),
}


@pytest.mark.parametrize("name", sorted(READER_ERRORS))
def test_each_reader_check_exits_2_with_its_line(tmp_path, name):
    kind, mutate, line = READER_ERRORS[name]
    valid, command = _READER_DOCUMENTS[kind]
    doc = copy.deepcopy(valid)
    replaced = mutate(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc if replaced is None else replaced))
    assert run_cli([command, "--input", str(path)]) == (2, "", f"error: {line}\n")


def _read(doc, typed: bool) -> str:
    """The repr of what the exhaustion or layered reader makes of doc, or
    its InvalidInput line; unless typed, every record is read field by
    field."""
    read = jsonio.layered_from_json if doc.get("format") == "layered" else jsonio.exhaustion_from_json
    with pytest.MonkeyPatch.context() as mp:
        if not typed:
            mp.setattr(jsonio, "_typed", lambda records, fields: None)
        try:
            return repr(read(doc))
        except InvalidInput as exc:
            return f"error: {exc}"


def _small_fan_documents() -> dict[str, dict]:
    normal = normalize(ExhaustionGraph((Piece("f", 1, 0, (), tuple(range(1, 7))),)))
    docs = {"exhaustion": jsonio.exhaustion_to_json(normal)}
    docs["layered"] = jsonio.layered_to_json(build_cover(normal, normal.stable_depth))
    return {kind: json.loads(jsonio.dumps(doc)) for kind, doc in docs.items()}


# values a hand-edited record may hold, in a field or in place of an item
_FIELD_VALUES = [
    _GONE, None, True, False, 0, 7, -1, 1.5, "x", {}, [], [0, 1], [True], [1.5], ["a"],
    [[0, 1]], [[0]], [[0, 1], 5], [[0, [0, 1]]], [[0, [True]]], [[True, [0, 1]]], [[0, [0, 1], 2]],
]


def _mutated_records(doc: dict, rng) -> dict:
    """doc with one record changed: a field set, deleted or added, an
    item of a list field replaced, or the record replaced."""
    doc = copy.deepcopy(doc)
    records = doc["pieces" if doc["format"] == "exhaustion" else "blocks"]
    k = rng.randrange(len(records))
    value = rng.choice(_FIELD_VALUES)
    if rng.random() < 0.05:
        records[k] = [] if value is _GONE else value
        return doc
    key = rng.choice([*records[k], "orientable", "inbound", "parent"])
    held = records[k].get(key)
    if type(held) is list and held and rng.random() < 0.5:
        _at(rng.randrange(len(held)), to=value)(held)
    elif value is _GONE:
        records[k].pop(key, None)
    else:
        records[k][key] = value
    return doc


# a record's optional fields absent and null, a bool in an int field and
# a malformed outbound entry, on the second record of each document
_READ_CASES = {
    "inbound-absent": ("layered", _at("blocks", 1, "inbound")),
    "inbound-null": ("layered", _at("blocks", 1, "inbound", to=None)),
    "parent-absent": ("layered", _at("blocks", 1, "parent")),
    "parent-null": ("layered", _at("blocks", 1, "parent", to=None)),
    "parent-circle-absent": ("layered", _at("blocks", 1, "parent_circle")),
    "parent-circle-null": ("layered", _at("blocks", 1, "parent_circle", to=None)),
    "level-bool": ("layered", _at("blocks", 1, "level", to=False)),
    "sheet-bool": ("layered", _at("blocks", 1, "sheets", 0, to=True)),
    "outbound-entry-triple": ("layered", _at("blocks", 1, "outbound", 0, to=[1, [0, 1], 2])),
    "outbound-entry-str": ("layered", _at("blocks", 1, "outbound", 0, to="x")),
    "orientable-absent": ("exhaustion", _at("pieces", 1, "orientable")),
    "genus-bool": ("exhaustion", _at("pieces", 1, "genus", to=True)),
    **{
        name: (kind, mutate)
        for name, (kind, mutate, _) in READER_ERRORS.items()
        if kind in ("exhaustion", "layered")
    },
}


@pytest.mark.parametrize("name", sorted(_READ_CASES))
def test_the_typed_read_agrees_with_the_field_by_field_read(name):
    kind, mutate = _READ_CASES[name]
    doc = copy.deepcopy(_READER_DOCUMENTS[kind][0])
    replaced = mutate(doc)
    doc = doc if replaced is None else replaced
    assert _read(doc, typed=True) == _read(doc, typed=False)


def test_the_typed_read_agrees_on_mutated_fan_documents():
    rng = random.Random(20261022)
    outcomes = set()
    for kind, valid in _small_fan_documents().items():
        assert _read(valid, typed=True) == _read(valid, typed=False)
        for _ in range(400):
            doc = _mutated_records(valid, rng)
            got = _read(doc, typed=True)
            assert got == _read(doc, typed=False)
            outcomes.add((kind, got.startswith("error: ")))
    # both readers both read and refuse documents of each kind
    assert outcomes == {(kind, refused) for kind in ("exhaustion", "layered") for refused in (False, True)}


@pytest.mark.parametrize(
    "changes, problems",
    [
        ({"id": "b"}, ["duplicate piece id 'b'"]),
        (
            {"level": 0},
            [
                "piece 'a' has level 0 < 1",
                "levels are not contiguous from 1",
                "piece 'a' at level 0 references circle 1 at level 1",
                "outer circle 4 of 'a' is unglued below the frontier",
            ],
        ),
    ],
    ids=["duplicate-id", "level-0"],
)
def test_validate_reports_a_bad_exhaustion_with_status_1(tmp_path, changes, problems):
    rc, out, err = run_cli(["validate", "--input", write_doc(tmp_path, "e.json", _exhaustion_doc(changes))])
    assert (rc, err) == (1, "")
    result = report_of(out)["result"]
    assert (result["ok"], result["problems"]) == (False, problems)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["count-ends", "--input", "{exhaustion}", "--levels", "2", "--remaining", "x"],
         "--remaining takes 'none', 'inf', or an integer"),
        (["count-ends", "--input", "{exhaustion}", "--levels", "2", "--remaining", "-1"],
         "--remaining cannot be negative"),
        (["construct", "--family", "cyclic-rp2"], "cyclic-rp2 family needs --crosscaps"),
        (["construct", "--family", "hyperelliptic", "--genus", "-1"], "genus must be >= 0, got -1"),
        (["total-space", "--base", "torus", "--degree", "2", "--handles", "(0 1)"],
         "each handle is '<cycles>|<cycles>'"),
        (["total-space", "--degree", "2", "--meridians", "(0 1)"],
         "need --input, or --base and --degree with generator flags"),
        (["validate", "--input", "{layered}"], "cannot validate documents of format 'layered'"),
        (["normalize", "--input", "{hurwitz}"], "expected an exhaustion document, got 'hurwitz'"),
        (["universal-report", "--degree", "3", "--genus-max", "-1"], "need genus_max >= 0, got -1"),
    ],
    ids=[
        "remaining-x",
        "remaining-negative",
        "cyclic-without-crosscaps",
        "negative-genus",
        "handle-without-bar",
        "datum-without-base",
        "validate-layered",
        "normalize-hurwitz",
        "negative-genus-max",
    ],
)
def test_usage_errors_exit_2_with_their_line(tmp_path, argv, error):
    paths = {
        "exhaustion": write_doc(tmp_path, "e.json", jsonio.exhaustion_to_json(sample_graph())),
        "layered": write_doc(tmp_path, "l.json", jsonio.layered_to_json(staircase(3))),
        "hurwitz": write_doc(tmp_path, "h.json", _hurwitz_doc()),
    }
    rc, out, err = run_cli([word.format(**paths) for word in argv])
    assert (rc, out, err) == (2, "", f"error: {error}\n")


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


def test_staircase_report_is_streamed():
    # staircase(2000)'s report is 112 MB: held whole, as a list of lines, their
    # join and its encoding, it peaked at 363 MB, and with its JSON tree a
    # list copy of every tuple of the cover, at 103 MB
    argv = ["staircase", "--levels", "2000"]
    child, peak = run_measured([sys.executable, "-m", "coverbench.cli", *argv], timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert report_of(child.stdout)["result"]["cover"]["degree"] == 2001
    assert peak < 80 << 20


def test_build_cover_report_shares_the_cover_tuples(tmp_path):
    # 500,001 branch points over a genus-250,000 annulus: a list copy of
    # every meridian and label in the report's JSON tree peaked at 158 MB
    path = write_doc(tmp_path, "e.json", _one_piece_graph(250_000, (2,)))
    argv = ["build-cover", "--input", path, "--levels", "2"]
    child, peak = run_measured([sys.executable, "-m", "coverbench.cli", *argv], timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert len(report_of(child.stdout)["result"]["cover"]["blocks"][1]["labels"]) == 500_000
    assert peak < 110 << 20


def test_verify_drops_the_input_bytes_before_the_parse(tmp_path):
    # the 14 MB document of staircase(800): its bytes, its text and its
    # parsed tree were alive together, and the report was held whole; then
    # the tree held a fresh int for every sheet above 256 at every level
    # (about 55 MB); with one int per repeated value the peak is reading
    # the file, its bytes beside its text (about 47 MB)
    path = write_doc(tmp_path, "c.json", jsonio.layered_to_json(staircase(800)))
    argv = [sys.executable, "-m", "coverbench.cli", "verify", "--restrictions", "--input", path]
    child, peak = run_measured(argv, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert report_of(child.stdout)["result"]["ok"] is True
    assert peak < 51 << 20


@pytest.mark.parametrize("command", ["verify", "normalize", "validate"])
@pytest.mark.parametrize("nesting", ["array", "object"])
def test_deeply_nested_documents_exit_2_with_one_line(tmp_path, nesting, command):
    # 100,000 levels deep: the decoder's RecursionError ended the run in a
    # traceback with exit 1, the code of a negative verdict
    depth = 100_000
    if nesting == "array":
        text = "[" * depth + "]" * depth
    else:
        text = '{"a": ' * depth + "1" + "}" * depth
    path = tmp_path / "deep.json"
    path.write_text(text)
    rc, out, err = run_cli([command, "--input", str(path)])
    assert (rc, out, err) == (2, "", "error: document nested too deeply to decode\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_2_with_one_line(unbuffered):
    # the reader takes 100 bytes of a 17 MB report and goes away: a
    # BrokenPipeError traceback ended the run with exit 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONUNBUFFERED": unbuffered}
    child = subprocess.Popen(
        [sys.executable, "-m", "coverbench.cli", "staircase", "--levels", "800"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = child.stdout.read(100)
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2
    assert head.startswith(b"{")
    assert err == "error: stdout closed while writing the report of staircase\n"


def test_running_out_of_memory_while_writing_exits_2_with_one_line():
    # the address space is capped at its size once the report starts, so
    # the encoder's first chunk cannot be allocated; the report was once
    # encoded outside the handler and ended in a MemoryError traceback
    script = (
        "import resource, sys\n"
        "from coverbench import cli, jsonio\n"
        "dump = jsonio.dump\n"
        "def capped(doc, write):\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        size = int(fh.read().split()[0]) * resource.getpagesize()\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (size, size))\n"
        "    dump(doc, write)\n"
        "jsonio.dump = capped\n"
        "sys.exit(cli.main(['staircase', '--levels', '800']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert (child.returncode, child.stderr) == (2, "error: out of memory running staircase\n")
    # what was written before memory ran out is the start of the report
    rc, out, _ = run_cli(["staircase", "--levels", "800"])
    assert rc == 0 and out.startswith(child.stdout)


def test_high_genus_cells_are_answered_before_any_character_sum():
    # the tuple count of o30000/6/0 has 171,438 digits: computing it took
    # 3-7 s and printing it failed, so the price of its powers refuses the
    # cell first; with one branch point the cell is empty by parity
    start = time.perf_counter()
    rc, out, err = run_cli(["enumerate", "--base", "o30000", "--degree", "6", "--branch-points", "0"])
    assert (rc, out) == (2, "")
    assert err == (
        "error: census cell (orientable genus-30000 surface, degree 6, 0 branch points) "
        "would take more than the budget of 4000000 steps\n"
    )
    rc, out, err = run_cli(["enumerate", "--base", "o30000", "--degree", "6", "--branch-points", "1"])
    assert (rc, err) == (0, "")
    assert report_of(out)["result"]["rows"] == []
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "cell",
    [
        ("n5000", 6, 0), ("n5000", 5, 8), ("s2", 10**6, 2), ("s2", 7, 10**6), ("o30000", 6, 2), ("torus", 40, 0),
        ("klein", 40, 0), ("torus", 31, 2), ("n15", 36, 2),
    ],
)
def test_cells_out_of_reach_are_refused_at_once(cell):
    # the closed-form counts of n5000/6/0 and n5000/5/8 pass the 4299
    # digits a report prints, and the character sums of the others pass
    # the step budget (torus/40/0 took 7.7 s in them, and it and klein/40/0
    # are the first torus and Klein bottle cells refused; torus/31/2 is the
    # first refused for the merges of its keys, which took n15/36/2 4.3 to
    # 7.2 s): the refusal must come before any character sum, and no census
    # run loads numpy
    base, d, b = cell
    script = (
        "import sys\n"
        "from coverbench.cli import main\n"
        f"code = main(['enumerate', '--base', {base!r}, '--degree', '{d}', '--branch-points', '{b}'])\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
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
    error, numpy_loaded = child.stderr.splitlines()
    assert (child.returncode, child.stdout, numpy_loaded) == (2, "", "False")
    assert error.startswith("error: ")
    assert elapsed < 1


# what every run loads: the package, the CLI, the codecs and the surfaces
_FRONT = {"coverbench", "coverbench.cli", "coverbench.errors", "coverbench.jsonio", "coverbench.surfaces"}

@pytest.mark.parametrize(
    ("argv", "layers"),
    [
        (["classify", "--chi", "-2", "--orientable", "true"], set()),
        # an empty cell, a closed-form cell, a cell of any meridians and the
        # audit take their rows from the characters: no engine, no numpy, no
        # Hurwitz or plane code
        (["enumerate", "--base", "s2", "--degree", "7", "--branch-points", "2"], {"census", "characters"}),
        (["enumerate", "--base", "torus", "--degree", "4", "--branch-points", "4"], {"census", "characters"}),
        (["enumerate", "--base", "rp2", "--degree", "4", "--branch-points", "4", "--all"], {"census", "characters"}),
        (["parity-audit", "--dmax", "4", "--bmax", "6"], {"census", "characters"}),
        (["normalize", "--input", "exhaustion.json"], {"exhaustion"}),
        (["verify", "--restrictions", "--input", "layered.json"], {"layered"}),
        (["staircase", "--levels", "4", "--verify"], {"layered"}),
        (
            ["total-space", "--base", "rp2", "--degree", "3", "--crosscaps", "(0 1 2)", "--meridians", "(0 1 2)"],
            {"hurwitz", "perms"},
        ),
    ],
    ids=[
        "classify",
        "enumerate-empty",
        "enumerate-closed-form",
        "enumerate-all",
        "parity-audit",
        "normalize",
        "verify",
        "staircase-verify",
        "total-space",
    ],
)
def test_each_subcommand_loads_only_its_layer(tmp_path, argv, layers):
    write_doc(tmp_path, "exhaustion.json", jsonio.exhaustion_to_json(sample_graph()))
    write_doc(tmp_path, "layered.json", jsonio.layered_to_json(staircase(4)))
    script = (
        "import contextlib, io, json, sys\n"
        "from coverbench.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'coverbench')\n"
        "exact = sorted(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules)\n"
        "print(json.dumps([code, loaded, 'numpy' in sys.modules, exact]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=tmp_path,
    )
    assert child.returncode == 0, child.stderr
    code, loaded, numpy_loaded, exact = json.loads(child.stdout)
    assert code == 0
    assert set(loaded) == _FRONT | {f"coverbench.{layer}" for layer in layers}
    assert not numpy_loaded
    # the character sums are integers: no run loads the Fraction machinery
    assert exact == []


def _row(orientable, genus, raw, classes):
    chi = 2 - 2 * genus if orientable else 2 - genus
    name = jsonio.surface_to_json(ClosedSurface(orientable, genus))["name"]
    surface = {"euler_characteristic": chi, "genus": genus, "name": name, "orientable": orientable}
    return {"class_count": classes, "raw_count": raw, "surface": surface}


def test_census_loads_numpy_only_for_cells_it_enumerates():
    # s2/6/6 and s2/7/2 are empty by their characters, s2/4/6, torus/4/4,
    # rp2/5/8, rp2/5/4, and rp2/2/0, n5/6/0 and n20/2/0 without branch
    # points, are answered from closed forms, and o30000/6/0 is refused by
    # closed forms; the cells of any meridians rp2/2/2, rp2/4/4 and s2/6/4
    # are answered from graded closed forms too. The census enumerates no
    # cell, so no run loads numpy or the engine, and none calls
    # _group_table even once the engine is loaded
    script = (
        "import contextlib, io, json, sys\n"
        "from coverbench import census\n"
        "from coverbench.cli import main\n"
        "assert 'numpy' not in sys.modules\n"
        "def run(base, d, b, *flags):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = main(['enumerate', '--base', base, '--degree', str(d), '--branch-points', str(b), *flags])\n"
        "    return code, out.getvalue() and json.loads(out.getvalue())['result']['rows']\n"
        "got = [run('s2', 6, 6), run('s2', 7, 2), run('o30000', 6, 0)]\n"
        "assert got == [(0, []), (0, []), (2, '')], got\n"
        "closed = [run('s2', 4, 6), run('torus', 4, 4), run('rp2', 5, 8), run('rp2', 2, 0),\n"
        "          run('n5', 6, 0), run('n20', 2, 0)]\n"
        "print(json.dumps(closed))\n"
        "assert run('rp2', 5, 4)[0] == 0\n"
        "every = [run('rp2', 2, 2, '--all'), run('rp2', 4, 4, '--all'), run('s2', 6, 4, '--all')]\n"
        "assert [code for code, _ in every] == [0, 0, 0]\n"
        "assert 'numpy' not in sys.modules and 'coverbench.orderly' not in sys.modules\n"
        "from coverbench import orderly\n"
        "assert census.GroupTable is orderly.GroupTable\n"
        "calls = orderly._group_table.cache_info()\n"
        "assert [run('s2', 4, 6), run('torus', 4, 4), run('rp2', 5, 8), run('rp2', 2, 0),\n"
        "        run('n5', 6, 0), run('n20', 2, 0)] == closed\n"
        "assert [run('rp2', 2, 2, '--all'), run('rp2', 4, 4, '--all'), run('s2', 6, 4, '--all')] == every\n"
        "assert orderly._group_table.cache_info() == calls\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        [0, [_row(True, 0, 2880, 120)]],
        [0, [_row(True, 3, 58752, 2496)]],
        [0, [_row(False, 5, 185_285_520, 1_544_046)]],
        [0, [_row(True, 0, 1, 1)]],
        [0, [_row(True, 10, 33_808_800, 48_285), _row(False, 20, 544_437_243_360, 756_627_698)]],
        [0, [_row(True, 19, 1, 1), _row(False, 38, 1_048_574, 1_048_574)]],
    ]


# the rows of a streamed enumeration of the two rp2 cells (ROADMAP item 2)
STREAMED_ROWS = {
    ("rp2", 5, 8): [_row(False, 5, 185_285_520, 1_544_046)],
    ("rp2", 6, 8): [_row(True, 2, 33_546_240, 46_592), _row(False, 4, 4_207_089_600, 5_843_180)],
}


@pytest.mark.parametrize(
    "cell",
    [("s2", 5, 10), ("s2", 7, 142), ("o5", 6, 8), ("torus", 6, 8), ("rp2", 5, 8), ("rp2", 6, 8)],
)
def test_closed_form_cells_past_enumeration_answer_at_once(cell):
    # the listing's peak refused s2/5/10 (169,271,260 tuples), s2/7/142 (a
    # count of 185 digits) and the two rp2 cells (5,563,476,540 tuples on
    # rp2/6/8), and the tuple-count floor o5/6/8 and torus/6/8 (13 digits);
    # each row takes a character sum
    base, d, b = cell
    argv = ["enumerate", "--base", base, "--degree", str(d), "--branch-points", str(b)]
    start = time.perf_counter()
    child, peak = run_measured(
        [sys.executable, "-m", "coverbench.cli", *argv],
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    elapsed = time.perf_counter() - start
    assert (child.returncode, child.stderr) == (0, "")
    rows = report_of(child.stdout)["result"]["rows"]
    surface = parse_base(base)
    genus = (2 - d * euler_characteristic(surface) + b) // 2
    want = [_row(True, genus, connected_count(surface, d, b), sum(class_counts(surface, d, b)))]
    assert rows == STREAMED_ROWS.get(cell, want)
    assert all(type(row["class_count"]) is int for row in rows)
    assert elapsed < 1
    assert peak < 100 << 20


@pytest.mark.parametrize(("genus", "digits"), [(7140, 4299), (7141, None)])
def test_closed_form_cells_are_answered_while_their_counts_print(genus, digits):
    # a closed-form row lists no tuple, so the step budget does not bound
    # its size; its counts print with int.__repr__, which stops at 4300 digits,
    # and the cell is refused past 4299 (o7140/2/2 has 4299)
    start = time.perf_counter()
    rc, out, err = run_cli(["enumerate", "--base", f"o{genus}", "--degree", "2", "--branch-points", "2"])
    assert time.perf_counter() - start < 1
    if digits is None:
        assert (rc, out) == (2, "")
        assert err == (
            f"error: census cell (orientable genus-{genus} surface, degree 2, 2 branch points) "
            "has a tuple count of 4300 digits, over the 4299 digits a report prints\n"
        )
        return
    assert (rc, err) == (0, "")
    (row,) = report_of(out)["result"]["rows"]
    assert row["raw_count"] == connected_count(ClosedSurface(True, genus), 2, 2)
    assert len(str(row["raw_count"])) == digits


@pytest.mark.parametrize(
    "cell",
    [("s2", 2, 1996), ("rp2", 2, 1990), ("torus", 2, 1990), ("s2", 3, 10), ("s2", 4, 6), ("rp2", 4, 5),
     ("torus", 3, 6), ("s2", 6, 4), ("rp2", 6, 3), ("rp2", 5, 4), ("torus", 5, 3), ("torus", 6, 4)],
)
def test_cells_of_any_meridians_report_from_graded_sums(cell):
    # the engine answered the first seven in 0.4 to 1.6 s, and the
    # listing's peak refused the rest; graded character sums answer each
    # at once, with the scalar count of any meridians as its total
    base, d, b = cell
    start = time.perf_counter()
    rc, out, err = run_cli(["enumerate", "--base", base, "--degree", str(d), "--branch-points", str(b), "--all"])
    assert time.perf_counter() - start < 1
    assert (rc, err) == (0, "")
    assert report_of(out)["result"]["total_raw"] == all_connected_count(parse_base(base), d, b)


def test_graded_sums_out_of_reach_are_refused_at_once():
    # torus/36/2 passed the character sums' price before, and only the
    # listing's peak refused it; its graded sums took 45 s
    start = time.perf_counter()
    rc, out, err = run_cli(["enumerate", "--base", "torus", "--degree", "36", "--branch-points", "2", "--all"])
    assert (rc, out) == (2, "")
    assert err == (
        "error: census cell (torus, degree 36, 2 branch points) "
        "would take more than the budget of 4000000 steps\n"
    )
    assert time.perf_counter() - start < 1


def test_high_genus_cells_of_any_meridians_are_refused_at_once():
    # o30000/6/1 is empty only for simple covers: with any meridians its
    # character sums took 5-7 s before the refusal, which the price of
    # their powers now gives first
    start = time.perf_counter()
    argv = ["enumerate", "--base", "o30000", "--degree", "6", "--branch-points", "1", "--all"]
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert err == (
        "error: census cell (orientable genus-30000 surface, degree 6, 1 branch points) "
        "would take more than the budget of 4000000 steps\n"
    )
    assert time.perf_counter() - start < 1


def _one_piece_graph(genus, outer):
    return jsonio.exhaustion_to_json(ExhaustionGraph((
        Piece("d", 1, 0, (), (1,)),
        Piece("x", 2, genus, (1,), outer),
    )))


def test_build_cover_over_a_high_genus_pants_verifies(tmp_path):
    # the pants word was once searched with one recursion level per
    # letter: genus 600 ended in a RecursionError
    path = write_doc(tmp_path, "e.json", _one_piece_graph(600, (2, 3)))
    rc, out, err = run_cli(["build-cover", "--input", path, "--levels", "2"])
    assert (rc, err) == (0, "")
    cover = report_of(out)["result"]["cover"]
    assert len(cover["blocks"][1]["meridians"]) == 2 * 600 + 3
    path = write_doc(tmp_path, "c.json", cover)
    rc, out, err = run_cli(["verify", "--input", path, "--restrictions"])
    assert (rc, err) == (0, "")
    assert report_of(out)["result"]["ok"] is True


@pytest.mark.parametrize("genus", [10**8, 10**30])
def test_build_cover_refuses_a_genus_too_large_to_build(tmp_path, genus):
    # genus 10^30 overflowed the word's length (a traceback, exit 1), and
    # 10^8 ran out of a 2 GiB cap or, without one, could fill the machine:
    # the branch points are counted before any block is built
    path = write_doc(tmp_path, "e.json", _one_piece_graph(genus, (2,)))
    argv = [sys.executable, "-m", "coverbench.cli", "build-cover", "--input", path, "--levels", "2"]
    child, peak = run_measured(
        argv,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == (
        f"error: the cover through level 2 with 2 blocks and {2 * genus + 1} branch points "
        "would take more than the budget of 4000000 steps\n"
    )
    assert peak < 100 << 20


_STEPS = "would take more than the budget of 4000000 steps"


def test_build_cover_is_priced_by_its_blocks(tmp_path):
    # a genus-0 chain has one branch point at any length, so a price by
    # branch points alone admitted the cover of a 420,000-level chain
    # (31.5 MB), which took 12.5 s and 757 MB; at 28 steps a block the
    # first chain refused has 142,858 levels (142,857 take about 4 s)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(jsonio.exhaustion_to_json(genus0_chain(142_858)), separators=(",", ":")))
    assert run_cli(["build-cover", "--input", str(path), "--levels", "142858"]) == (
        2,
        "",
        f"error: the cover through level 142858 with 142858 blocks and 1 branch points {_STEPS}\n",
    )


@pytest.mark.parametrize(
    "command, levels, error",
    [
        ("staircase", 10**5, f"the staircase through level 100000 {_STEPS}"),
        ("staircase", 10**8, f"the staircase through level 100000000 {_STEPS}"),
        # a report of 28 * 12386^2 bytes, past 4 GiB
        ("staircase", 12386, f"the staircase through level 12386 {_STEPS}"),
        # the first levels refused: 3465^2 / 3 steps, and twice that with
        # the verify pass at 2450
        ("staircase", 3465, f"the staircase through level 3465 {_STEPS}"),
        ("staircase --verify", 2450, f"the staircase through level 2450 {_STEPS}"),
        ("compose-staircase", 10**8, f"the composite with the staircase through level 100000000 {_STEPS}"),
        ("compose-staircase", 1000001, f"the composite with the staircase through level 1000001 {_STEPS}"),
        ("compose-staircase", 10**5, None),
    ],
    ids=[
        "staircase-1e5",
        "staircase-1e8",
        "staircase-12386",
        "staircase-3465",
        "staircase-verify-2450",
        "compose-1e8",
        "compose-1000001",
        "compose-1e5",
    ],
)
def test_staircase_levels_are_bounded_before_any_block(tmp_path, command, levels, error):
    # staircase(J) lists all J + 1 sheets at every level, about 28 J^2
    # bytes of report, and compose-staircase writes about 64 bytes a level:
    # without a bound both grew toward the whole machine, and with one on
    # memory alone they ran for minutes, so the children run under a 1 GiB
    # address-space cap and each refusal comes at once
    argv = [sys.executable, "-m", "coverbench.cli", *command.split(), "--levels", str(levels)]
    if command == "compose-staircase":
        argv += ["--input", write_doc(tmp_path, "c.json", jsonio.layered_to_json(staircase(3)))]
    start = time.perf_counter()
    child, peak = run_measured(
        argv,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    if error is None:
        assert (child.returncode, child.stderr) == (0, "")
        assert report_of(child.stdout)["result"]["staircase_depth"] == levels
        return
    assert time.perf_counter() - start < 1
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == f"error: {error}\n"
    assert peak < 100 << 20


@pytest.mark.parametrize(
    "argv, error",
    [
        (["stabilize", "--times", "100000"], "stabilizing 100000 times"),
        (["universal-report", "--degree", "3", "--genus-max", "100000"], "the sphere witnesses up to genus 100000"),
        (["universal-report", "--degree", "2", "--genus-max", "342"], "the sphere witnesses up to genus 342"),
        (["universal-report", "--degree", "3", "--genus-max", "336"], "the sphere witnesses up to genus 336"),
        (["universal-report", "--degree", "7", "--genus-max", "314"], "the sphere witnesses up to genus 314"),
        (
            ["construct", "--family", "hyperelliptic", "--genus", "1000000000"],
            "the hyperelliptic datum of genus 1000000000",
        ),
        (["construct", "--family", "cyclic-rp2", "--crosscaps", "2000000"], "the cyclic datum with 2000000 crosscaps"),
    ],
    ids=[
        "stabilize",
        "universal-report",
        "universal-report-2-342",
        "universal-report-3-336",
        "universal-report-7-314",
        "hyperelliptic",
        "cyclic-rp2",
    ],
)
def test_hurwitz_builders_are_bounded_before_any_permutation(tmp_path, argv, error):
    # repeated stabilization is cubic in --times, the universal report's
    # witnesses quadratic in --genus-max and the constructions linear in
    # their size: unbounded, each ran for minutes toward the whole machine
    # (the universal report is charged one pass per witness: 313 is the
    # last genus admitted at degree 7, 335 at degree 3, 341 at degree 2)
    if argv[0] == "stabilize":
        argv += ["--input", write_doc(tmp_path, "h.json", jsonio.hurwitz_to_json(construct_hyperelliptic(0)))]
    start = time.perf_counter()
    child, peak = run_measured(
        [sys.executable, "-m", "coverbench.cli", *argv],
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert time.perf_counter() - start < 1
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == f"error: {error} would take more than the budget of 4000000 steps\n"
    assert peak < 100 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--input", "{doc}"],
        ["total-space", "--input", "{doc}"],
        ["compose-double", "--input", "{doc}"],
        ["stabilize", "--input", "{doc}", "--times", "0"],
        ["validate", "--base", "s2", "--degree", str(10**20)],
        ["total-space", "--base", "s2", "--degree", str(10**20), "--meridians", "(0 1)"],
        ["compose-double", "--base", "s2", "--degree", str(10**20), "--meridians", "(0 1);(0 1)"],
        ["stabilize", "--base", "s2", "--degree", str(10**20), "--times", "0"],
    ],
    ids=lambda argv: f"{argv[0]}-{'file' if argv[1] == '--input' else 'flags'}",
)
def test_huge_degrees_are_refused_before_any_permutation(tmp_path, argv):
    # a datum of degree 10^20 with no generators to check its degree against
    # ended in an OverflowError traceback (exit 1) once the relation check
    # or the walk sized a list by it, and from flags parsing a cycle did
    doc = {"format": "hurwitz", "version": 1, "base": {"orientable": True, "genus": 0}, "degree": 10**20}
    argv = [a.format(doc=write_doc(tmp_path, "h.json", doc)) for a in argv]
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "")
    assert err == (
        f"error: reading the datum of degree {10**20} would take more than the budget of 4000000 steps\n"
    )


def test_inputs_at_the_edge_of_one_pass_are_admitted(tmp_path):
    # a built datum is one pass, so reading it back is admitted: the
    # hyperelliptic datum of genus 58822 (117,646 meridians of degree 2)
    # is the most generators construct admits; and a degree of 3,999,968
    # is one pass with no generators, which validate checks building nothing
    path = write_doc(tmp_path, "h.json", jsonio.hurwitz_to_json(construct_hyperelliptic(58822)))
    rc, _, err = run_cli(["validate", "--input", path])
    assert (rc, err) == (0, "")
    rc, _, err = run_cli(["validate", "--base", "s2", "--degree", "3999968"])
    assert (rc, err) == (0, "")
    rc, _, err = run_cli(["validate", "--base", "s2", "--degree", "3999969"])
    assert (rc, err) == (2, "error: reading the datum of degree 3999969 would take more than the budget of 4000000 steps\n")


@pytest.mark.parametrize("degree", [125001, 1000000, 3999968])
def test_total_space_report_is_charged_per_component(degree):
    # a degree-d datum with no generators is one pass of d + 32 steps, but
    # its report lists d one-sheet components: 10^6 of them took 19.3 s and
    # 1.55 GB before each was charged 32 steps (125,000 are admitted)
    start = time.perf_counter()
    child, _ = run_measured(
        [sys.executable, "-m", "coverbench.cli", "total-space", "--base", "s2", "--degree", str(degree)],
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == (
        f"error: reporting {degree} components would take more than the budget of 4000000 steps\n"
    )
    if degree <= 10**6:
        assert time.perf_counter() - start < 3


# --- mutated documents: every --input subcommand ends in a report or a
# one-line error ---


def _valid_documents():
    """Small valid documents of each kind, each with the --input
    subcommands that read it."""
    normal = normalize(sample_graph())
    depth = str(normal.stable_depth)
    hurwitz = [["validate"], ["total-space"], ["stabilize", "--times", "2"], ["compose-double"]]
    exhaustion = [
        ["validate"],
        ["normalize"],
        ["count-ends", "--levels", depth, "--remaining", "0"],
        ["build-cover", "--levels", depth],
    ]
    layered = [["verify"], ["verify", "--restrictions"], ["compose-staircase", "--levels", "2"]]
    docs = {
        "hurwitz": (jsonio.hurwitz_to_json(construct_hyperelliptic(1)), hurwitz),
        "hurwitz-rp2": (jsonio.hurwitz_to_json(construct_cyclic_rp2(2)), hurwitz),
        "exhaustion": (jsonio.exhaustion_to_json(sample_graph()), exhaustion),
        "normalized": (jsonio.exhaustion_to_json(normal), exhaustion),
        "layered": (jsonio.layered_to_json(build_cover(normal, normal.stable_depth)), layered),
    }
    # the builders share the objects' tuples; through text they are lists,
    # which _positions walks into and the mutations replace item by item
    return {kind: (json.loads(jsonio.dumps(doc)), commands) for kind, (doc, commands) in docs.items()}


_VALID_DOCUMENTS = _valid_documents()
# a bool, a huge int, a string or a list in place of any value, or none
_SWAPS = (True, False, 10**30, -(10**30), "x", [], [0, 1])


def _positions(doc, path=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _positions(value, path + (key,))


@st.composite
def _mutated_documents(draw):
    valid, commands = _VALID_DOCUMENTS[draw(st.sampled_from(sorted(_VALID_DOCUMENTS)))]
    doc = copy.deepcopy(valid)
    *head, key = draw(st.sampled_from(list(_positions(doc))))
    parent = doc
    for k in head:
        parent = parent[k]
    swap = draw(st.sampled_from((None, *_SWAPS)))
    if swap is None:
        del parent[key]  # a key, or an item of a list
    else:
        parent[key] = copy.deepcopy(swap)
    return doc, commands


def test_mutated_documents_reach_every_input_subcommand():
    subcommands = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
    reading = {name for name, p in subcommands.items() if any(a.dest == "input" for a in p._actions)}
    assert {argv[0] for _, commands in _VALID_DOCUMENTS.values() for argv in commands} == reading
    for doc, _ in _VALID_DOCUMENTS.values():
        assert doc == json.loads(json.dumps(doc))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_end_in_a_report_or_one_error_line(tmp_path_factory, mutated):
    doc, commands = mutated
    path = str(tmp_path_factory.getbasetemp() / "mutated.json")
    with open(path, "w") as fh:
        fh.write(jsonio.dumps(doc))
    for command, *flags in commands:
        rc, out, err = run_cli([command, "--input", path, *flags])
        assert rc in (0, 1, 2), (command, rc)
        if rc == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, command
        else:
            assert err == "", command
            result = report_of(out)["result"]
            if rc == 1:
                assert result["ok"] is False, command


@pytest.mark.parametrize(
    ("argv", "code", "classified"),
    [
        (["classify", "--chi", "-2", "--orientable", "true"], 0, True),
        (["classify", "--chi", "3", "--orientable", "true"], 2, True),
        (["classify", "--chi", "-2"], 2, False),
    ],
)
def test_main_runs_with_its_gc_threshold_and_restores_the_caller_s(
    monkeypatch, argv, code, classified
):
    # the run's young collections wait for many allocations, and an
    # in-process caller gets its own threshold back, whether the run
    # reports, fails or stops in argument parsing
    seen = []
    classify = cli.classify
    monkeypatch.setattr(cli, "classify", lambda *a: seen.append(gc.get_threshold()) or classify(*a))
    caller = gc.get_threshold()
    gc.set_threshold(555, 7, 9)
    try:
        rc, _, err = run_cli(argv)
        assert gc.get_threshold() == (555, 7, 9)
    finally:
        gc.set_threshold(*caller)
    assert rc == code and (err == "") == (code == 0)
    assert seen == ([cli._GC_THRESHOLD] if classified else [])


def test_normalize_refuses_past_its_price_at_once(tmp_path):
    # a 633-way fan makes 200,029 pieces through its pass-through rings
    fan = ExhaustionGraph((Piece("f", 1, 0, (), tuple(range(1, 634))),))
    path = write_doc(tmp_path, "fan.json", jsonio.exhaustion_to_json(fan))
    start = time.perf_counter()
    rc, out, err = run_cli(["normalize", "--input", path])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert err == (
        "error: normalizing 1 pieces into at most 200029 would take more than the budget of 4000000 steps\n"
    )
