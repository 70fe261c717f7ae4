"""The traced-run shim: self-time arithmetic and the rebinding of wrappers."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from shim import Tracer

BENCH_DIR = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_of_a_synthetic_nest():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.tick(2.0)

    def middle():
        clock.tick(1.0)
        leaf()
        leaf()
        clock.tick(0.5)

    def top():
        clock.tick(3.0)
        middle()
        leaf()

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle)
    top = tracer.wrap("top", top)
    top()
    spans = tracer.report()["spans"]
    assert spans["leaf"] == {"calls": 3, "total_s": 6.0, "self_s": 6.0}
    assert spans["middle"] == {"calls": 1, "total_s": 5.5, "self_s": 1.5}
    assert spans["top"] == {"calls": 1, "total_s": 10.5, "self_s": 3.0}


def test_recursion_counts_total_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def down(n):
        clock.tick(1.0)
        if n:
            down(n - 1)

    down = tracer.wrap("down", down)
    down(2)
    assert tracer.report()["spans"]["down"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}


def test_raising_call_is_still_recorded():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.tick(1.0)
        raise ValueError("boom")

    def outer():
        clock.tick(1.0)
        try:
            inner()
        except ValueError:
            pass

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()
    spans = tracer.report()["spans"]
    assert spans["inner"]["calls"] == 1
    assert spans["outer"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}


def test_counter_sees_arguments_and_result():
    tracer = Tracer()

    def count(counts, args, result):
        counts["n"] += args[0] + result

    double = tracer.wrap("double", lambda x: 2 * x, count)
    assert double(3) == 6
    assert tracer.counts["n"] == 9


def test_shim_traces_a_census_cell(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(BENCH_DIR.parent / "src")}
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "shim.py"), str(spans_path),
         "enumerate", "--base", "s2", "--degree", "3", "--branch-points", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["result"]
    traced = json.loads(spans_path.read_text())
    spans, counts = traced["spans"], traced["counts"]
    # every layer's calls went through the wrappers, including calls made
    # from other modules that imported the function by name
    assert spans["cli.main"]["calls"] == 1
    assert spans["census.enumerate_shard"]["calls"] == 1
    assert spans["census.GroupTable"]["calls"] == 1
    assert spans["hurwitz.is_connected"]["calls"] == counts["census.classes"]
    assert spans["hurwitz.validate"]["calls"] >= spans["hurwitz.total_space"]["calls"] >= 1
    assert counts["census.tuples"] >= counts["census.connected_raw"] > 0
    assert counts["census.connected_raw"] == report["total_raw"]
    assert counts["jsonio.bytes_out"] == len(proc.stdout)
    for name, s in spans.items():
        assert s["self_s"] <= s["total_s"] + 1e-9, name
    main = spans["cli.main"]
    inner = sum(s["total_s"] for n, s in spans.items() if n in (
        "census.enumerate_covers", "jsonio.dumps", "jsonio.hurwitz_to_json"))
    assert main["self_s"] == pytest.approx(main["total_s"] - inner, abs=1e-6)
    assert report["total_raw"] == 24  # Hurwitz: (2d - 2)! d^(d - 3) at d = 3
    assert traced["import_s"] > 0
