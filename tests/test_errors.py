"""The one admission rule: errors.admit against the step budget."""
from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from coverbench import characters, cli, exhaustion, hurwitz, jsonio, layered
from coverbench.errors import STEP_BUDGET, LimitExceeded, admit
from coverbench.exhaustion import ExhaustionGraph, Piece, normalize
from coverbench.surfaces import SPHERE
from oracles import genus0_chain, run_measured


def test_admit_lets_a_run_at_the_budget_through():
    admit("a run", STEP_BUDGET)
    admit("a run", 0)


@pytest.mark.parametrize(
    "steps",
    [STEP_BUDGET + 1, 3 * STEP_BUDGET, 1 << 16000],
    ids=["one-over", "three-times", "2^16000"],
)
def test_admit_refuses_past_the_step_budget(steps):
    with pytest.raises(LimitExceeded) as refused:
        admit("a run", steps)
    assert str(refused.value) == "a run would take more than the budget of 4000000 steps"


def test_the_step_budget_bounds_memory(tmp_path):
    # one admitted run of each priced family peaks, above a classify run,
    # under 128 bytes per step it is charged, so a run at the budget's
    # edge stays under about 0.5 GB
    fan = ExhaustionGraph((Piece("f", 1, 0, (), tuple(range(1, 301))),))
    path = tmp_path / "fan.json"
    path.write_text(jsonio.dumps(jsonio.exhaustion_to_json(fan)))
    sweep = exhaustion._Normalizer(fan)
    # a cover written without whitespace, the most values per byte
    normal = normalize(ExhaustionGraph((Piece("f", 1, 0, (), tuple(range(1, 151))),)))
    cover = json.loads(jsonio.dumps(jsonio.layered_to_json(layered.build_cover(normal, normal.stable_depth))))
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover, separators=(",", ":")))
    # a cover of many blocks and one branch point, priced by its blocks
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(jsonio.dumps(jsonio.exhaustion_to_json(genus0_chain(20_000))))
    runs = [
        (["classify", "--chi", "-2", "--orientable", "true"], None),
        (["construct", "--family", "cyclic-rp2", "--crosscaps", "300000"], hurwitz.pass_steps(3, 300000)),
        (
            ["normalize", "--input", str(path)],
            exhaustion._PIECE_STEPS + exhaustion._MADE_STEPS * (1 + sweep.made) + sweep.searched,
        ),
        (
            ["stabilize", "--base", "s2", "--degree", "2", "--meridians", "(0 1);(0 1)", "--times", "700"],
            hurwitz.stabilize_steps(2, 2, 700),
        ),
        (
            ["build-cover", "--input", str(chain_path), "--levels", "20000"],
            layered._BRANCH_STEPS + layered._BLOCK_STEPS * 20_000,
        ),
        (["staircase", "--levels", "1500", "--verify"], 2 * 1500**2 // layered._SQUARED_LEVELS_PER_STEP),
        (
            ["enumerate", "--base", "s2", "--degree", "6", "--branch-points", "400", "--all"],
            sum(characters.sums_cost(SPHERE, 6, 400, False)),
        ),
        (
            ["verify", "--restrictions", "--input", str(cover_path)],
            os.path.getsize(cover_path) // cli._BYTES_PER_STEP,
        ),
    ]

    def peak(run):
        argv, _ = run
        child, measured = run_measured([sys.executable, "-m", "coverbench.cli", *argv], timeout=60)
        assert (child.returncode, child.stderr) == (0, ""), argv
        return measured

    with ThreadPoolExecutor(2) as pool:
        floor, *peaks = pool.map(peak, runs)
    per_step = {argv[0]: (p - floor) / steps for (argv, steps), p in zip(runs[1:], peaks)}
    assert max(per_step.values()) < 128, per_step


_EDGE = (STEP_BUDGET + 1) * cli._BYTES_PER_STEP  # the fewest bytes refused


@pytest.mark.parametrize(
    ("size", "refused"),
    [(110_726_809, True), (_EDGE, True), (_EDGE - 1, False)],
    ids=["ladder-1000x500", "one-step-over", "at-the-budget"],
)
def test_a_document_is_priced_by_its_bytes_before_it_is_read(tmp_path, size, refused):
    # sparse files, one of the 1000 x 500 ladder document's size: the size
    # comes from the file system, so a refused document is never read and
    # its run peaks near the interpreter's 20 MB
    path = tmp_path / "doc.json"
    with open(path, "wb") as fh:
        fh.truncate(size)
    child, peak = run_measured(
        [sys.executable, "-m", "coverbench.cli", "normalize", "--input", str(path)], timeout=60
    )
    assert (child.returncode, child.stdout) == (2, "")
    budget_line = f"error: reading a document of {size} bytes would take more than the budget of 4000000 steps\n"
    assert (child.stderr == budget_line) == refused, child.stderr
    if refused:
        assert peak < 64 << 20
