"""The one admission rule: errors.admit against the step budget."""
from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from coverbench import characters, exhaustion, hurwitz, jsonio, layered
from coverbench.errors import STEP_BUDGET, LimitExceeded, admit
from coverbench.exhaustion import ExhaustionGraph, Piece
from coverbench.surfaces import SPHERE
from oracles import run_measured


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
        (["staircase", "--levels", "1500", "--verify"], 2 * 1500**2 // layered._SQUARED_LEVELS_PER_STEP),
        (
            ["enumerate", "--base", "s2", "--degree", "6", "--branch-points", "400", "--all"],
            sum(characters.sums_cost(SPHERE, 6, 400, False)),
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
