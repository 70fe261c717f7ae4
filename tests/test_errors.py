"""The one admission rule: errors.admit against the byte and step budgets."""
from __future__ import annotations

import pytest

from coverbench.errors import MEMORY_BUDGET, STEP_BUDGET, LimitExceeded, admit


def test_admit_lets_a_run_at_both_budgets_through():
    admit("a run", bytes=MEMORY_BUDGET, steps=STEP_BUDGET)
    admit("a run")


@pytest.mark.parametrize(
    "bytes, steps, message",
    [
        # half a MiB over is rounded up
        (MEMORY_BUDGET + (1 << 19), 0, "a run needs about 4097 MiB, over the 4096 MiB budget"),
        (MEMORY_BUDGET + 1, STEP_BUDGET, "a run needs about 4097 MiB, over the 4096 MiB budget"),
        (0, STEP_BUDGET + 1, "a run would take more than the budget of 4000000 steps"),
        # both over: the larger overrun is named, and a tie names the bytes
        (2 * MEMORY_BUDGET, 3 * STEP_BUDGET, "a run would take more than the budget of 4000000 steps"),
        (3 * MEMORY_BUDGET, 2 * STEP_BUDGET, "a run needs about 12288 MiB, over the 4096 MiB budget"),
        (2 * MEMORY_BUDGET, 2 * STEP_BUDGET, "a run needs about 8192 MiB, over the 4096 MiB budget"),
        # a need past 2^64 MiB is told by its power of two
        (1 << 100, 0, "a run needs about 2^80 MiB, over the 4096 MiB budget"),
        (1 << 16000, 0, "a run needs about 2^15980 MiB, over the 4096 MiB budget"),
    ],
    ids=["bytes-rounded-up", "bytes", "steps", "steps-larger", "bytes-larger", "tie", "2^100-bytes", "2^16000-bytes"],
)
def test_admit_names_the_larger_overrun(bytes, steps, message):
    with pytest.raises(LimitExceeded) as refused:
        admit("a run", bytes=bytes, steps=steps)
    assert str(refused.value) == message
