"""Exception types, the validation report and the one admission rule
shared across the workbench."""
from __future__ import annotations

from dataclasses import dataclass, field

MEMORY_BUDGET = 4 << 30
"""Bytes a run may be predicted to need."""
STEP_BUDGET = 4 * 10**6
"""Steps a run may be predicted to take. A step is the unit of a Hurwitz
pass, one entry of a permutation (module hurwitz); every other price is
fitted to the wall time of whole CLI runs in that unit, 0.1 to 1.4 us a
step on a 2-core Xeon with Python 3.11."""


def admit(what: str, *, bytes: int = 0, steps: int = 0) -> None:
    """Refuse with LimitExceeded, before it starts, a run predicted to
    need more than MEMORY_BUDGET bytes or STEP_BUDGET steps. Both budgets
    are constants, so a verdict is the same on every machine. The message
    names the larger overrun, the need rounded up to whole MiB (a need
    past 2^64 MiB as a power of two) or the step budget."""
    if bytes <= MEMORY_BUDGET and steps <= STEP_BUDGET:
        return
    if bytes * STEP_BUDGET < steps * MEMORY_BUDGET:
        raise LimitExceeded(f"{what} would take more than the budget of {STEP_BUDGET} steps")
    mib = -(-bytes >> 20)
    need = mib if mib.bit_length() <= 64 else f"2^{mib.bit_length() - 1}"
    raise LimitExceeded(f"{what} needs about {need} MiB, over the {MEMORY_BUDGET >> 20} MiB budget")


class WorkbenchError(Exception):
    """Base class for every error this package raises on purpose."""


class DegreeMismatch(WorkbenchError):
    """Permutations of different degrees were combined."""


class InvalidData(WorkbenchError):
    """Monodromy data fails a structural requirement."""


class NotASurface(WorkbenchError):
    """An Euler characteristic / orientability query hit an impossible pair."""


class NotSimple(WorkbenchError):
    """Branching was required to be simple but some meridian is not a transposition."""


class NotConnected(WorkbenchError):
    """A connected total space was required but the sheets fall apart."""


class NonorientableBase(WorkbenchError):
    """An operation that needs an orientable base got a nonorientable one."""


class WrongBase(WorkbenchError):
    """An operation pinned to a specific base surface got a different one."""


class LimitExceeded(WorkbenchError):
    """A run was refused before it started: admit predicted it over a
    budget, or a census row's counts are too long to print."""


class NotNormalized(WorkbenchError):
    """An exhaustion was expected in normal form but is not."""


class NonorientableInput(WorkbenchError):
    """A plane exhaustion contained a nonorientable piece."""


class DepthExceeded(WorkbenchError):
    """A query addressed a level deeper than the object provides."""


class UnverifiedInput(WorkbenchError):
    """A composite operation requires its input to pass verification first."""


class InvalidInput(WorkbenchError):
    """Malformed serialized input (bad JSON shape, bad values)."""


@dataclass
class ValidationReport:
    """Outcome of a structural check.

    ok is the single source of truth; problems lists human-readable
    reasons when ok is False and is empty otherwise.  notes carry
    informational remarks that do not affect ok.
    """

    ok: bool
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok
