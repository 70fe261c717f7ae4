"""Exception types, the validation report and the one admission rule
shared across the workbench."""
from __future__ import annotations

from dataclasses import dataclass, field

STEP_BUDGET = 4 * 10**6
"""Steps a run may be predicted to take. A step is the unit of a Hurwitz
pass, one entry of a permutation (module hurwitz); every other price is
fitted to the wall time of whole CLI runs in that unit, 0.1 to 1.4 us a
step on a 2-core Xeon with Python 3.11. It bounds memory too: a priced
run peaks under 128 bytes per charged step above the interpreter, so
under about 0.5 GB at the edge; the most measured is 101 bytes a step,
for construct --family cyclic-rp2 (tests/test_errors.py)."""


def admit(what: str, steps: int) -> None:
    """Refuse with LimitExceeded, before it starts, a run predicted to
    take more than STEP_BUDGET steps. The budget is a constant, so a
    verdict is the same on every machine."""
    if steps > STEP_BUDGET:
        raise LimitExceeded(f"{what} would take more than the budget of {STEP_BUDGET} steps")


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
    """A run was refused before it started: admit predicted it over the
    step budget, or a census row's counts are too long to print."""


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
    """Outcome of a structural check: problems lists human-readable
    reasons it failed, and notes informational remarks that do not
    affect ok."""

    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems
