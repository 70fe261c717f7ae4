"""Exception types, the validation report and the memory budget shared
across the workbench."""
from __future__ import annotations

from dataclasses import dataclass, field

MEMORY_BUDGET = 4 << 30
"""Bytes a run may be predicted to need before it is refused with
LimitExceeded: a constant, so a verdict is the same on every machine."""


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
    """A census cell or a layered cover would exceed the memory budget, a
    cell's character sums are too long, or a datum builder would take more
    steps than its budget."""


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
