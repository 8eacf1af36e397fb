"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "PebbleBenchError",
    "GraphError",
    "ParseError",
    "IllegalMove",
    "IncompletePebbling",
    "BadMerge",
    "BadInflation",
    "BadPivot",
    "TautologicalResolvent",
    "VerificationError",
    "SizeBoundExceeded",
    "BudgetTooSmall",
    "UnsupportedFamily",
    "UnsupportedOperation",
]


class PebbleBenchError(Exception):
    """Base class for all domain errors raised by this package."""


class GraphError(PebbleBenchError):
    """Structurally invalid graph (bad vertex ids, bad targets, ...)."""


class ParseError(PebbleBenchError):
    """Malformed text input.  Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _IndexedError(PebbleBenchError):
    """An error at the 0-based position ``index`` of a trace, or ``None`` for
    a single-step check.  The message renders it 1-based after the ``_item``
    word, to match line numbering in the trace's file."""

    def __init__(self, reason: str, index: int | None = None):
        self.reason = reason
        self.index = index
        super().__init__(reason if index is None else f"{self._item} {index + 1}: {reason}")


class IllegalMove(_IndexedError):
    """A pebbling or blob move that violates the game rules."""

    _item = "move"


class IncompletePebbling(PebbleBenchError):
    """A legal move sequence that does not form a complete pebbling."""


class BadMerge(IllegalMove):
    """Merge preconditions violated (pivot placement or disjointness)."""


class BadInflation(IllegalMove):
    """Inflation preconditions violated."""


class BadPivot(PebbleBenchError):
    """Resolution step whose pivot does not appear with the right signs."""


class TautologicalResolvent(PebbleBenchError):
    """Resolution step that would produce a clause with x and not-x."""


class VerificationError(_IndexedError):
    """Refutation checking failure at event ``index``."""

    _item = "event"


class SizeBoundExceeded(PebbleBenchError):
    """Instance is larger than the exhaustive search is willing to chew on."""


class BudgetTooSmall(PebbleBenchError):
    """Strategy space budget below the generator's minimum.

    ``minimum`` is the smallest budget the generator accepts for the
    instance, so callers can retry.
    """

    def __init__(self, budget: int, minimum: int):
        self.budget = budget
        self.minimum = minimum
        super().__init__(f"space budget {budget} below strategy minimum {minimum}")


class UnsupportedFamily(PebbleBenchError):
    """Operation asked for a graph family it does not know how to handle."""


class UnsupportedOperation(PebbleBenchError):
    """Combination of inputs the implementation deliberately does not cover
    (for example compiling black-white traces, or blob traces at d > 1)."""
