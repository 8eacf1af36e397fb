"""Exception types shared across the package; ``_lines``, the one line
reader of every text format, which supplies ``ParseError``'s line numbers;
and ``_Memo``, which makes a recurring literal's text, the int a literal's
token stands for, or a move, once per text."""

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


# Characters of text that ``_lines`` splits at a time.
_CHUNK = 1 << 16


def _lines(text: str):
    r"""The lines of ``text`` that are neither blank nor comments, as
    ``(lineno, line, tokens)``: the 1-based line number, counting every
    line, the line as read, and its whitespace-split tokens.  A comment is
    a line whose first token starts with ``c``, as in DIMACS.  Every text
    format is read through this; a message that quotes ``line`` strips it.

    The lines are those of ``text.splitlines()``, but the text is split a
    chunk at a time, so the line objects of one chunk are held at once, not
    those of the whole text.  A chunk runs from where the last one ended
    through the first ``"\n"`` at or after ``_CHUNK`` characters on, or to
    the end of the text; a text with no ``"\n"`` is one chunk.  Every chunk
    but the last ends with ``"\n"``, which ends a line, so no line and no
    ``"\r\n"`` pair straddles two chunks: the ``splitlines()`` of the whole
    text is the concatenation of the chunks' ``splitlines()``, and the line
    numbers carry on from one chunk to the next: a chunk is not empty, so
    it has a line, and ``lineno`` ends at its last."""
    lineno = start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK)
        stop = len(text) if stop < 0 else stop + 1
        for lineno, line in enumerate(text[start:stop].splitlines(), lineno + 1):
            parts = line.split()
            if parts and parts[0][0] != "c":
                yield lineno, line, parts
        start = stop


class _Memo(dict):
    """key -> fn(key), computed on a miss and kept: the text of a literal,
    the literal a token stands for, or a move, made once per text written
    or read or per schedule emitted, so a clause list holds one int object
    per literal value and a move list one ``Move`` per distinct move.  A
    miss that raises keeps nothing."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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
