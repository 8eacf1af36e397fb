"""Black and black-white pebbling: the move rules and trace validation.

A pebbling is a sequence of moves on a board of black and white pebbles.
Placing a black pebble on v needs every predecessor of v pebbled (either
colour); removing a black pebble is free.  Placing a white pebble is free;
removing one needs every predecessor pebbled.  The black game has no white
moves.  A complete pebbling starts and ends with an empty board and
pebbles every target at some step.  Time counts placements only; space is
the maximum number of pebbles on the board.  ``validate_pebbling`` is the
one place these rules are applied.
"""

from __future__ import annotations

from typing import NamedTuple

from .dag import Dag
from .errors import IllegalMove, IncompletePebbling, ParseError, _lines, _Memo

__all__ = [
    "Move",
    "PebblingTrace",
    "validate_pebbling",
    "parse_moves",
    "format_moves",
]

MOVE_KINDS = ("PB", "RB", "PW", "RW")


class _MoveFields(NamedTuple):
    kind: str
    v: int


class Move(_MoveFields):
    """One pebbling move: place/remove a black/white pebble on vertex v."""

    __slots__ = ()

    def __new__(cls, kind: str, v: int):
        if kind not in MOVE_KINDS:
            raise IllegalMove(f"unknown move kind {kind!r}")
        return tuple.__new__(cls, (kind, v))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks its fields too
        return cls(*iterable)

    def __str__(self):
        return f"{self.kind} {self.v}"


def pb(v: int) -> Move:
    return Move("PB", v)


def rb(v: int) -> Move:
    return Move("RB", v)


def pw(v: int) -> Move:
    return Move("PW", v)


def rw(v: int) -> Move:
    return Move("RW", v)


class PebblingTrace(NamedTuple):
    """A validated complete pebbling with its resource usage."""

    game: str
    moves: tuple[Move, ...]
    time: int
    space: int

    @property
    def moves_total(self) -> int:
        return len(self.moves)

    def report(self) -> dict:
        return {"time": self.time, "space": self.space, "moves_total": self.moves_total}


def validate_pebbling(g: Dag, moves, game: str = "black") -> PebblingTrace:
    """Check a move sequence is a complete pebbling in ``game`` ("black" or
    "bw") and measure it.

    The board is two bitmask ints, ``black`` and ``white``, replayed one
    move at a time; a placement or white removal tests ``g.pred_mask[v]``
    against the board.  Raises IllegalMove without an index for an unknown
    game, whatever the moves, and with the move's index on the first rule
    violation: a vertex out of range, a placement on a pebbled vertex, a
    removal of an absent pebble, a black placement or white removal with a
    predecessor unpebbled, or a white move in the black game.  Raises
    IncompletePebbling if the board is nonempty at the end or some target
    is never pebbled.
    """
    if game not in ("black", "bw"):
        raise IllegalMove(f"unknown game {game!r}")
    moves = tuple(moves)
    n, pred_mask, white_ok = g.n, g.pred_mask, game == "bw"
    black = white = placed = 0
    time = space = 0
    for i, mv in enumerate(moves):
        kind, v = mv.kind, mv.v
        if not 0 <= v < n:
            raise IllegalMove(f"vertex {v} out of range", index=i)
        bit = 1 << v
        if kind == "RB":
            if not black & bit:
                raise IllegalMove(f"no black pebble on {v}", index=i)
            black ^= bit
        elif kind != "PB" and not white_ok:
            raise IllegalMove("white moves forbidden in black game", index=i)
        elif kind == "RW":
            if not white & bit:
                raise IllegalMove(f"no white pebble on {v}", index=i)
            if pred_mask[v] & ~(black | white):
                raise IllegalMove(f"predecessor of {v} unpebbled", index=i)
            white ^= bit
        else:
            board = black | white
            if board & bit:
                raise IllegalMove(f"vertex {v} already pebbled", index=i)
            if kind == "PB":
                if pred_mask[v] & ~board:
                    raise IllegalMove(f"predecessor of {v} unpebbled", index=i)
                black |= bit
            else:
                white |= bit
            placed |= bit
            time += 1
            space = max(space, board.bit_count() + 1)
    if black | white:
        raise IncompletePebbling("final configuration nonempty")
    missing = g.target_mask & ~placed
    if missing:
        raise IncompletePebbling(f"target {(missing & -missing).bit_length() - 1} never pebbled")
    return PebblingTrace(game=game, moves=moves, time=time, space=space)


# --- text format: one move per line, e.g. "PB 3" ---------------------------


def _move_lines(moves):
    """The moves' text a line at a time, each with its line feed; the
    ``strategy`` command writes the lines as they come."""
    return (f"{m}\n" for m in moves)


def format_moves(moves) -> str:
    return "".join(_move_lines(moves))


def parse_moves(text: str) -> list[Move]:
    """The moves of ``text``, one per line, one ``Move`` per distinct move."""
    move = _Memo(lambda key: Move(*key)).__getitem__
    out: list[Move] = []
    for lineno, line, parts in _lines(text):
        if len(parts) != 2 or parts[0] not in MOVE_KINDS:
            raise ParseError(f"bad move line {line.strip()!r}", lineno)
        try:
            v = int(parts[1])
        except ValueError:
            raise ParseError(f"bad vertex in {line.strip()!r}", lineno) from None
        out.append(move((parts[0], v)))
    return out
