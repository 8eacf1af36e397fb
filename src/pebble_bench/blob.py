"""The blob pebble game: black blobs with attached white supports.

A subconfiguration [B]<W> is a nonempty black vertex set B (the blob) plus a
disjoint white set W it depends on.  The game mirrors resolution:
introduction downloads [v]<preds(v)>, merger resolves two subconfigurations
on a pivot vertex, inflation weakens, erasure forgets.  A complete pebbling
starts from nothing and ends with [t]<> for every target t.

Cost has two flavours.  Naive cost charges every blob and white vertex in
play.  Chargeable cost charges blob vertices plus only those whites lying
strictly below the bottom vertex of their own blob; whites sitting beside or
above the blob ride for free.  One rule, ``_charge``, decides it on bitmasks
against the graph's reachability table ``Dag.below``, for the validator and
for the blob price search alike.

Every replay of a play holds a subconfiguration as a (blob, whites) pair of
bitmasks, with vertex v at bit v: the validator, the blob price search, and
the compiler and explainer in ``simulation``.  Each merges with ``_merge``,
and the validator and the search test the strict shape with
``_shape_problem``.  ``BlobSubconfig`` is the frozenset form that moves,
messages and configurations read; ``_pair`` and ``_subconfig`` convert
between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .dag import Dag
from .errors import BadInflation, BadMerge, IllegalMove, IncompletePebbling, ParseError, _lines
from .pebbling import format_moves as format_blob_moves  # one move per line, as for pebbling

__all__ = [
    "BlobSubconfig",
    "BlobConfig",
    "IntroduceMove",
    "MergeMove",
    "InflateMove",
    "EraseMove",
    "BlobTrace",
    "validate_blob_pebbling",
    "parse_blob_moves",
    "format_blob_moves",
]


@dataclass(frozen=True)
class BlobSubconfig:
    """One blob with its white support: [B]<W>."""

    blob: frozenset[int]
    whites: frozenset[int] = frozenset()

    def __post_init__(self):
        if not self.blob:
            raise IllegalMove("blob empty")
        if self.blob & self.whites:
            raise IllegalMove("blob and whites overlap")

    def __str__(self):
        b = ",".join(str(v) for v in sorted(self.blob))
        w = ",".join(str(v) for v in sorted(self.whites))
        return f"[{b}]<{w}>"


def sub(blob, whites=()) -> BlobSubconfig:
    """Shorthand constructor used heavily in tests."""
    return BlobSubconfig(frozenset(blob), frozenset(whites))


@dataclass(frozen=True)
class BlobConfig:
    """A set of subconfigurations (no duplicates by construction)."""

    subs: frozenset[BlobSubconfig] = frozenset()

    def __str__(self):
        return "{" + ", ".join(str(s) for s in sorted(self.subs, key=str)) + "}"


def _bits(m: int):
    """The one-bit masks of m."""
    while m:
        x = m & -m
        yield x
        m ^= x


def _pair(s) -> tuple[int, int]:
    """The (blob, whites) mask pair of s, a ``BlobSubconfig`` or an
    ``InflateMove``; its vertices must not be negative."""
    return sum(1 << v for v in s.blob), sum(1 << v for v in s.whites)


def _subconfig(s: tuple[int, int]) -> BlobSubconfig:
    """The ``BlobSubconfig`` of a (blob, whites) mask pair."""
    return BlobSubconfig(*(frozenset(x.bit_length() - 1 for x in _bits(m)) for m in s))


# ---------------------------------------------------------------------------
# Moves on mask pairs
# ---------------------------------------------------------------------------


def _merge(s1: tuple[int, int], s2: tuple[int, int], bit: int) -> tuple[int, int]:
    """Merge s1 with s2 on the pivot ``bit``, black in s1 and white in s2.

    The result is [(B1 - p) | B2]<W1 | (W2 - p)>, the game image of
    resolving the two corresponding clauses on p.  Its blob and whites may
    overlap; each caller decides what that means.
    """
    return (s1[0] ^ bit) | s2[0], s1[1] | (s2[1] ^ bit)


def _shape_problem(g: Dag, blob: int, whites: int) -> str | None:
    """The strict-variant side conditions on a subconfiguration; returns a
    problem string or None.

    ``blob`` (nonempty) and ``whites`` are disjoint bitmasks of vertices in
    the graph.  The blob must be a chain, totally ordered by reachability,
    and each white must lie in a legal position: strictly below the bottom
    vertex or on a path between two consecutive blob vertices.
    """
    vs = [v for v in range(blob.bit_length()) if blob >> v & 1]
    pairs = list(zip(vs, vs[1:]))
    if not all(g.reaches(a, b) for a, b in pairs):
        return "blob not a chain"
    while whites:
        w = (whites & -whites).bit_length() - 1
        whites &= whites - 1
        if not (
            g.reaches(w, vs[0]) or any(g.reaches(a, w) and g.reaches(w, b) for a, b in pairs)
        ):
            return "white pebble outside legal positions"
    return None


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------


def _charge(below: tuple[int, ...], blob: int, whites: int) -> int:
    """Blob vertices plus whites strictly below the bottom vertex, as a
    bitmask, given ``Dag.below``.  Ids are topological, so the bottom vertex
    is the lowest set bit of the (nonempty) blob."""
    return blob | (whites & below[(blob & -blob).bit_length() - 1])


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------
#
# Moves address subconfigurations by the order they were created: the k-th
# subconfiguration ever added (by introduction, merger, or inflation) has id
# k, counting from 0.  Erased ids stay dead.


@dataclass(frozen=True)
class IntroduceMove:
    v: int

    def __str__(self):
        return f"I {self.v}"


@dataclass(frozen=True)
class MergeMove:
    i: int
    j: int
    pivot: int

    def __str__(self):
        return f"M {self.i} {self.j} {self.pivot}"


@dataclass(frozen=True)
class InflateMove:
    i: int
    blob: frozenset[int]
    whites: frozenset[int]

    def __str__(self):
        b = ",".join(str(v) for v in sorted(self.blob))
        w = ",".join(str(v) for v in sorted(self.whites))
        return f"F {self.i} {b}|{w}"


@dataclass(frozen=True)
class EraseMove:
    i: int

    def __str__(self):
        return f"E {self.i}"


BlobMove = IntroduceMove | MergeMove | InflateMove | EraseMove


@dataclass(frozen=True)
class BlobTrace:
    """A validated complete blob pebbling with its cost profile."""

    moves: tuple[BlobMove, ...]
    cost: int
    naive_cost: int
    final: BlobConfig

    @property
    def moves_total(self) -> int:
        return len(self.moves)

    def report(self) -> dict:
        return {
            "cost": self.cost,
            "naive_cost": self.naive_cost,
            "moves_total": self.moves_total,
        }


def validate_blob_pebbling(
    g: Dag,
    moves,
    labelled_only: bool = False,
    strict: bool = False,
) -> BlobTrace:
    """Replay a blob move list, check legality, and measure cost.

    ``labelled_only`` restricts play to singleton blobs (the labelled game).
    ``strict`` enforces chain blobs and legal white positions on every
    created subconfiguration.  Raises IllegalMove (with the move index) or
    IncompletePebbling.

    ``live`` maps each id to its (blob, whites) mask pair.  The unions of
    the live blobs, whites and charged vertices grow as a subconfiguration
    is created, the only move that can raise the cost, and are recomputed
    over the live pairs after an erasure.  A ``BlobSubconfig`` is built only
    for an error message and for ``final``.
    """
    moves = tuple(moves)
    n, below = g.n, g.below
    live: dict[int, tuple[int, int]] = {}
    held: set[tuple[int, int]] = set()  # live.values(), for the duplicate test
    ids = count()
    blobs = whites_in = charged = 0
    cost = naive = 0
    for idx, mv in enumerate(moves):
        try:
            if isinstance(mv, EraseMove):
                held.remove(live.pop(mv.i))
                blobs = whites_in = charged = 0
                for b, w in live.values():
                    blobs |= b
                    whites_in |= w
                    charged |= _charge(below, b, w)
                continue
            if isinstance(mv, IntroduceMove):
                if not 0 <= mv.v < n:
                    raise IllegalMove(f"vertex {mv.v} out of range")
                blob, whites = 1 << mv.v, g.pred_mask[mv.v]
            elif isinstance(mv, MergeMove):
                s1, s2, p = live[mv.i], live[mv.j], mv.pivot
                if not (p >= 0 and s1[0] >> p & 1):
                    raise BadMerge(f"pivot {p} not in first blob")
                if not s2[1] >> p & 1:
                    raise BadMerge(f"pivot {p} not white in second subconfiguration")
                blob, whites = _merge(s1, s2, 1 << p)
                if blob & whites:
                    raise BadMerge("merge result not disjoint")
            elif isinstance(mv, InflateMove):
                BlobSubconfig(mv.blob, mv.whites)  # refuses an empty blob or an overlap
                b0, w0 = live[mv.i]
                outside = [v for v in mv.blob | mv.whites if not 0 <= v < n]
                if outside:
                    raise BadInflation(f"vertex {min(outside)} out of range")
                blob, whites = _pair(mv)
                if b0 & ~blob:
                    raise BadInflation("blob not superset")
                if w0 & ~whites:
                    raise BadInflation("whites not superset")
            else:
                raise IllegalMove(f"unknown move {mv!r}")
            shape = strict and _shape_problem(g, blob, whites)
            if shape and isinstance(mv, InflateMove):
                raise BadInflation(shape)
            if (blob, whites) in held:
                problem = "duplicate subconfiguration "
            elif labelled_only and blob & (blob - 1):
                problem = "blob not a singleton in labelled game: "
            else:
                problem = shape and f"{shape}: "
            if problem:
                raise IllegalMove(f"{problem}{_subconfig((blob, whites))}")
            live[next(ids)] = blob, whites
            held.add((blob, whites))
            blobs |= blob
            whites_in |= whites
            charged |= _charge(below, blob, whites)
            cost = max(cost, charged.bit_count())
            naive = max(naive, blobs.bit_count() + whites_in.bit_count())
        except IllegalMove as e:
            raise type(e)(e.reason, index=idx) from None
        except KeyError as e:  # only a lookup in live raises it
            raise IllegalMove(f"unknown subconfiguration {e.args[0]}", index=idx) from None

    for t in g.targets:
        if (1 << t, 0) not in held:
            raise IncompletePebbling(f"no unconditional subconfiguration for target {t}")
    final = BlobConfig(frozenset(map(_subconfig, live.values())))
    return BlobTrace(moves=moves, cost=cost, naive_cost=naive, final=final)


# --- text format: "I v", "M i j p", "F i blob|whites", "E i" ----------------


def _vertex_list(tok: str, lineno: int) -> frozenset[int]:
    if not tok:
        return frozenset()
    try:
        return frozenset(int(t) for t in tok.split(","))
    except ValueError:
        raise ParseError(f"bad vertex list {tok!r}", lineno) from None


def parse_blob_moves(text: str) -> list[BlobMove]:
    out: list[BlobMove] = []
    for lineno, line, parts in _lines(text):
        try:
            if parts[0] == "I" and len(parts) == 2:
                out.append(IntroduceMove(int(parts[1])))
            elif parts[0] == "M" and len(parts) == 4:
                out.append(MergeMove(int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "F" and len(parts) == 3:
                if "|" not in parts[2]:
                    raise ParseError("inflation needs blob|whites", lineno)
                b, w = parts[2].split("|", 1)
                blob = _vertex_list(b, lineno)
                if not blob:
                    raise ParseError("inflation blob must be nonempty", lineno)
                out.append(InflateMove(int(parts[1]), blob, _vertex_list(w, lineno)))
            elif parts[0] == "E" and len(parts) == 2:
                out.append(EraseMove(int(parts[1])))
            else:
                raise ParseError(f"bad move line {line.strip()!r}", lineno)
        except ValueError:
            raise ParseError(f"bad integer in {line.strip()!r}", lineno) from None
    return out
