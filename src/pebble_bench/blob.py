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

Both replay a subconfiguration as a (blob, whites) pair of bitmasks, with
vertex v at bit v, and test the strict shape with ``_shape_problem``.
``BlobSubconfig`` is the frozenset form that moves, messages and the
compiler read; ``_vertices`` turns a mask back into a vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .dag import Dag
from .errors import (
    BadInflation,
    BadMerge,
    IllegalMove,
    IncompletePebbling,
    ParseError,
)
from .pebbling import format_moves as format_blob_moves  # one move per line, as for pebbling

__all__ = [
    "BlobSubconfig",
    "BlobConfig",
    "IntroduceMove",
    "MergeMove",
    "InflateMove",
    "EraseMove",
    "BlobTrace",
    "introduce",
    "merge",
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


def _vertices(m: int) -> frozenset[int]:
    """The vertices of the bitmask m, the vertex set of a blob or its whites."""
    return frozenset(x.bit_length() - 1 for x in _bits(m))


# ---------------------------------------------------------------------------
# Moves on subconfigurations
# ---------------------------------------------------------------------------


def introduce(g: Dag, v: int) -> BlobSubconfig:
    """Download the pebbling axiom for v: [v]<preds(v)>."""
    if not (0 <= v < g.n):
        raise IllegalMove(f"vertex {v} out of range")
    return BlobSubconfig(frozenset({v}), frozenset(g.preds[v]))


def merge(s1: BlobSubconfig, s2: BlobSubconfig, pivot: int) -> BlobSubconfig:
    """Merge s1 (pivot in blob) with s2 (pivot white) on the pivot vertex.

    The result is [(B1 - pivot) | B2]<W1 | (W2 - pivot)>, the game image of
    resolving the two corresponding clauses.
    """
    if pivot not in s1.blob:
        raise BadMerge(f"pivot {pivot} not in first blob")
    if pivot not in s2.whites:
        raise BadMerge(f"pivot {pivot} not white in second subconfiguration")
    blob = (s1.blob - {pivot}) | s2.blob
    whites = s1.whites | (s2.whites - {pivot})
    if blob & whites:
        raise BadMerge("merge result not disjoint")
    return BlobSubconfig(blob, whites)


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
                (b1, w1), (b2, w2), p = live[mv.i], live[mv.j], mv.pivot
                if not (p >= 0 and b1 >> p & 1):
                    raise BadMerge(f"pivot {p} not in first blob")
                if not w2 >> p & 1:
                    raise BadMerge(f"pivot {p} not white in second subconfiguration")
                bit = 1 << p
                blob, whites = (b1 ^ bit) | b2, w1 | (w2 ^ bit)
                if blob & whites:
                    raise BadMerge("merge result not disjoint")
            elif isinstance(mv, InflateMove):
                BlobSubconfig(mv.blob, mv.whites)  # refuses an empty blob or an overlap
                b0, w0 = live[mv.i]
                outside = [v for v in mv.blob | mv.whites if not 0 <= v < n]
                if outside:
                    raise BadInflation(f"vertex {min(outside)} out of range")
                blob, whites = sum(1 << v for v in mv.blob), sum(1 << v for v in mv.whites)
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
                raise IllegalMove(f"{problem}{BlobSubconfig(_vertices(blob), _vertices(whites))}")
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
    final = frozenset(BlobSubconfig(_vertices(b), _vertices(w)) for b, w in live.values())
    return BlobTrace(moves=moves, cost=cost, naive_cost=naive, final=BlobConfig(final))


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
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
                raise ParseError(f"bad move line {line!r}", lineno)
        except ValueError:
            raise ParseError(f"bad integer in {line!r}", lineno) from None
    return out
