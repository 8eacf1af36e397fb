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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .dag import Dag
from .errors import (
    BadInflation,
    BadMerge,
    GraphError,
    IllegalMove,
    IncompletePebbling,
    ParseError,
)

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
    "inflate",
    "is_chain",
    "legal_pebble_positions",
    "chargeable_vertices",
    "blob_cost",
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


def inflate(
    s: BlobSubconfig,
    target: BlobSubconfig,
    g: Dag | None = None,
    strict: bool = False,
) -> BlobSubconfig:
    """Weaken s to target.  Both components may only grow, staying disjoint.

    With ``strict`` (needs g) the inflated subconfiguration must also keep
    its blob a chain and its whites inside the blob's legal pebble
    positions; see ``check_strict_shape``.  Given g, every vertex of
    target must be in it.
    """
    if g is not None:
        for v in sorted(target.blob | target.whites):
            if not 0 <= v < g.n:
                raise BadInflation(f"vertex {v} out of range")
    if not s.blob <= target.blob:
        raise BadInflation("blob not superset")
    if not s.whites <= target.whites:
        raise BadInflation("whites not superset")
    if strict:
        if g is None:
            raise BadInflation("strict inflation needs the graph")
        problem = check_strict_shape(g, target)
        if problem:
            raise BadInflation(problem)
    return target


def is_chain(g: Dag, blob: frozenset[int]) -> bool:
    """True iff the blob is totally ordered by reachability."""
    vs = sorted(blob)
    return all(g.reaches(a, b) for a, b in zip(vs, vs[1:]))


def legal_pebble_positions(g: Dag, blob: frozenset[int]) -> frozenset[int]:
    """Vertices where a white supporting this blob may sit.

    For a chain blob b1 < b2 < ... < bk these are the vertices strictly
    below b1 together with the vertices lying on a path segment between two
    consecutive blob vertices, minus the blob itself.
    """
    vs = sorted(blob)
    out: set[int] = set()
    b1 = vs[0]
    for u in range(g.n):
        if u != b1 and g.reaches(u, b1):
            out.add(u)
    for a, b in zip(vs, vs[1:]):
        for u in range(g.n):
            if g.reaches(a, u) and g.reaches(u, b):
                out.add(u)
    return frozenset(out - blob)


def check_strict_shape(g: Dag, s: BlobSubconfig) -> str | None:
    """Strict-variant side conditions; returns a problem string or None."""

    def mask(vs) -> int:  # bit n stands for every vertex outside the graph
        return sum(1 << v for v in {v if 0 <= v < g.n else g.n for v in vs})

    return _shape_problem(g, mask(s.blob), mask(s.whites))


def _shape_problem(g: Dag, blob: int, whites: int) -> str | None:
    """``check_strict_shape`` on a nonempty blob and its whites as bitmasks.

    The blob must be a chain (``is_chain``), and each white must lie in
    ``legal_pebble_positions``: in the graph, outside the blob, and strictly
    below the bottom vertex or on a path between two consecutive blob
    vertices.  No vertex reaches or is reached from one outside the graph.
    """
    vs = [v for v in range(blob.bit_length()) if blob >> v & 1]
    pairs = list(zip(vs, vs[1:]))
    if not all(g.reaches(a, b) for a, b in pairs):
        return "blob not a chain"
    if whites & blob or whites >> g.n:
        return "white pebble outside legal positions"
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


def _masks(g: Dag, s: BlobSubconfig) -> tuple[int, int]:
    """The blob and whites of s as bitmasks; GraphError for a vertex
    outside the graph."""
    for v in sorted(s.blob | s.whites):
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    return sum(1 << v for v in s.blob), sum(1 << v for v in s.whites)


def chargeable_vertices(g: Dag, s: BlobSubconfig) -> frozenset[int]:
    """Blob vertices plus whites strictly below the blob's bottom vertex."""
    charged = _charge(g.below, *_masks(g, s))
    return frozenset(v for v in s.blob | s.whites if charged >> v & 1)


def blob_cost(g: Dag, cfg: BlobConfig) -> dict:
    """Naive and chargeable cost of a configuration."""
    blobs = whites = charged = 0
    for s in cfg.subs:
        blob, white = _masks(g, s)
        blobs |= blob
        whites |= white
        charged |= _charge(g.below, blob, white)
    return {"naive": blobs.bit_count() + whites.bit_count(), "chargeable": charged.bit_count()}


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
    """
    moves = tuple(moves)
    live: dict[int, BlobSubconfig] = {}
    present: set[BlobSubconfig] = set()
    ids = count()
    cost = 0
    naive = 0

    def add(s: BlobSubconfig, idx: int):
        if s in present:
            raise IllegalMove(f"duplicate subconfiguration {s}", index=idx)
        if labelled_only and len(s.blob) != 1:
            raise IllegalMove(f"blob not a singleton in labelled game: {s}", index=idx)
        if strict:
            problem = check_strict_shape(g, s)
            if problem:
                raise IllegalMove(f"{problem}: {s}", index=idx)
        live[next(ids)] = s
        present.add(s)

    def get(i: int, idx: int) -> BlobSubconfig:
        if i not in live:
            raise IllegalMove(f"unknown subconfiguration {i}", index=idx)
        return live[i]

    for idx, mv in enumerate(moves):
        try:
            if isinstance(mv, IntroduceMove):
                add(introduce(g, mv.v), idx)
            elif isinstance(mv, MergeMove):
                add(merge(get(mv.i, idx), get(mv.j, idx), mv.pivot), idx)
            elif isinstance(mv, InflateMove):
                target = BlobSubconfig(mv.blob, mv.whites)
                add(inflate(get(mv.i, idx), target, g=g, strict=strict), idx)
            elif isinstance(mv, EraseMove):
                s = get(mv.i, idx)
                del live[mv.i]
                present.discard(s)
            else:
                raise IllegalMove(f"unknown move {mv!r}", index=idx)
        except IllegalMove as e:
            if e.index is None:
                raise type(e)(e.reason, index=idx) from None
            raise
        costs = blob_cost(g, BlobConfig(frozenset(live.values())))
        cost = max(cost, costs["chargeable"])
        naive = max(naive, costs["naive"])

    final = BlobConfig(frozenset(live.values()))
    for t in g.targets:
        if BlobSubconfig(frozenset({t})) not in final.subs:
            raise IncompletePebbling(f"no unconditional subconfiguration for target {t}")
    return BlobTrace(moves=moves, cost=cost, naive_cost=naive, final=final)


# --- text format: "I v", "M i j p", "F i blob|whites", "E i" ----------------


def format_blob_moves(moves) -> str:
    return "\n".join(str(m) for m in moves) + ("\n" if moves else "")


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
