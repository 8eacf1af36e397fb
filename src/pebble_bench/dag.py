"""DAGs for pebbling: vertex-indexed graphs, standard families, text io.

Vertices are dense 0-based ids in topological order: every edge goes from a
lower id to a higher id.  Fan-in is 0 or 2 everywhere except chains, which
use fan-in 1.  Targets default to the sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphError, ParseError, SizeBoundExceeded, UnsupportedFamily, _lines

__all__ = [
    "MAX_VERTICES",
    "Dag",
    "FamilySpec",
    "CsLayout",
    "CsLevel",
    "build_family",
    "carlson_savage_layout",
    "validate_dag",
    "read_graph",
    "write_graph",
]

# Largest graph built: 64 times the biggest benchmark instance, binary_tree(7)
# with 255 vertices.  pred_mask/succ_mask take O(n^2) bits: binary_tree(13),
# 16,383 vertices, builds in about 0.13 s and 60 MiB, binary_tree(16) would
# take 5 s and 2.3 GiB.  The reachability table ``below``, built on first
# use, also takes O(n^2) bits: at most about 18 MiB, on chain(16384).
MAX_VERTICES = 16_384


class Dag:
    """Immutable DAG with precomputed adjacency.

    ``preds``/``succs`` are tuples of sorted vertex tuples; ``pred_mask``/
    ``succ_mask`` hold the same neighbourhoods as bitmask ints (bit u set
    for neighbour u), the state vocabulary of the searches and measures.
    ``sources`` and ``sinks`` are derived from degrees, and ``targets`` is
    a sorted tuple (defaults to the sinks), also kept as ``target_mask``.
    ``below`` holds each vertex's strict ancestors as a bitmask; it is the
    graph's one reachability table, built on first use in O(n^2) bits, and
    ``reaches`` reads it.
    Ids are topological: an edge (u, v) with u >= v, a self-loop
    included, is refused with GraphError, as are an id out of range, a
    graph with no vertex and an empty target set, so every ``Dag`` has a
    pebbling, and every pebbling places a pebble.  More than
    ``MAX_VERTICES`` vertices are refused with SizeBoundExceeded.
    Construction is otherwise permissive about shape (fan-in, targets that
    are no sinks) so that ``validate_dag`` can report those problems.
    """

    __slots__ = ("n", "edges", "preds", "succs", "pred_mask", "succ_mask",
                 "sources", "sinks", "targets", "target_mask", "_below")

    def __init__(self, n: int, edges, targets=None):
        if n < 1:
            raise GraphError(f"graph has {n} vertices, needs at least 1")
        if n > MAX_VERTICES:
            raise SizeBoundExceeded(f"graph has {n} vertices, above the bound {MAX_VERTICES}")
        edges = tuple(sorted(set((int(u), int(v)) for u, v in edges)))
        for u, v in edges:
            if not 0 <= u < v < n:
                if 0 <= u < n and 0 <= v < n:
                    raise GraphError(f"edge ({u}, {v}) does not go from a lower id to a higher one")
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
        # edges are sorted, so each list is built in ascending order
        pred_lists: list[list[int]] = [[] for _ in range(n)]
        succ_lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            pred_lists[v].append(u)
            succ_lists[u].append(v)
        self.n = n
        self.edges = edges
        self.preds = tuple(map(tuple, pred_lists))
        self.succs = tuple(map(tuple, succ_lists))
        self.pred_mask = tuple(sum(1 << u for u in p) for p in self.preds)
        self.succ_mask = tuple(sum(1 << w for w in s) for s in self.succs)
        self.sources = tuple(v for v in range(n) if not self.preds[v])
        self.sinks = tuple(v for v in range(n) if not self.succs[v])
        if targets is None:
            self.targets = self.sinks
        else:
            self.targets = tuple(sorted(set(int(t) for t in targets)))
            if not self.targets:
                raise GraphError("graph has 0 targets, needs at least 1")
            for t in self.targets:
                if not (0 <= t < n):
                    raise GraphError(f"target {t} out of range for {n} vertices")
        self.target_mask = sum(1 << t for t in self.targets)
        self._below = None

    @property
    def below(self) -> tuple[int, ...]:
        """``below[v]``: bitmask of the vertices strictly below v, those with
        a path to v.  Built on first use; it takes O(n^2) bits."""
        if self._below is None:
            below = [0] * self.n
            # Edges are sorted by source and every edge into u starts below
            # u, so below[u] is complete before any edge leaves u.
            for u, v in self.edges:
                below[v] |= below[u] | 1 << u
            self._below = tuple(below)
        return self._below

    def reaches(self, u: int, v: int) -> bool:
        """True iff there is a (possibly empty) path from u to v;
        False when u or v is outside the graph."""
        return 0 <= v < self.n and (u == v or (0 <= u and self.below[v] >> u & 1 == 1))

    def __eq__(self, other):
        return (
            isinstance(other, Dag)
            and self.n == other.n
            and self.edges == other.edges
            and self.targets == other.targets
        )

    def __hash__(self):
        return hash((self.n, self.edges, self.targets))

    def __repr__(self):
        return f"Dag(n={self.n}, edges={len(self.edges)}, targets={self.targets})"


def validate_dag(g: Dag) -> list[str]:
    """Return a list of the shape problems ``Dag`` accepts: fan-in above 2,
    and targets that are no sinks (empty means the graph is fine).
    ``Dag`` itself refuses a graph with no vertex or no target and every
    edge that does not go from a lower id to a higher one."""
    report: list[str] = []
    for v in range(g.n):
        if len(g.preds[v]) > 2:
            report.append(f"fan-in exceeds 2 at vertex {v}")
    for t in g.targets:
        if t not in g.sinks:
            report.append(f"bad targets: {t} is not a sink")
    return report


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


# The one record of each family: its parameter names in order, each with its
# least value.  FamilySpec checks against it, and the command line makes its
# flags from it.
_FAMILY_PARAMS = {
    "chain": {"n": 1},
    "pyramid": {"h": 1},
    "binary_tree": {"h": 1},
    "carlson_savage": {"c": 2, "r": 0},
}


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance, e.g. pyramid(3) or carlson_savage(2,1)."""

    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        # A wrong parameter count or a value below its least is refused
        # here; an unknown kind by build_family.
        least, got = _FAMILY_PARAMS.get(self.kind, {}), len(self.params)
        if least and got != len(least):
            raise GraphError(f"family {self.kind} takes parameters ({', '.join(least)}), got {got}")
        for (name, low), value in zip(least.items(), self.params):
            if value < low:
                raise GraphError(f"{self.kind} needs {name} >= {low}")

    @classmethod
    def chain(cls, n: int) -> "FamilySpec":
        return cls("chain", (n,))

    @classmethod
    def pyramid(cls, h: int) -> "FamilySpec":
        return cls("pyramid", (h,))

    @classmethod
    def binary_tree(cls, h: int) -> "FamilySpec":
        return cls("binary_tree", (h,))

    @classmethod
    def carlson_savage(cls, c: int, r: int) -> "FamilySpec":
        return cls("carlson_savage", (c, r))

    def label(self) -> str:
        return f"{self.kind}({','.join(str(p) for p in self.params)})"

    def params_label(self) -> str:
        """Parameter string safe for CSV cells (no commas)."""
        return "-".join(str(p) for p in self.params)


def build_family(spec: FamilySpec) -> Dag:
    """Construct a family instance.  Raises UnsupportedFamily for an unknown
    kind, or SizeBoundExceeded, from the parameters alone, above
    ``MAX_VERTICES``; ``spec`` has checked the parameters already."""
    kind, params = spec.kind, spec.params
    if kind == "chain":
        (n,) = params
        _check_size(spec, n)
        return Dag(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "pyramid":
        (h,) = params
        _check_size(spec, (h + 1) * (h + 2) // 2)
        rows, edges, n = _pyramid_rows(h, 0)
        return Dag(n, edges)
    if kind == "binary_tree":
        (h,) = params
        # 2^(h+1) - 1 vertices; h is capped so that no huge power is formed
        _check_size(spec, 2 ** (min(h, MAX_VERTICES.bit_length()) + 1) - 1)
        # Leaves first, then each higher level; the root is the sink.
        level_ids = []
        nxt = 0
        for lvl in range(h + 1):
            width = 2 ** (h - lvl)
            level_ids.append(list(range(nxt, nxt + width)))
            nxt += width
        edges = []
        for lvl in range(1, h + 1):
            for i, v in enumerate(level_ids[lvl]):
                edges.append((level_ids[lvl - 1][2 * i], v))
                edges.append((level_ids[lvl - 1][2 * i + 1], v))
        return Dag(nxt, edges)
    if kind == "carlson_savage":
        dag, _ = carlson_savage_layout(*params)
        return dag
    raise UnsupportedFamily(f"unknown family kind {kind!r}")


def _check_size(spec: FamilySpec, n: int) -> None:
    if n > MAX_VERTICES:
        raise SizeBoundExceeded(f"{spec.label()} has more than {MAX_VERTICES} vertices")


def _pyramid_rows(h: int, start: int) -> tuple[list[list[int]], list[tuple[int, int]], int]:
    """Pyramid of height h with ids starting at ``start``.

    Row 0 holds the h+1 sources; row h is the apex.  Returns (rows, edges,
    next free id).  Vertex (row l, slot i) has predecessors (l-1, i) and
    (l-1, i+1).
    """
    rows: list[list[int]] = []
    nxt = start
    for lvl in range(h + 1):
        width = h + 1 - lvl
        rows.append(list(range(nxt, nxt + width)))
        nxt += width
    edges = []
    for lvl in range(1, h + 1):
        for i, v in enumerate(rows[lvl]):
            edges.append((rows[lvl - 1][i], v))
            edges.append((rows[lvl - 1][i + 1], v))
    return rows, edges, nxt


@dataclass(frozen=True)
class CsLevel:
    """One recursion level of the trade-off family."""

    apex: int
    prev_sinks: tuple[int, ...]
    aux_seq: tuple[int, ...]
    spines: tuple[tuple[int, ...], ...]
    sinks: tuple[int, ...]


@dataclass(frozen=True)
class CsLayout:
    """Vertex bookkeeping for carlson_savage(c, r), used by strategies."""

    c: int
    r: int
    base: tuple[int, ...]
    levels: tuple[CsLevel, ...] = field(default_factory=tuple)


def carlson_savage_layout(c: int, r: int) -> tuple[Dag, CsLayout]:
    """Build carlson_savage(c, r) together with its layout.

    Level 0 is c isolated base vertices.  Level k (1..r) adds one pyramid of
    height k plus c spines of length 2c-1.  Spine vertices alternate between
    consuming the level's pyramid apex and the previous level's sinks:
    the aux sequence is [apex, z_1, apex, z_2, ..., apex, z_c], spine vertex 0
    has predecessors (aux[0], aux[1]) and spine vertex j>0 has predecessors
    (spine[j-1], aux[j+1]).  The level's sinks are the spine ends; the graph's
    targets are the level-r sinks.
    """
    spec = FamilySpec.carlson_savage(c, r)  # refuses c < 2 and r < 0
    # c base vertices, then per level k a pyramid of (k+1)(k+2)/2 vertices
    # and c spines of 2c - 1 vertices.
    _check_size(spec, c + (r + 1) * (r + 2) * (r + 3) // 6 - 1 + r * c * (2 * c - 1))
    edges: list[tuple[int, int]] = []
    base = list(range(c))
    nxt = c
    prev_sinks = list(base)
    levels: list[CsLevel] = []
    for k in range(1, r + 1):
        rows, pyr_edges, nxt = _pyramid_rows(k, nxt)
        edges.extend(pyr_edges)
        apex = rows[-1][0]
        aux: list[int] = []
        for z in prev_sinks:
            aux.extend((apex, z))
        spines: list[tuple[int, ...]] = []
        for _ in range(c):
            spine = list(range(nxt, nxt + 2 * c - 1))
            nxt += 2 * c - 1
            edges.append((aux[0], spine[0]))
            edges.append((aux[1], spine[0]))
            for j in range(1, 2 * c - 1):
                edges.append((spine[j - 1], spine[j]))
                edges.append((aux[j + 1], spine[j]))
            spines.append(tuple(spine))
        sinks = tuple(s[-1] for s in spines)
        levels.append(
            CsLevel(
                apex=apex,
                prev_sinks=tuple(prev_sinks),
                aux_seq=tuple(aux),
                spines=tuple(spines),
                sinks=sinks,
            )
        )
        prev_sinks = list(sinks)
    dag = Dag(nxt, edges, targets=prev_sinks)
    return dag, CsLayout(c=c, r=r, base=tuple(base), levels=tuple(levels))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
#   c <comment>
#   p dag <nvertices>
#   e <src> <dst>
#   t <vertex>
#
# ASCII, LF line endings.  The writer emits the p line, then edges sorted,
# then targets sorted, and no comments, so output is byte-stable.


def write_graph(g: Dag) -> str:
    lines = [f"p dag {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    lines.extend(f"t {t}" for t in g.targets)
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Dag:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    targets: list[int] = []
    for lineno, line, parts in _lines(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate p line", lineno)
            if len(parts) != 3 or parts[1] != "dag":
                raise ParseError(f"bad header {line.strip()!r}", lineno)
            n = _int(parts[2], lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("e line before p line", lineno)
            if len(parts) != 3:
                raise ParseError(f"bad edge line {line.strip()!r}", lineno)
            u, v = _int(parts[1], lineno), _int(parts[2], lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex out of range in {line.strip()!r}", lineno)
            if u >= v:
                raise ParseError(f"non-topological edge ({u}, {v})", lineno)
            edges.append((u, v))
        elif parts[0] == "t":
            if n is None:
                raise ParseError("t line before p line", lineno)
            if len(parts) != 2:
                raise ParseError(f"bad target line {line.strip()!r}", lineno)
            t = _int(parts[1], lineno)
            if not (0 <= t < n):
                raise ParseError(f"vertex out of range in {line.strip()!r}", lineno)
            targets.append(t)
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", lineno)
    if n is None or n < 1:
        raise ParseError("no vertices")
    g = Dag(n, edges, targets=targets or None)
    problems = validate_dag(g)
    if problems:
        raise ParseError("invalid graph: " + "; ".join(problems))
    return g


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected integer, got {tok!r}", lineno) from None
