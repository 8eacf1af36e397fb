"""Hiding sets, level-weighted measures, potential, and the bounded-hider
property used in space lower bounds.

A set U hides v (in the default "below" direction) when every path from a
source to v passes through U; the hull of U is everything it hides.  The
measure of U on a layered graph takes, over all levels j, the largest value
of j plus the number of U-vertices at level >= j (zero when U is empty
above j).  The potential of a pebble configuration is the smallest measure
of any set hiding all of it.

The bounded-hider check asks: does every nonempty, tight, hiding-connected
vertex set U admit a replacement hider U* of at most ``bound`` vertices
with hull covering U and measure no larger?  Graphs where this holds with a
small bound cannot dodge the potential argument.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import NamedTuple

from .dag import Dag
from .errors import GraphError, SizeBoundExceeded

__all__ = [
    "LayeredView",
    "MeasureValue",
    "LhcResult",
    "LhcWitness",
    "hidden_vertices",
    "klawe_measure",
    "potential",
    "check_lhc",
    "min_lhc_bound",
    "POTENTIAL_BOUND",
    "LHC_BOUND",
]

POTENTIAL_BOUND = 14
LHC_BOUND = 12


class _LayeredFields(NamedTuple):
    g: Dag
    levels: tuple[int, ...]


class LayeredView(_LayeredFields):
    """A DAG with a level per vertex, strictly increasing along edges."""

    __slots__ = ()

    def __new__(cls, g: Dag, levels: tuple[int, ...]):
        if len(levels) != g.n:
            raise GraphError("level map size mismatch")
        for u, v in g.edges:
            if levels[u] >= levels[v]:
                raise GraphError(f"graph not layered: edge ({u}, {v})")
        return tuple.__new__(cls, (g, levels))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks its fields too
        return cls(*iterable)

    @classmethod
    def from_dag(cls, g: Dag) -> "LayeredView":
        """Longest-path levels: sources sit at 0, edges always climb."""
        levels = [0] * g.n
        for v in range(g.n):
            for p in g.preds[v]:
                levels[v] = max(levels[v], levels[p] + 1)
        return cls(g, tuple(levels))

    @property
    def max_level(self) -> int:
        return max(self.levels) if self.levels else 0


def _mask(g: Dag, vertices) -> int:
    """Bitmask of a vertex set; GraphError for a vertex outside the graph."""
    mask = 0
    for v in frozenset(vertices):
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def _hull(g: Dag, mask: int, direction: str) -> int:
    """Bitmask of the vertices the set ``mask`` hides (see hidden_vertices)."""
    if direction == "below":
        order, nbrs = range(g.n), g.pred_mask
    elif direction == "above":
        order, nbrs = range(g.n - 1, -1, -1), g.succ_mask
    else:
        raise GraphError(f"unknown direction {direction!r}")
    hidden = 0
    for v in order:
        if mask >> v & 1 or (nbrs[v] and not nbrs[v] & ~hidden):
            hidden |= 1 << v
    return hidden


def hidden_vertices(g: Dag, U, direction: str = "below") -> frozenset[int]:
    """The hull of U: vertices v every source-to-v path meets U.

    With direction="above" paths run from v to the sinks instead.  Members
    of U hide themselves.
    """
    hull = _hull(g, _mask(g, U), direction)
    return frozenset(v for v in range(g.n) if hull >> v & 1)


class MeasureValue(NamedTuple):
    """Measure of a set, with the per-level partial values m^j."""

    value: int
    partials: tuple[int, ...]


def _level_masks(view: LayeredView) -> list[int]:
    """For each level j from 0 to the top, the vertices at level >= j."""
    return [
        sum(1 << v for v in range(view.g.n) if view.levels[v] >= j)
        for j in range(view.max_level + 1)
    ]


def _partials(level_masks: list[int], mask: int) -> list[int]:
    """m^j = j + |U at level >= j|, or 0 when U has nothing at level >= j."""
    partials = []
    for j, at_or_above in enumerate(level_masks):
        above = (mask & at_or_above).bit_count()
        partials.append(j + above if above else 0)
    return partials


def klawe_measure(view: LayeredView, U) -> MeasureValue:
    """max over levels j of (j + |vertices of U at level >= j|), empty -> 0."""
    partials = _partials(_level_masks(view), _mask(view.g, U))
    return MeasureValue(value=max(partials, default=0), partials=tuple(partials))


def potential(g: Dag, config, direction: str = "below") -> int:
    """Least measure of a set whose hull covers the whole configuration.

    ``config`` is the configuration as an iterable of its pebbled
    vertices, of either colour; GraphError for a vertex outside the graph.
    Scans the vertex subsets in ascending measure and stops at the first
    that hides them all, so refuses graphs above ``POTENTIAL_BOUND``
    vertices.
    """
    if g.n > POTENTIAL_BOUND:
        raise SizeBoundExceeded(f"{g.n} vertices exceeds potential bound {POTENTIAL_BOUND}")
    pebbled = _mask(g, config)
    if not pebbled:
        return 0
    hull, meas, by_measure = _hulls_and_measures(g, direction)
    # The set of all vertices hides everything, so a hiding set exists.
    return meas[next(m for m in by_measure if hull[m] & pebbled == pebbled)]


# ---------------------------------------------------------------------------
# Bounded-hider property
# ---------------------------------------------------------------------------


class LhcWitness(NamedTuple):
    """A tight, hiding-connected set with no small enough replacement hider."""

    vertices: tuple[int, ...]
    measure: int
    smallest_hider: int | None


class LhcResult(NamedTuple):
    holds: bool
    bound: int
    witness: LhcWitness | None


# Hulls and levels depend only on n and the edges, so graphs equal as Dags
# may share a table.  No graph above POTENTIAL_BOUND = 14 vertices gets one;
# there an entry holds 2^14 hull ints (each its own object), 2^14 measures
# (small cached ints) and the 2-byte measure order: about 0.78 MiB
# (tracemalloc), so 6.2 MiB for 8 entries.
@lru_cache(maxsize=8)
def _hulls_and_measures(g: Dag, direction: str) -> tuple[tuple[int, ...], tuple[int, ...], array]:
    """Hull and measure for every vertex subset, as bitmask tables, and the
    subsets in ascending measure, ties in ascending bitmask order.

    Built once per graph and direction, then shared: tuples, so no caller
    can change a table another one reads.  The order is an ``array('H')``,
    2 bytes a subset, as n <= 14 keeps each bitmask below 2^16; callers
    only read it.
    """
    level_masks = _level_masks(LayeredView.from_dag(g))
    subsets = range(1 << g.n)
    hull = tuple(_hull(g, mask, direction) for mask in subsets)
    meas = tuple(max(_partials(level_masks, mask), default=0) for mask in subsets)
    return hull, meas, array("H", sorted(subsets, key=meas.__getitem__))


@lru_cache(maxsize=None)
def _by_size(n: int) -> array:
    """The subsets of n vertices in ascending size, ties in ascending
    bitmask order.  Only check_lhc's sweep asks, so n <= LHC_BOUND."""
    return array("H", sorted(range(1 << n), key=int.bit_count))


def _connected(g: Dag, mask: int) -> bool:
    """Connectivity of the induced subgraph, edges taken undirected."""
    seen = frontier = mask & -mask
    while frontier:
        grow = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow |= g.pred_mask[v] | g.succ_mask[v]
        frontier = grow & mask & ~seen
        seen |= frontier
    return seen == mask


def _tight(mask: int, hull: tuple[int, ...]) -> bool:
    m = mask
    while m:
        bit = m & -m
        if hull[mask ^ bit] & bit:
            return False
        m ^= bit
    return True


def _in_scope_hiders(g: Dag, direction: str):
    """Yield (set, measure, smallest hider size) for each set in check_lhc's
    scope, in increasing bitmask order.  A set hides itself, so its
    smallest hider always exists.
    """
    if g.n > LHC_BOUND:
        raise SizeBoundExceeded(f"{g.n} vertices exceeds hider-check bound {LHC_BOUND}")
    hull, meas, _ = _hulls_and_measures(g, direction)
    by_size = _by_size(g.n)
    for mask in range(1, 1 << g.n):
        if not _tight(mask, hull) or not _connected(g, hull[mask]):
            continue
        smallest = next(
            c for c in by_size if hull[c] & mask == mask and meas[c] <= meas[mask]
        )
        yield mask, meas[mask], smallest.bit_count()


def check_lhc(g: Dag, bound: int, direction: str = "below") -> LhcResult:
    """Does every in-scope set admit a hider of at most ``bound`` vertices?

    In scope: nonempty, tight (no member hidden by the others), and
    hiding-connected (hull induces a connected subgraph).  A replacement
    hider U* must satisfy U within hull(U*) and measure(U*) <= measure(U).
    Returns the first violating set as a witness.
    """
    for mask, measure, needed in _in_scope_hiders(g, direction):
        if needed > bound:
            witness = LhcWitness(
                vertices=tuple(v for v in range(g.n) if mask >> v & 1),
                measure=measure,
                smallest_hider=needed,
            )
            return LhcResult(holds=False, bound=bound, witness=witness)
    return LhcResult(holds=True, bound=bound, witness=None)


def min_lhc_bound(g: Dag, direction: str = "below") -> int:
    """Smallest bound for which check_lhc holds (worst case over in-scope sets)."""
    return max((needed for _, _, needed in _in_scope_hiders(g, direction)), default=0)
