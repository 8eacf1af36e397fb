"""Exhaustive minimum-space and time-space-frontier oracles.

States are bitmask integers.  For the black game the search walks
"placement steps": a transition places one pebble and optionally evicts one
first.  Removals are free and can always be deferred, so this collapsed
model reaches the same (space, placements) optima as the move-level game
while visiting far fewer states.  It is also confined to the vertices that
some unvisited target still needs (``_black_steps``).  The black-white
game's placements cost 1 and its removals 0, and a white pebble is placed
only in the step that first uses it, with the other missing predecessors
of the vertex it serves (``_bw_steps``).  Both games run on one best-first
loop, ``_search`` (A*), guided by the ancestor-closure bound of
``_closure``.  Price and frontier walk the space budgets in one sweep,
``_sweep``, up from a lower bound on the game's price worked out from the
graph alone, ``_price_floor`` (black) or ``_bw_price_floor`` (BW); the
blob search starts at 1.

These oracles are meant for desk-size instances.  A call stops with
SizeBoundExceeded once the states it has stored, over all its space budgets
or cost caps, would take more than ``MAX_STORED_BYTES``, rather than run
until memory runs out.
"""

from __future__ import annotations

from functools import cache, partial
from heapq import heappop, heappush
from time import perf_counter
from typing import NamedTuple

from .blob import _charge, _merge, _shape_problem
from .dag import Dag
from .errors import SizeBoundExceeded
from .pebbling import Move

__all__ = [
    "SearchStats",
    "BudgetStats",
    "optimal_price",
    "tradeoff_frontier",
    "optimal_blob_price",
    "MAX_STORED_BYTES",
]

# What the states stored by one call may take.  A stored pebble-game state
# took 105-150 B of RSS at n <= 55, and tracemalloc put it at 182 B at
# n = 231 and 595 B at n = 2,000, so a state is reckoned at 128 B plus its
# width (2n bits black, 3n BW).  A blob configuration took about 900 B of
# RSS at cap 4 of pyramid(3) and is reckoned at 1 KiB.  This admits every
# search in the tests, examples and benchmark, the largest being the
# carlson_savage(2,3) black price (579,096 states of a 979,691 limit).
MAX_STORED_BYTES = 128 << 20


def _refused(stats, what: str, stored: int, limit: int) -> SizeBoundExceeded:
    """The error of a call past its limit; ``stats.stop`` reads ``states``."""
    stats.stop = "states"
    return SizeBoundExceeded(f"{what} stored {stored} states, above the limit {limit}")


# ---------------------------------------------------------------------------
# Work counters
# ---------------------------------------------------------------------------


class BudgetStats(NamedTuple):
    """The work of one search at one space budget.

    ``generated`` counts the distinct states reached.  The distance table
    holds each of them once and never shrinks, so it is also the table's
    peak size.  ``expanded`` counts the states whose successors were
    generated.  The blob search stores every configuration it reaches but
    the goal, and stops there.
    """

    space: int
    generated: int
    expanded: int
    seconds: float


class SearchStats:
    """Work counters of ``optimal_price``, ``tradeoff_frontier`` and
    ``optimal_blob_price``.

    Filled only when passed as ``stats=``.  ``budgets`` gets one record per
    space budget (for blob prices, cost cap) searched, in order.  The
    pebble-game searches start at a lower bound on the price,
    ``_price_floor`` in the black game and ``_bw_price_floor`` in the BW
    game; a budget below it is not searched and has no record.  The blob
    search starts at 1.  ``generated``, ``expanded`` and ``seconds`` are
    their totals and ``table`` is the peak table size, the largest
    ``generated`` of one budget.  ``stop`` is why the last call stopped:
    ``goal`` (the price was found), ``floor`` (a budget reached the time
    floor), ``cap`` (the space cap) or ``states`` (the call stored more
    states than ``MAX_STORED_BYTES`` allows, and raised SizeBoundExceeded;
    its last record is the budget it stopped in).
    """

    def __init__(self) -> None:
        self.budgets: list[BudgetStats] = []
        self.stop: str | None = None
        self.generated = self.expanded = self.table = 0
        self.seconds = 0.0

    def report(self) -> dict:
        """The record as a JSON-ready dict: ``budgets``, each with its four
        fields, then ``generated``, ``expanded``, ``table``, ``seconds``
        and ``stop``."""
        return {
            "budgets": [b._asdict() for b in self.budgets],
            "generated": self.generated,
            "expanded": self.expanded,
            "table": self.table,
            "seconds": self.seconds,
            "stop": self.stop,
        }

    def _add(self, b: BudgetStats) -> None:
        self.budgets.append(b)
        self.generated += b.generated
        self.expanded += b.expanded
        self.table = max(self.table, b.generated)
        self.seconds += b.seconds


# ---------------------------------------------------------------------------
# Pebble games: one best-first core, one successor function per game
# ---------------------------------------------------------------------------


def _closure(pred_mask, x: int, new: int, occupied: int) -> int:
    """``x`` (closed already) plus ``new`` and its ancestors reached through
    unoccupied vertices: a worklist, run until nothing is added."""
    while new:
        x |= new
        reach = 0
        while new:
            low = new & -new
            reach |= pred_mask[low.bit_length() - 1]
            new ^= low
        new = reach & ~(occupied | x)
    return x


def _black_steps(g: Dag, s: int, dist: dict):
    """Successors of a black state ``board | visited << n``, all of cost 1.

    A step places a ready vertex v, first evicting some u outside preds(v)
    when all s pebbles are down.  The placement takes just v out of the
    closure; an eviction of u adds closure(u) when u feeds the closure.
    Only steps that improve on ``dist`` are returned, so a closure is
    computed only for an eviction that leads somewhere new.

    The game is confined to N(T), the vertices some unvisited target
    depends on: the ancestor closure of the targets outside the visited
    set T, worked out once per T.  Two rules cut the states stored; both
    keep every least time.

    1. Only vertices in N(T) are placed, and when a placement visits a
       target, every pebble outside the new N(T) comes off the new state.
       N(T) is closed under predecessors and only shrinks as T grows, so
       a vertex outside it never again feeds a placement the goal needs.
       A pebbling from board B can drop its moves outside N(T): it stays
       legal, no wider and no longer.  A pebbling from B ∩ N(T) also works
       from B, evicting an extra pebble when the board is full.  So both
       boards have the same least remaining time.  X, what must still be
       placed, lies in N(T), so the drop leaves X and the bound unchanged.
    2. With room on the board, a ready unvisited target that is an
       ancestor of no other unvisited target is placed as the state's only
       successor (the lowest, if several are), and dropped at once by
       rule 1.  It must be placed some time.  Once it is visited its
       pebble feeds nothing in N(T), so a pebbling that places it later
       can place it now instead, drop it, and skip its later placements:
       it stays legal and is no wider or longer.

    On a full board, a step that visits a target evicts a pebble in the
    new N(T), or the lowest pebble outside it that is no predecessor of
    the target.  Rule 1 drops every pebble outside the new N(T) with the
    placement, so evicting any other one of them first gives the same
    state; and it gives the same X, as such a pebble feeds nothing in X
    but the target.  Each successor list then holds a state once.

    The work per state grows with the board, not with the graph.  A ready
    vertex, one off the board with all its predecessors on it, is a source
    or a successor of a pebbled vertex, so the candidates are the sources
    and the successors of the board's vertices, in N(T) and off the board;
    those with a predecessor off the board are dropped.  The evictable
    pebbles are the board's.  Both are visited in ascending order, the
    order of a scan of every vertex, so the successors come in the same
    order.
    """
    n, pm = g.n, g.pred_mask
    full = (1 << n) - 1
    sources = sum(1 << v for v in g.sources)
    marks = [1 << v | (1 << v & g.target_mask) << n for v in range(n)]
    feeds = {0: 0} | {1 << u: g.succ_mask[u] for u in range(n)}

    @cache
    def keep(seen: int) -> tuple[int, int]:
        """For visited bits ``seen``: N(T) with ``seen``, the bits a state
        keeps, and the unvisited targets."""
        fresh = g.target_mask & ~(seen >> n)
        return _closure(pm, 0, fresh, 0) | seen, fresh

    def steps(state: int, x: int, d: int):
        d += 1
        unseen = d + 1  # dist of a state not reached yet: any value above d
        board = state & full
        seen = state ^ board
        need, fresh = keep(seen)
        pebbles = []
        reach = sources
        rest = board
        while rest:
            low = rest & -rest
            pebbles.append(low)
            reach |= feeds[low]
            rest ^= low
        room = len(pebbles) < s
        off = ~board
        rest = reach & need & off
        ready = []
        drops = {}  # ready unvisited target -> the bits kept once it is placed
        stay = {}  # ready unvisited target -> the pebbles its step does not evict
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if not pm[v] & off:
                if low & fresh:
                    mask = drops[v] = keep(seen | low << n)[0]
                    if room and not mask & low:  # rule 2
                        nstate = (state | marks[v]) & mask
                        return [(d, nstate, x & ~low)] if dist.get(nstate, unseen) > d else []
                    outside = board & ~(mask | pm[v])
                    stay[v] = pm[v] | outside & (outside - 1)
                ready.append(v)
            rest ^= low
        # With room left a step evicts nothing (bit 0), else one pebble.
        # Only a ready target's placement drops pebbles, so without one the
        # states need no mask.
        out = []
        for ubit in [0] if room else pebbles:
            base = state ^ ubit
            if drops:
                new = [
                    (v, t)
                    for v in ready
                    if not stay.get(v, pm[v]) & ubit
                    and dist.get(t := (base | marks[v]) & drops.get(v, -1), unseen) > d
                ]
            else:
                new = [
                    (v, base | marks[v])
                    for v in ready
                    if not pm[v] & ubit and dist.get(base | marks[v], unseen) > d
                ]
            if new:
                xu = _closure(pm, x, ubit, board ^ ubit) if feeds[ubit] & x else x
                out += [(d, t, xu & ~(1 << v)) for v, t in new]
        return out

    return steps


def _bw_steps(g: Dag, s: int, dist: dict):
    """Successors of a BW state ``black | white << n | visited << 2n``.

    Placements cost 1 and removals 0.  A white pebble is placed only in the
    step that first uses it, a black placement of a successor v or a white
    removal of v.  The step places v's missing predecessors in ascending
    id, each black when all its own predecessors are then on the board,
    else white (ids are topological, so the ones placed after it feed none
    of them), then places v black or removes it.  It costs 1 per pebble
    placed and needs room for all of them.  A black placement with no
    predecessor missing, and a black removal, are steps of their own.

    This keeps every least time.  Take any pebbling and move each white
    placement to just before the first move that needs the pebble on the
    board: no move in between reads it, the board holds one pebble less,
    and the placements are as many.  A white pebble whose first use is its
    own removal has its predecessors on the board then, so it is placed
    and removed black.  The others come in runs, each just before the move
    that uses them, and a run is that move's missing predecessors, in any
    order.  A white placement with all its predecessors on may be black:
    both are legal and mark the same visited bits, a black removal is
    always legal, and every other move sees only that the vertex is
    occupied.

    A placed vertex leaves X, the closure, and a white one adds the closure
    of its unoccupied predecessors, which must be on the board when it is
    removed.  A removal of v adds closure(v) when v feeds X or a white
    pebble.  Only the steps that improve on ``dist`` are returned.

    On a full board only removals are legal, as a placement needs a free
    pebble, so then only the occupied vertices are visited, in ascending
    order, the order of a scan of every vertex; the successors come in the
    same order.
    """
    n, pm, sm = g.n, g.pred_mask, g.succ_mask
    full = (1 << n) - 1
    targets = g.target_mask

    def steps(state: int, x: int, d: int):
        black = state & full
        white = state >> n & full
        occupied = black | white
        free = s - occupied.bit_count()
        if free:
            vs = range(n)
        else:
            vs = []
            rest = occupied
            while rest:
                low = rest & -rest
                vs.append(low.bit_length() - 1)
                rest ^= low
        out = []
        for v in vs:
            vbit = 1 << v
            # v's missing predecessors unless v is black, and v when free.
            placed = 0 if black & vbit else (pm[v] | vbit) & ~occupied
            nd = d + placed.bit_count()
            if nd - d > free:
                continue
            on = occupied | placed
            nstate = state | (placed & targets) << 2 * n
            gaps = 0  # the unoccupied predecessors of the new white pebbles
            rest = placed & ~vbit
            while rest:
                low = rest & -rest
                gap = pm[low.bit_length() - 1] & ~on
                nstate |= low << n if gap else low
                gaps |= gap
                rest ^= low
            nstate ^= vbit << n if white & vbit else vbit  # v on black, or v off
            if dist.get(nstate, nd + 1) > nd:
                nx = x & ~placed
                if gaps:
                    nx = _closure(pm, nx, gaps, on)
                if occupied & vbit and sm[v] & (x | white):
                    nx = _closure(pm, nx, vbit, on ^ vbit)
                out.append((nd, nstate, nx))
        return out

    return steps


def _price_floor(g: Dag) -> int:
    """B, a lower bound on the black price from the graph alone.

    L(v) is a number of pebbles that v's region, v with its ancestors,
    holds at some moment, no later than v's first placement, of every
    black pebbling that starts with the region empty and places v.  A
    source has L = 1.  A vertex v with predecessors u_1..u_k has
    L(v) = max(k + 1, L(u_i) for each i), and when the regions of the u_i
    are pairwise disjoint also max_i (L(u_i) + i - 1), the L(u_i) sorted
    largest first.  B is the largest L of a target.

    Sound, by induction over v:

    - placing v needs all its predecessors and v on the board, k + 1
      pebbles in v's region;
    - a region is closed under predecessors, so the moves inside u_i's
      region pebble u_i from empty before v is placed: L(u_i);
    - with disjoint regions, let τ_i be the last moment before v's first
      placement at which region i is empty.  From τ_i on, region i is
      never empty, and the moves inside it pebble u_i from empty, so some
      later moment, before v's placement, has at least L(u_i) pebbles in
      it;
    - at that moment, every region emptied earlier still holds a pebble,
      and the regions are disjoint.  One move changes one region, so the
      τ_i are distinct, and the region with the p-th earliest τ_i has
      L(u_i) + p - 1 pebbles in v's region at its moment;
    - the pebbling's best order puts the largest L first (swapping a
      smaller L ahead of a larger one never raises the maximum), which
      gives max_i (L(u_i) + i - 1).

    A pebbling of the graph starts empty and places every target, so it
    holds at least B pebbles at some moment: no budget below B has one.
    A white pebble is placed without its predecessors, so the argument
    does not cover the BW game; ``_bw_price_floor`` does.

    L is worked out in id order, which is topological, so each vertex
    comes after its predecessors; u's region is u with ``Dag.below[u]``.
    """
    least = [0] * g.n
    below = g.below
    for v in range(g.n):
        union = size = 0
        for u in g.preds[v]:
            union |= below[u] | 1 << u
            size += below[u].bit_count() + 1
        ls = sorted((least[u] for u in g.preds[v]), reverse=True)
        # With overlapping regions each L(u_i) counts alone (i * 0).
        disjoint = union.bit_count() == size
        least[v] = max([len(ls) + 1] + [low + i * disjoint for i, low in enumerate(ls)])
    return max(least[t] for t in g.targets)


def _bw_price_floor(g: Dag) -> int:
    """A lower bound on the BW price: 1 plus the largest in-degree among the
    targets and their ancestors, or 1 if that set has no edges.

    Sound: every vertex of that set is pebbled in a complete pebbling.  A
    target is; and a pebbled vertex needs its predecessors on the board at
    its black placement or at the removal of its white pebble, so they are
    pebbled too.  Each pebbled vertex v is placed black or removed white,
    as no white pebble is left at the end, and at that move v and all its
    predecessors are on the board.
    """
    need = _closure(g.pred_mask, 0, g.target_mask, 0)
    return 1 + max(len(g.preds[v]) for v in range(g.n) if need >> v & 1)


def _search(g: Dag, game: str, s: int, parents, stats: SearchStats, stored: int):
    """(min placements, goal state) of a complete pebbling with space cap s.

    Both are None when no pebbling fits.  A* with h(state) = |X|, X kept
    with each state by the successor functions: the closure from the
    unvisited targets through unoccupied vertices, in the BW game also from
    the unoccupied predecessors of every white pebble.  h(start) is the
    time floor.  The goal is X empty with no white pebble; the black
    pebbles left come off for free.  ``parents``, when a dict, is filled
    with state -> previous state.  The work is added to ``stats``.  Raises
    SizeBoundExceeded when ``stored``, the states stored at the call's
    earlier budgets, plus those stored here pass the limit.

    Sound: every vertex in X must be placed again.  An unvisited target
    must be; a placement of v, black at once or white by its removal,
    needs preds(v) on the board, so an unoccupied one must be placed too.
    Consistent: a step of cost k takes at most k vertices out of X, the
    ones it places, and a removal only grows it, so f = g + h never falls
    along a step.  So the queue, buckets indexed by f and popped LIFO, pops
    each state at its least distance, the first goal popped is optimal,
    and the 0-cost removals need no special order.  A bucket is a dict, state -> X; a state whose
    distance improves moves to its new bucket, so each state is queued
    once and every state popped but the goal is expanded.
    """
    dist = {0: 0}
    steps = (_black_steps if game == "black" else _bw_steps)(g, s, dist)
    whites = 0 if game == "black" else ((1 << g.n) - 1) << g.n
    x = _closure(g.pred_mask, 0, g.target_mask, 0)
    f = x.bit_count()
    buckets = [{} for _ in range(f)] + [{0: x}]
    goal = None
    limit = MAX_STORED_BYTES // (128 + (2 if game == "black" else 3) * g.n // 8)
    room = limit - stored
    t0 = perf_counter()
    try:
        while f < len(buckets):
            bucket = buckets[f]
            while bucket:
                if len(dist) > room:
                    what = f"{game} search at space budget {s}"
                    raise _refused(stats, what, stored + len(dist), limit)
                state, x = bucket.popitem()
                d = f - x.bit_count()
                if not x and not state & whites:
                    goal = state
                    return d, goal
                for nd, nstate, nx in steps(state, x, d):
                    old = dist.get(nstate)
                    dist[nstate] = nd
                    if parents is not None:
                        parents[nstate] = state
                    h = nx.bit_count()
                    if old is not None:
                        del buckets[old + h][nstate]
                    if nd + h >= len(buckets):
                        buckets += [{} for _ in range(nd + h + 1 - len(buckets))]
                    buckets[nd + h][nstate] = nx
            f += 1
        return None, None
    finally:
        queued = sum(map(len, buckets)) + (goal is not None)
        stats._add(BudgetStats(s, len(dist), len(dist) - queued, perf_counter() - t0))


def _witness(g: Dag, game: str, parents: dict, goal: int) -> list[Move]:
    """The moves along the parent links to ``goal``, then its free removals.

    A BW step is its placements in ascending id, each in the colour the
    next state shows, then its removal.  A black step is one placement of a
    vertex v with its removals: an eviction, and the pebbles that no
    unvisited target needs once v is placed, v itself among them when it
    is a target that is dropped at once.  Such a v is not on the next
    board, so it is read from the visited bits.  The removals of v and of
    its predecessors come after the placement, which needs them; the
    others come before it, so the board never holds more than the budget.
    """
    n = g.n
    full = (1 << n) - 1
    at = n if game == "black" else 2 * n  # where the visited bits start

    def colours(state):
        return state & full, (state >> n & full if game == "bw" else 0)

    steps = []
    state = goal
    while state:
        prev = parents[state]
        (pb, pw), (nb, nw) = colours(prev), colours(state)
        placed = (nb | nw) & ~(pb | pw) or (state ^ prev) >> at
        after = full if game == "bw" else placed | g.pred_mask[placed.bit_length() - 1]
        kinds = (("RB", (pb | placed) & ~(nb | nw)), ("RW", pw & ~nw))
        removals = [Move(kind, u) for kind, bits in kinds for u in range(n) if bits >> u & 1]
        step = [m for m in removals if not after >> m.v & 1]
        step += [Move("PW" if nw >> u & 1 else "PB", u) for u in range(n) if placed >> u & 1]
        steps.append(step + [m for m in removals if after >> m.v & 1])
        state = prev
    moves = [m for step in reversed(steps) for m in step]
    board = goal & full
    return moves + [Move("RB", v) for v in range(n) if board >> v & 1]


def _sweep(g: Dag, game: str, last: int, stats: SearchStats, parents: dict | None = None):
    """(s, least time, goal state) for each space budget s from the game's
    price floor, below which no budget has a pebbling, to ``last``; time and
    goal are None where s has none.  ``parents``, when a dict, is emptied
    before each budget and filled with its parent links.  Each budget's
    work goes to ``stats``, and its limit counts the states stored at the
    earlier budgets.  An unknown game is refused before any search.
    """
    if game not in ("black", "bw"):
        raise ValueError(f"unknown game {game!r}; expected 'black' or 'bw'")
    start = stats.generated
    for s in range((_price_floor if game == "black" else _bw_price_floor)(g), last + 1):
        if parents is not None:
            parents.clear()
        yield s, *_search(g, game, s, parents, stats, stats.generated - start)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def optimal_price(
    g: Dag,
    game: str = "black",
    with_trace: bool = False,
    *,
    stats: SearchStats | None = None,
):
    """Exact pebbling price: least space admitting a complete pebbling.

    With ``with_trace`` also returns a witness move list (deterministic for
    a given graph), read off the parent links of the winning search.
    Raises SizeBoundExceeded once the budgets searched have stored more
    states than ``MAX_STORED_BYTES`` allows.  ``stats`` is filled with the
    work of each budget searched, from the game's price floor up (``_sweep``).
    Budget n has a pebbling, as every ``Dag`` has a vertex.
    """
    stats = SearchStats() if stats is None else stats
    parents = {} if with_trace else None
    for s, t, goal in _sweep(g, game, g.n, stats, parents):
        if t is not None:
            stats.stop = "goal"
            return (s, _witness(g, game, parents, goal)) if with_trace else s
    raise AssertionError("budget n has a pebbling")  # pragma: no cover - every Dag has a vertex


def tradeoff_frontier(
    g: Dag,
    game: str = "black",
    space_cap: int = 0,
    *,
    above_price: int | None = None,
    stats: SearchStats | None = None,
) -> tuple[tuple[int, int], ...]:
    """Minimum placements for every space budget from the price to the cap.

    The cap is ``space_cap``, or price + ``above_price`` when that is given
    (passing both is an error).  Returns the Pareto frontier as
    (space, min_time) pairs, space increasing and time decreasing; a cap
    below the price yields none.  ``stats`` is filled with the work of each
    budget searched and the reason the sweep stopped.  Raises
    SizeBoundExceeded once the budgets searched have stored more states
    than ``MAX_STORED_BYTES`` allows.

    The sweep stops at the first budget whose time equals the time floor F,
    the search's bound at the start: |ancestors(targets)|.  This is exact.
    Every budget has min time >= F, min time never rises as the budget
    grows, so every budget above the stop also has time F.  Budget n holds
    every vertex at once, so its time is F and the sweep searches at most n
    budgets; a sweep that ends without reaching F ended at the cap.  It
    starts at the game's price floor (``_sweep``).
    """
    if above_price is not None and space_cap:
        raise ValueError("give space_cap or above_price, not both")
    if above_price is not None and above_price < 0:
        raise ValueError("above_price must be >= 0")
    stats = SearchStats() if stats is None else stats
    floor = _closure(g.pred_mask, 0, g.target_mask, 0).bit_count()
    cap = space_cap if above_price is None else g.n + above_price
    points: list[tuple[int, int]] = []
    for s, t, _ in _sweep(g, game, min(cap, g.n), stats):
        if t is None:
            continue
        if above_price is not None and not points:
            cap = s + above_price
        if not points or t < points[-1][1]:
            points.append((s, t))
        if t == floor or s == cap:
            stats.stop = "floor" if t == floor else "cap"
            break
    else:
        stats.stop = "cap"
    return tuple(points)


# ---------------------------------------------------------------------------
# Blob game price
# ---------------------------------------------------------------------------


def optimal_blob_price(
    g: Dag,
    strict: bool = False,
    *,
    stats: SearchStats | None = None,
) -> int:
    """Exact blob pebbling price (max chargeable cost, minimized).

    Iterative deepening on the cost cap; within a cap, best-first search
    over configurations (sets of subconfigurations) under all four move
    types, nearest the target blobs first (``_blob_reachable``).  The first
    cap with a reachable goal is the price.  The caps below it are searched
    to exhaustion, and their state spaces are enormous, so this raises
    SizeBoundExceeded once the caps searched have stored more
    configurations than ``MAX_STORED_BYTES`` allows.  ``stats`` is filled
    with the work of each cap searched, its ``space`` being the cap.
    """
    stats = SearchStats() if stats is None else stats
    start = stats.generated
    for cap in range(1, g.n + 1):
        if _blob_reachable(g, cap, strict, stats, stats.generated - start):
            stats.stop = "goal"
            return cap
    raise AssertionError("cap n has a play")  # pragma: no cover - every Dag has a vertex


def _with_sub(cfg: frozenset, new: tuple[int, int]) -> frozenset:
    """The canonical configuration of ``cfg`` plus ``new``.

    A configuration is kept an antichain: no subconfiguration in it is
    dominated by another, where (b, w) dominates (b2, w2) when b <= b2 and
    w <= w2 as vertex sets, so (b2, w2) is a componentwise weakening.
    Keeping a weakening of a live subconfiguration never helps: any move
    using the weaker one works at least as well from the stronger one, and
    erasing it can only shrink the chargeable union.  Searching over these
    canonical configurations is therefore exact.  ``cfg`` is an antichain,
    so ``new`` is either dominated by a live subconfiguration (nothing
    changes) or it is added and the ones it dominates are dropped.
    """
    nb, nw = new
    kept = [new]
    for b, w in cfg:
        if not (b & ~nb or w & ~nw):
            return cfg
        if nb & ~b or nw & ~w:
            kept.append((b, w))
    return frozenset(kept)


def _blob_reachable(g: Dag, cap: int, strict: bool, stats: SearchStats, stored: int) -> bool:
    """Best-first search over canonical configurations with peak chargeable
    cost <= cap.

    Returns whether a configuration holding [t]<> for every target is
    reachable, and adds the configurations stored and expanded to
    ``stats``.  Raises SizeBoundExceeded when ``stored``, the
    configurations the call stored at its lower caps, plus those stored
    here pass the call's limit.

    A subconfiguration is a (blob_mask, white_mask) pair; its bottom vertex
    is the lowest set bit of the blob, because ids are topological.  Moves:
    introduce, merge on a genuine pivot, erase, and "fatten" - an inflation
    that only adds blob vertices below the current bottom, fused with
    erasing its source.  General inflations are redundant: adding whites or
    blob vertices at/above the bottom only grows the chargeable set and
    yields a subconfiguration dominated by its source, and a merge pivoting
    on an inflation-added vertex produces a weakening of the source, so
    only the bottom-lowering inflations can ever pay off.  A strict blob is
    a chain, and a vertex below the bottom is comparable with the bottom
    only if it reaches it, so strict fattening adds only the bottom's
    ancestors: ``strict_ok`` refuses every other inflation anyway, so the
    successors are the same.  The cost check
    uses the transient configuration (new subconfiguration next to its
    operands/source) to mirror per-move accounting in the validator, and
    the validator's own rules, ``blob._merge`` to merge and
    ``blob._charge`` on ``Dag.below`` to charge each subconfiguration.

    The queue pops first the configuration nearest the goal: per target,
    the fewest literals (|B| - 1 + |W|) left in a subconfiguration whose
    blob holds it, n when none does, summed; ties go to the fewest literals
    in all, then to the earliest generated, so the counts are
    deterministic.  The order is sound because only reachability within
    the cap is asked, not a shortest play.  Every configuration is queued
    once and expanded once whatever the order, so the search either
    generates the goal or expands every configuration reachable within the
    cap; the order decides only which reachable configurations are met
    first, never whether the goal is among them.  The goal is tested when
    a configuration is generated, not when it is popped; every generated
    configuration is reachable within the cap, so the verdict is the same.
    """
    n, below = g.n, g.below
    charge = partial(_charge, below)

    @cache
    def strict_ok(s: tuple[int, int]) -> bool:
        return _shape_problem(g, *s) is None

    def successors(cfg: frozenset):
        charged = 0
        for blob, whites in cfg:
            charged |= charge(blob, whites)
        for s in intros:
            if s not in cfg and (charged | charge(*s)).bit_count() <= cap:
                yield _with_sub(cfg, s)
        for s1 in cfg:
            for s2 in cfg:
                pivots = s1[0] & s2[1]
                while pivots:
                    p = pivots & -pivots
                    pivots ^= p
                    m = _merge(s1, s2, p)
                    if m[0] & m[1] or (strict and not strict_ok(m)):
                        continue
                    if m not in cfg and (charged | charge(*m)).bit_count() <= cap:
                        yield _with_sub(cfg, m)
        for s in cfg:
            blob, whites = s
            rest = cfg - {s}
            low = blob & -blob
            room = (low - 1) & ~whites
            if strict:
                room &= below[low.bit_length() - 1]
            extra = room
            while extra:
                fat = (blob | extra, whites)
                extra = (extra - 1) & room
                if strict and not strict_ok(fat):
                    continue
                if (charged | charge(*fat)).bit_count() <= cap:
                    yield _with_sub(rest, fat)
            yield rest

    intros = [(1 << v, g.pred_mask[v]) for v in range(n)]
    targets = [1 << t for t in g.targets]

    def key(cfg: frozenset) -> tuple[int, int]:
        left = sum(
            min((b.bit_count() - 1 + w.bit_count() for b, w in cfg if b & t), default=n)
            for t in targets
        )
        return left, sum(b.bit_count() + w.bit_count() for b, w in cfg)

    goal = frozenset((t, 0) for t in targets)
    start: frozenset[tuple[int, int]] = frozenset()
    seen = {start}
    queue = [(key(start), 0, start)]
    found = False
    limit = MAX_STORED_BYTES // 1024
    room = limit - stored
    t0 = perf_counter()
    try:
        while queue and not found:
            if len(seen) > room:
                raise _refused(stats, f"blob search at cost cap {cap}", stored + len(seen), limit)
            for nxt in successors(heappop(queue)[2]):
                if nxt not in seen:
                    if goal <= nxt:
                        found = True
                        break
                    seen.add(nxt)
                    heappush(queue, (key(nxt), len(seen), nxt))
        return found
    finally:
        stats._add(BudgetStats(cap, len(seen), len(seen) - len(queue), perf_counter() - t0))
