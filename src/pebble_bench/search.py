"""Exhaustive minimum-space and time-space-frontier oracles.

States are bitmask integers.  For the black game the search walks
"placement steps": a transition places one pebble and optionally evicts one
first.  Removals are free and can always be deferred, so this collapsed
model reaches the same (space, placements) optima as the move-level game
while visiting far fewer states.  The black-white game is searched at move
level (placements cost 1, removals 0).  Both games run on one best-first
loop, ``_search`` (A*), guided by the ancestor-closure bound of
``_closure``.

These oracles are meant for desk-size instances; they refuse graphs above a
size bound rather than run forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from heapq import heappop, heappush
from time import perf_counter
from typing import NamedTuple

from .blob import _charge, _shape_problem
from .dag import Dag
from .errors import SizeBoundExceeded
from .pebbling import Move

__all__ = [
    "ParetoFrontier",
    "SearchStats",
    "BudgetStats",
    "optimal_price",
    "tradeoff_frontier",
    "optimal_blob_price",
    "DEFAULT_BLACK_BOUND",
    "DEFAULT_BW_BOUND",
    "DEFAULT_BLOB_BOUND",
]

DEFAULT_BLACK_BOUND = 20
DEFAULT_BW_BOUND = 14
DEFAULT_BLOB_BOUND = 8


def _check_bound(g: Dag, game: str, bound: int | None) -> None:
    if game not in ("black", "bw"):
        raise ValueError(f"unknown game {game!r}; expected 'black' or 'bw'")
    if bound is None:
        bound = DEFAULT_BLACK_BOUND if game == "black" else DEFAULT_BW_BOUND
    if g.n > bound:
        raise SizeBoundExceeded(
            f"{g.n} vertices exceeds {game} search bound {bound}; pass a larger bound"
        )


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
    space budget (for blob prices, cost cap) searched, in order;
    ``generated``, ``expanded`` and ``seconds`` are their totals and
    ``table`` is the peak table size, the largest ``generated`` of one
    budget.  ``stop`` is why the last call stopped: ``goal`` (the price
    was found), ``floor`` (a budget reached the time floor), ``cap`` (the
    space cap) or ``n`` (the vertex count).
    """

    def __init__(self) -> None:
        self.budgets: list[BudgetStats] = []
        self.stop: str | None = None
        self.generated = self.expanded = self.table = 0
        self.seconds = 0.0

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
    """
    n, pm = g.n, g.pred_mask
    full = (1 << n) - 1
    marks = [1 << v | (1 << v & g.target_mask) << n for v in range(n)]
    feeds = {0: 0} | {1 << u: g.succ_mask[u] for u in range(n)}

    def steps(state: int, x: int, d: int):
        d += 1
        board = state & full
        ready = [v for v in range(n) if not (board >> v & 1 or pm[v] & ~board)]
        # With room left a step evicts nothing (bit 0), else one pebble.
        evictions = [0] if board.bit_count() < s else [1 << u for u in range(n) if board >> u & 1]
        out = []
        for ubit in evictions:
            base = state ^ ubit
            new = [v for v in ready if not pm[v] & ubit and dist.get(base | marks[v], d + 1) > d]
            if new:
                xu = _closure(pm, x, ubit, board ^ ubit) if feeds[ubit] & x else x
                out += [(d, base | marks[v], xu & ~(1 << v)) for v in new]
        return out

    return steps


def _bw_steps(g: Dag, s: int, dist: dict):
    """Successors of a BW state ``black | white << n | visited << 2n``.

    Placements cost 1 and removals 0.  A black placement of v takes just v
    out of the closure.  A white one also adds the closure of v's
    unoccupied predecessors, which must be on the board when v is removed.
    A removal of v adds closure(v) when v feeds the closure or a white
    pebble.  Only the moves that improve on ``dist`` are returned.
    """
    n, pm, sm = g.n, g.pred_mask, g.succ_mask
    full = (1 << n) - 1
    seen = [(1 << v & g.target_mask) << 2 * n for v in range(n)]

    def steps(state: int, x: int, d: int):
        black = state & full
        white = state >> n & full
        occupied = black | white
        room = occupied.bit_count() < s
        out = []
        for v in range(n):
            vbit = 1 << v
            missing = pm[v] & ~occupied
            if occupied & vbit:
                if white & vbit and missing:
                    continue
                nstate = state ^ (vbit if black & vbit else vbit << n)
                if dist.get(nstate, d + 1) > d:
                    nx = _closure(pm, x, vbit, occupied ^ vbit) if sm[v] & (x | white) else x
                    out.append((d, nstate, nx))
            elif room:
                nx = x & ~vbit
                nstate = state | vbit | seen[v]
                if not missing and dist.get(nstate, d + 2) > d + 1:
                    out.append((d + 1, nstate, nx))
                nstate = state | vbit << n | seen[v]
                if dist.get(nstate, d + 2) > d + 1:
                    out.append((d + 1, nstate, _closure(pm, nx, missing, occupied | vbit)))
        return out

    return steps


def _search(g: Dag, game: str, s: int, parents=None, stats=None):
    """(min placements, goal state) of a complete pebbling with space cap s.

    Both are None when no pebbling fits.  A* with h(state) = |X|, X kept
    with each state by the successor functions: the closure from the
    unvisited targets through unoccupied vertices, in the BW game also from
    the unoccupied predecessors of every white pebble.  h(start) is the
    time floor.  The goal is X empty with no white pebble; the black
    pebbles left come off for free.  ``parents``, when a dict, is filled
    with state -> previous state.

    Sound: every vertex in X must be placed again.  An unvisited target
    must be; a placement of v, black at once or white by its removal,
    needs preds(v) on the board, so an unoccupied one must be placed too.
    Consistent: a placement removes at most v from X and a removal only
    grows it, so f = g + h never falls along a move.  So the queue,
    buckets indexed by f and popped LIFO, pops each state at its least
    distance, the first goal popped is optimal, and the 0-cost removals
    need no special order.  A bucket is a dict, state -> X; a state whose
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
    t0 = perf_counter()
    try:
        while f < len(buckets):
            bucket = buckets[f]
            while bucket:
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
        if stats is not None:
            queued = sum(map(len, buckets)) + (goal is not None)
            stats._add(BudgetStats(s, len(dist), len(dist) - queued, perf_counter() - t0))


def _witness(g: Dag, game: str, parents: dict, goal: int) -> list[Move]:
    """The moves along the parent links to ``goal``, then its free removals.

    A step differs from the one before it by at most a removal and a
    placement, in that order.
    """
    n = g.n
    full = (1 << n) - 1

    def colours(state):
        return state & full, (state >> n & full if game == "bw" else 0)

    steps = []
    state = goal
    while state:
        prev = parents[state]
        (pb, pw), (nb, nw) = colours(prev), colours(state)
        kinds = (("RB", pb & ~nb), ("RW", pw & ~nw), ("PB", nb & ~pb), ("PW", nw & ~pw))
        steps.append([Move(kind, bit.bit_length() - 1) for kind, bit in kinds if bit])
        state = prev
    moves = [m for step in reversed(steps) for m in step]
    board = goal & full
    return moves + [Move("RB", v) for v in range(n) if board >> v & 1]


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def optimal_price(
    g: Dag,
    game: str = "black",
    bound: int | None = None,
    with_trace: bool = False,
    *,
    stats: SearchStats | None = None,
):
    """Exact pebbling price: least space admitting a complete pebbling.

    With ``with_trace`` also returns a witness move list (deterministic for
    a given graph), read off the parent links of the winning search.
    Raises SizeBoundExceeded above the per-game bound (black 20, bw 14 by
    default).  ``stats`` is filled with the work of each budget searched.
    """
    _check_bound(g, game, bound)
    for s in range(1, g.n + 1):
        parents = {} if with_trace else None
        d, goal = _search(g, game, s, parents, stats)
        if d is not None:
            if stats is not None:
                stats.stop = "goal"
            return (s, _witness(g, game, parents, goal)) if with_trace else s
    raise SizeBoundExceeded("no complete pebbling found (unreachable for valid DAGs)")


@dataclass(frozen=True)
class ParetoFrontier:
    """Undominated (space, min_time) points, space increasing, time decreasing."""

    points: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.points)

    def min_time(self) -> int | None:
        return self.points[-1][1] if self.points else None


def tradeoff_frontier(
    g: Dag,
    game: str = "black",
    space_cap: int = 0,
    bound: int | None = None,
    *,
    above_price: int | None = None,
    stats: SearchStats | None = None,
) -> ParetoFrontier:
    """Minimum placements for every space budget from the price to the cap.

    The cap is ``space_cap``, or price + ``above_price`` when that is given
    (passing both is an error).  Returns the Pareto-filtered frontier; a cap
    below the price yields an empty frontier.  ``stats`` is filled with the
    work of each budget searched and the reason the sweep stopped.

    The sweep stops at the first budget whose time equals the time floor F,
    the search's bound at the start: |ancestors(targets)|.  This is exact.
    Every budget has min time >= F, min time never rises as the budget
    grows, so every budget above the stop also has time F.  Budgets above n
    allow the same pebblings as budget n, so the sweep searches at most n
    budgets.
    """
    if above_price is not None and space_cap:
        raise ValueError("give space_cap or above_price, not both")
    if above_price is not None and above_price < 0:
        raise ValueError("above_price must be >= 0")
    _check_bound(g, game, bound)
    floor = _closure(g.pred_mask, 0, g.target_mask, 0).bit_count()
    cap = space_cap if above_price is None else g.n + above_price
    points: list[tuple[int, int]] = []
    for s in range(1, min(cap, g.n) + 1):
        t, _ = _search(g, game, s, stats=stats)
        if t is None:
            continue
        if above_price is not None and not points:
            cap = s + above_price
        if not points or t < points[-1][1]:
            points.append((s, t))
        if t == floor or s == cap:
            stop = "floor" if t == floor else "cap"
            break
    else:
        stop = "cap" if above_price is None and cap <= g.n else "n"
    if stats is not None:
        stats.stop = stop
    return ParetoFrontier(points=tuple(points))


# ---------------------------------------------------------------------------
# Blob game price
# ---------------------------------------------------------------------------


def optimal_blob_price(
    g: Dag,
    bound: int = DEFAULT_BLOB_BOUND,
    strict: bool = False,
    *,
    stats: SearchStats | None = None,
) -> int:
    """Exact blob pebbling price (max chargeable cost, minimized).

    Iterative deepening on the cost cap; within a cap, best-first search
    over configurations (sets of subconfigurations) under all four move
    types, nearest the target blobs first (``_blob_reachable``).  The first
    cap with a reachable goal is the price.  The caps below it are searched
    to exhaustion, and their state spaces are enormous, so this refuses
    graphs with more than ``bound`` vertices and is really only comfortable
    a little below that.  ``stats`` is filled with the work of each cap
    searched, its ``space`` being the cap.
    """
    if g.n > bound:
        raise SizeBoundExceeded(f"{g.n} vertices exceeds blob search bound {bound}")
    for cap in range(1, g.n + 1):
        t0 = perf_counter()
        found, generated, expanded = _blob_reachable(g, cap, strict)
        if stats is not None:
            stats._add(BudgetStats(cap, generated, expanded, perf_counter() - t0))
            if found:
                stats.stop = "goal"
        if found:
            return cap
    raise SizeBoundExceeded("no complete blob pebbling found (unreachable for valid DAGs)")


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


def _blob_reachable(g: Dag, cap: int, strict: bool) -> tuple[bool, int, int]:
    """Best-first search over canonical configurations with peak chargeable
    cost <= cap.

    Returns whether a configuration holding [t]<> for every target is
    reachable, with the number of configurations stored and expanded.

    A subconfiguration is a (blob_mask, white_mask) pair; its bottom vertex
    is the lowest set bit of the blob, because ids are topological.  Moves:
    introduce, merge on a genuine pivot, erase, and "fatten" - an inflation
    that only adds blob vertices below the current bottom, fused with
    erasing its source.  General inflations are redundant: adding whites or
    blob vertices at/above the bottom only grows the chargeable set and
    yields a subconfiguration dominated by its source, and a merge pivoting
    on an inflation-added vertex produces a weakening of the source, so
    only the bottom-lowering inflations can ever pay off.  The cost check
    uses the transient configuration (new subconfiguration next to its
    operands/source) to mirror per-move accounting in the validator, and
    the validator's own rule, ``blob._charge`` on ``Dag.below``, to charge
    each subconfiguration.

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
    n = g.n
    charge = partial(_charge, g.below)

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
        for b1, w1 in cfg:
            for b2, w2 in cfg:
                pivots = b1 & w2
                while pivots:
                    p = pivots & -pivots
                    pivots ^= p
                    m = ((b1 & ~p) | b2, w1 | (w2 & ~p))
                    if m[0] & m[1] or (strict and not strict_ok(m)):
                        continue
                    if m not in cfg and (charged | charge(*m)).bit_count() <= cap:
                        yield _with_sub(cfg, m)
        for s in cfg:
            blob, whites = s
            rest = cfg - {s}
            room = ((blob & -blob) - 1) & ~whites
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
    if goal <= start:
        return True, 1, 0
    queue = [(key(start), 0, start)]
    while queue:
        for nxt in successors(heappop(queue)[2]):
            if nxt not in seen:
                if goal <= nxt:
                    return True, len(seen), len(seen) - len(queue)
                seen.add(nxt)
                heappush(queue, (key(nxt), len(seen), nxt))
    return False, len(seen), len(seen)
