"""Exhaustive minimum-space and time-space-frontier oracles.

States are bitmask integers.  For the black game the search walks
"placement steps": a transition places one pebble and optionally evicts one
first.  Removals are free and can always be deferred, so this collapsed
model reaches the same (space, placements) optima as the move-level game
while visiting far fewer states.  The black-white game is searched at move
level with a 0-1 BFS (placements cost 1, removals 0).

These oracles are meant for desk-size instances; they refuse graphs above a
size bound rather than run forever.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .blob import BlobSubconfig, check_strict_shape
from .dag import Dag
from .errors import SizeBoundExceeded
from .pebbling import Move

__all__ = [
    "ParetoFrontier",
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


def _target_bits(g: Dag) -> tuple[dict[int, int], int]:
    """Visited-target bookkeeping: target -> its bit, and all those bits."""
    tgt_bit = {t: 1 << i for i, t in enumerate(g.targets)}
    return tgt_bit, (1 << len(g.targets)) - 1


# ---------------------------------------------------------------------------
# Black game: collapsed placement-step search
# ---------------------------------------------------------------------------


def _black_search(g: Dag, s: int, parents: dict | None = None):
    """(min placements, goal state) to pebble every target with space cap s.

    Both are None when no pebbling fits.  State = board_mask |
    visited_targets << n, always right after a placement.  When ``parents``
    is a dict it is filled with state -> (prev_state, placed,
    evicted_or_None).

    The goal test runs when a state is generated, not when it is popped.
    The queue is FIFO, so states are popped in the order they were pushed
    and the first goal pushed is the first goal popped: distance and parent
    chain are exactly those of the test-on-pop search.
    """
    n = g.n
    preds_mask = g.pred_mask
    tgt_bit, all_tgts = _target_bits(g)
    if not all_tgts:
        return 0, 0
    dist = {0: 0}
    queue = deque([0])
    board_of = (1 << n) - 1
    goal_vis = all_tgts << n
    while queue:
        state = queue.popleft()
        d = dist[state] + 1
        board = state & board_of
        visited = state >> n
        free = bin(board).count("1") < s
        for v in range(n):
            vbit = 1 << v
            if board & vbit or (preds_mask[v] & ~board):
                continue
            nvis = (visited | tgt_bit.get(v, 0)) << n
            if free:
                nstate = board | vbit | nvis
                if nstate not in dist:
                    dist[nstate] = d
                    if parents is not None:
                        parents[nstate] = (state, v, None)
                    if nvis == goal_vis:
                        # Trailing removals are free; this is the optimum.
                        return d, nstate
                    queue.append(nstate)
            else:
                evictable = board & ~preds_mask[v]
                u = 0
                while evictable:
                    if evictable & 1:
                        nstate = (board & ~(1 << u)) | vbit | nvis
                        if nstate not in dist:
                            dist[nstate] = d
                            if parents is not None:
                                parents[nstate] = (state, v, u)
                            if nvis == goal_vis:
                                return d, nstate
                            queue.append(nstate)
                    evictable >>= 1
                    u += 1
    return None, None


def _black_moves(parents: dict, goal: int) -> list[Move]:
    steps = []
    state = goal
    while state:
        prev, v, evicted = parents[state]
        steps.append((v, evicted))
        state = prev
    steps.reverse()
    moves: list[Move] = []
    board: set[int] = set()
    for v, evicted in steps:
        if evicted is not None:
            moves.append(Move("RB", evicted))
            board.discard(evicted)
        moves.append(Move("PB", v))
        board.add(v)
    for v in sorted(board):
        moves.append(Move("RB", v))
    return moves


# ---------------------------------------------------------------------------
# Black-white game: move-level 0-1 BFS
# ---------------------------------------------------------------------------


def _bw_search(g: Dag, s: int, parents: dict | None = None):
    """(min placements, goal state) of a complete BW pebbling with space cap s.

    State = black | white << n | visited << 2n.  Goal: empty board, every
    target visited.  Placements cost 1, removals 0 (0-1 BFS).
    """
    n = g.n
    preds_mask = g.pred_mask
    tgt_bit, all_tgts = _target_bits(g)
    goal = all_tgts << (2 * n)
    start = 0
    dist = {start: 0}
    queue = deque([(0, start)])
    while queue:
        d, state = queue.popleft()
        if d > dist.get(state, 1 << 60):
            continue
        if state == goal:
            return d, state
        black = state & ((1 << n) - 1)
        white = (state >> n) & ((1 << n) - 1)
        visited = state >> (2 * n)
        occupied = black | white
        room = bin(occupied).count("1") < s
        for v in range(n):
            vbit = 1 << v
            pm = preds_mask[v]
            if occupied & vbit:
                # removals
                if black & vbit:
                    nstate = (black & ~vbit) | (white << n) | (visited << (2 * n))
                    cost, mv = 0, ("RB", v)
                elif pm & ~occupied:
                    continue
                else:
                    nstate = black | ((white & ~vbit) << n) | (visited << (2 * n))
                    cost, mv = 0, ("RW", v)
                nd = d + cost
                if nd < dist.get(nstate, 1 << 60):
                    dist[nstate] = nd
                    if parents is not None:
                        parents[nstate] = (state, mv)
                    queue.appendleft((nd, nstate))
            elif room:
                # placements: black needs support, white is free
                nvis = visited | tgt_bit.get(v, 0)
                for colour, ok in (("PB", not (pm & ~occupied)), ("PW", True)):
                    if not ok:
                        continue
                    if colour == "PB":
                        nstate = (black | vbit) | (white << n) | (nvis << (2 * n))
                    else:
                        nstate = black | ((white | vbit) << n) | (nvis << (2 * n))
                    nd = d + 1
                    if nd < dist.get(nstate, 1 << 60):
                        dist[nstate] = nd
                        if parents is not None:
                            parents[nstate] = (state, (colour, v))
                        queue.append((nd, nstate))
    return None, None


def _bw_moves(parents: dict, goal: int) -> list[Move]:
    moves: list[Move] = []
    state = goal
    while state:
        prev, (kind, v) = parents[state]
        moves.append(Move(kind, v))
        state = prev
    moves.reverse()
    return moves


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def optimal_price(
    g: Dag,
    game: str = "black",
    bound: int | None = None,
    with_trace: bool = False,
):
    """Exact pebbling price: least space admitting a complete pebbling.

    With ``with_trace`` also returns a witness move list (deterministic for
    a given graph), read off the parent links of the winning search.
    Raises SizeBoundExceeded above the per-game bound (black 20, bw 14 by
    default).
    """
    _check_bound(g, game, bound)
    search = _black_search if game == "black" else _bw_search
    moves_of = _black_moves if game == "black" else _bw_moves
    for s in range(1, g.n + 1):
        parents = {} if with_trace else None
        d, goal = search(g, s, parents)
        if d is not None:
            return (s, moves_of(parents, goal)) if with_trace else s
    raise SizeBoundExceeded("no complete pebbling found (unreachable for valid DAGs)")


@dataclass(frozen=True)
class ParetoFrontier:
    """Undominated (space, min_time) points, space increasing, time decreasing.

    ``raw`` keeps the full per-space series from the price up to the cap.
    """

    points: tuple[tuple[int, int], ...]
    raw: tuple[tuple[int, int], ...] = field(default=(), repr=False)

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
) -> ParetoFrontier:
    """Minimum placements for every space budget from the price to the cap.

    The cap is ``space_cap``, or price + ``above_price`` when that is given
    (passing both is an error).  Returns the Pareto-filtered frontier; a cap
    below the price yields an empty frontier.

    The sweep stops at the first budget whose time equals the time floor
    F = |ancestors(targets)|.  This is exact.  In both games every ancestor
    of a target is placed at least once: a black placement needs its
    predecessors on the board, and a white pebble must be removed before
    the board is empty, which also needs its predecessors on the board.  So
    min time >= F at every budget.  Min time never rises as the budget
    grows, so every budget above the stop also has time F.  Budgets above n
    allow the same pebblings as budget n, so the sweep searches at most n
    budgets.  ``raw`` is filled with the last time up to the cap.
    """
    if above_price is not None and space_cap:
        raise ValueError("give space_cap or above_price, not both")
    _check_bound(g, game, bound)
    search = _black_search if game == "black" else _bw_search
    anc = 0
    for t in g.targets:
        anc |= 1 << t
    # One pass down the ids; if some edge does not go forward it may miss
    # ancestors, which only lowers the floor and keeps it a lower bound.
    for v in range(g.n - 1, -1, -1):
        if anc >> v & 1:
            anc |= g.pred_mask[v]
    floor = bin(anc).count("1")
    cap = space_cap if above_price is None else g.n + above_price
    raw: list[tuple[int, int]] = []
    points: list[tuple[int, int]] = []
    for s in range(1, min(cap, g.n) + 1):
        t, _ = search(g, s)
        if t is None:
            continue
        if above_price is not None and not raw:
            cap = s + above_price
        if s > cap:
            break
        raw.append((s, t))
        if not points or t < points[-1][1]:
            points.append((s, t))
        if t == floor or s == cap:
            break
    if raw:
        last_s, last_t = raw[-1]
        raw.extend((b, last_t) for b in range(last_s + 1, cap + 1))
    return ParetoFrontier(points=tuple(points), raw=tuple(raw))


# ---------------------------------------------------------------------------
# Blob game price
# ---------------------------------------------------------------------------


def optimal_blob_price(g: Dag, bound: int = DEFAULT_BLOB_BOUND, strict: bool = False) -> int:
    """Exact blob pebbling price (max chargeable cost, minimized).

    Iterative deepening on the cost cap; within a cap, breadth-first search
    over configurations (sets of subconfigurations) under all four move
    types.  The state space is enormous, so this refuses graphs with more
    than ``bound`` vertices and is really only comfortable a little below
    that.
    """
    if g.n > bound:
        raise SizeBoundExceeded(f"{g.n} vertices exceeds blob search bound {bound}")
    for cap in range(1, g.n + 1):
        if _blob_reachable(g, cap, strict):
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


def _blob_reachable(g: Dag, cap: int, strict: bool) -> bool:
    """BFS over canonical configurations with peak chargeable cost <= cap.

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
    operands/source) to mirror per-move accounting in the validator.
    """
    n = g.n
    # below[v]: the vertices strictly below v, those with a path to v.
    below = [sum(1 << u for u in range(n) if u != v and g.reaches(u, v)) for v in range(n)]

    def charge(blob: int, whites: int) -> int:
        """Blob vertices plus whites strictly below the bottom vertex."""
        return blob | (whites & below[(blob & -blob).bit_length() - 1])

    shape_ok: dict[tuple[int, int], bool] = {}

    def strict_ok(s: tuple[int, int]) -> bool:
        ok = shape_ok.get(s)
        if ok is None:
            blob, whites = (frozenset(v for v in range(n) if m >> v & 1) for m in s)
            ok = shape_ok[s] = check_strict_shape(g, BlobSubconfig(blob, whites)) is None
        return ok

    intros = [(1 << v, g.pred_mask[v]) for v in range(n)]
    goal = frozenset((1 << t, 0) for t in g.targets)
    start: frozenset[tuple[int, int]] = frozenset()
    seen = {start}
    queue = deque([start])

    def push(cfg: frozenset):
        if cfg not in seen:
            seen.add(cfg)
            queue.append(cfg)

    while queue:
        cfg = queue.popleft()
        if goal <= cfg:
            return True
        charged = 0
        for blob, whites in cfg:
            charged |= charge(blob, whites)
        for s in intros:
            if s not in cfg and (charged | charge(*s)).bit_count() <= cap:
                push(_with_sub(cfg, s))
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
                        push(_with_sub(cfg, m))
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
                    push(_with_sub(rest, fat))
            push(rest)
    return False
