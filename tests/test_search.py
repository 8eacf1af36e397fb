"""Tests for exhaustive price search, frontiers, and the blob price search."""

import random
from collections import deque

import pytest

from pebble_bench import (
    Dag,
    FamilySpec,
    SearchStats,
    SizeBoundExceeded,
    build_family,
    optimal_blob_price,
    optimal_price,
    tradeoff_frontier,
    validate_pebbling,
)
from pebble_bench import search
from pebble_bench.blob import BlobSubconfig, check_strict_shape

SEED = 6502


def test_chain_prices():
    assert optimal_price(build_family(FamilySpec.chain(1))) == 1
    for n in range(2, 7):
        assert optimal_price(build_family(FamilySpec.chain(n))) == 2


def test_pyramid_prices():
    for h in range(1, 4):
        g = build_family(FamilySpec.pyramid(h))
        assert optimal_price(g, game="black") == h + 2


def test_single_vertex():
    g = Dag(1, [], targets=[0])
    assert optimal_price(g, "black") == 1
    assert optimal_price(g, "bw") == 1


def test_bw_never_worse_than_black():
    specs = [
        FamilySpec.chain(4),
        FamilySpec.pyramid(2),
        FamilySpec.binary_tree(2),
        FamilySpec.carlson_savage(2, 1),
    ]
    for spec in specs:
        g = build_family(spec)
        assert optimal_price(g, "bw") <= optimal_price(g, "black")


def test_price_with_witness():
    for spec in [FamilySpec.chain(4), FamilySpec.pyramid(2)]:
        g = build_family(spec)
        price, moves = optimal_price(g, "black", with_trace=True)
        trace = validate_pebbling(g, moves, game="black")
        assert trace.space == price


def test_bw_price_witness_validates():
    g = build_family(FamilySpec.pyramid(2))
    price, moves = optimal_price(g, "bw", with_trace=True)
    trace = validate_pebbling(g, moves, game="bw")
    assert trace.space == price == 3


def test_frontier_monotone_and_pareto():
    g = build_family(FamilySpec.pyramid(2))
    fr = tradeoff_frontier(g, "black", space_cap=6)
    times = [t for _, t in fr.points]
    spaces = [s for s, t in fr.points]
    assert spaces == sorted(spaces)
    assert times == sorted(times, reverse=True)
    assert len(set(times)) == len(times)  # strict improvements only
    assert fr.min_time() == times[-1]


def test_frontier_chain_is_one_point():
    g = build_family(FamilySpec.chain(4))
    stats = SearchStats()
    fr = tradeoff_frontier(g, "black", space_cap=4, stats=stats)
    # price space: one placement per vertex, the time floor, so extra space
    # cannot help a chain and the sweep stops at the price
    assert fr.points == ((2, 4),) == tuple(fr)
    assert stats.stop == "floor"
    assert [b.space for b in stats.budgets] == [1, 2]


def test_frontier_below_price_is_empty_prefix():
    g = build_family(FamilySpec.pyramid(2))
    fr = tradeoff_frontier(g, "black", space_cap=3)
    assert fr.points == ()  # price is 4: nothing achievable at cap 3


def test_frontier_pyramid_is_flat():
    # a height-2 pyramid can already be pebbled one-placement-per-vertex at
    # its price, so extra space buys nothing and the frontier is one point
    g = build_family(FamilySpec.pyramid(2))
    fr = tradeoff_frontier(g, "black", space_cap=6)
    assert fr.points == ((4, 6),)


def test_carlson_savage_frontier_golden():
    g = build_family(FamilySpec.carlson_savage(2, 1))
    fr = tradeoff_frontier(g, "black", space_cap=6)
    assert fr.points == ((3, 16), (4, 11))


def test_size_bound_guard():
    g = build_family(FamilySpec.carlson_savage(2, 2))  # 23 vertices
    with pytest.raises(SizeBoundExceeded):
        optimal_price(g, "black")  # default bound is 20
    assert optimal_price(g, "black", bound=23) == 4
    with pytest.raises(SizeBoundExceeded):
        optimal_price(g, "bw")  # default bw bound is 14


def test_unknown_game_rejected():
    g = build_family(FamilySpec.chain(2))
    with pytest.raises(Exception):
        optimal_price(g, game="red")


def test_no_pebbling_of_a_cycle():
    # validate_dag refuses this graph; the searches exhaust every budget
    g = Dag(2, [(0, 1), (1, 0)], targets=[1])
    with pytest.raises(SizeBoundExceeded, match=r"^no complete pebbling found \(unreachable for valid DAGs\)$"):
        optimal_price(g)
    with pytest.raises(SizeBoundExceeded, match=r"^no complete blob pebbling found \(unreachable for valid DAGs\)$"):
        optimal_blob_price(g)


# --- independent oracle ------------------------------------------------------


def brute_black_price(g):
    """Reference oracle: plain DFS over full (board, visited-targets) states.

    Iterates the space cap upward; within a cap every legal placement or
    removal is explored, with a visited-state set for termination.  Kept
    deliberately different from the library's search (no eviction collapsing,
    no early exit) so the two implementations cross-check each other.
    """
    import sys

    targets = frozenset(g.targets)
    sys.setrecursionlimit(50000)

    for cap in range(1, g.n + 1):
        seen = set()

        def ok(board, visited):
            if visited == targets and not board:
                return True
            key = (board, visited)
            if key in seen:
                return False
            seen.add(key)
            for v in range(g.n):
                if v in board:
                    if ok(board - {v}, visited):
                        return True
                elif len(board) < cap and all(u in board for u in g.preds[v]):
                    if ok(board | {v}, visited | (targets & {v})):
                        return True
            return False

        if ok(frozenset(), frozenset()):
            return cap
    return g.n


def test_black_price_matches_brute_force_small():
    rng = random.Random(SEED)
    cases = [build_family(FamilySpec.chain(n)) for n in (1, 2, 3, 4)]
    cases.append(build_family(FamilySpec.pyramid(1)))
    cases.append(Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], targets=[3]))
    for _ in range(30):
        n = rng.randint(1, 6)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        cases.append(Dag(n, edges))
    for g in cases:
        assert optimal_price(g, "black") == brute_black_price(g)


# --- reference searches ------------------------------------------------------
# The breadth-first searches the best-first core replaced, kept verbatim as an
# independent oracle for every budget.


def _target_bits(g: Dag) -> tuple[dict[int, int], int]:
    """Visited-target bookkeeping: target -> its bit, and all those bits."""
    tgt_bit = {t: 1 << i for i, t in enumerate(g.targets)}
    return tgt_bit, (1 << len(g.targets)) - 1



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


# --- frontier pruning against a naive sweep -----------------------------------


def naive_raw(g, game, cap):
    """Reference series: search every budget from 1 to the cap, no stop."""
    oracle = _black_search if game == "black" else _bw_search
    raw = []
    for s in range(1, cap + 1):
        t, _ = oracle(g, s)
        if t is not None:
            raw.append((s, t))
    return tuple(raw)


def pareto(raw):
    points = []
    for s, t in raw:
        if not points or t < points[-1][1]:
            points.append((s, t))
    return tuple(points)


def cross_check_graphs():
    graphs = [
        build_family(FamilySpec.chain(4)),
        build_family(FamilySpec.pyramid(2)),
        build_family(FamilySpec.binary_tree(2)),
        build_family(FamilySpec.carlson_savage(2, 1)),
    ]
    rng = random.Random(SEED)
    for _ in range(20):
        n = rng.randint(1, 8)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        # Targets off the sinks leave some vertices outside every target's
        # ancestors, so the time floor falls below n.
        targets = rng.sample(range(n), rng.randint(1, n)) if rng.random() < 0.5 else None
        graphs.append(Dag(n, edges, targets=targets))
    return graphs


@pytest.mark.parametrize("game", ["black", "bw"])
def test_pruned_frontier_matches_naive_sweep(game):
    for g in cross_check_graphs():
        price = optimal_price(g, game, bound=g.n)
        full = naive_raw(g, game, price + 3)
        for k in range(4):
            want = pareto(p for p in full if p[0] <= price + k)
            got = tradeoff_frontier(g, game, space_cap=price + k, bound=g.n)
            assert got.points == want, (g, game, price + k)
            got = tradeoff_frontier(g, game, bound=g.n, above_price=k)
            assert got.points == want, (g, game, k)


def test_frontier_stops_at_time_floor():
    g = build_family(FamilySpec.carlson_savage(2, 1))  # 11 vertices, floor 11
    stats = SearchStats()
    fr = tradeoff_frontier(g, "black", space_cap=8, stats=stats)
    assert [b.space for b in stats.budgets] == [1, 2, 3, 4]  # 4 reaches time 11
    assert stats.stop == "floor"
    assert fr.points == ((3, 16), (4, 11))


# --- the best-first core against the reference, budget by budget --------------


def random_dags(count, max_n, seed):
    """Seeded DAGs of fan-in at most 3; most have random, often non-sink, targets."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(3, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        targets = rng.sample(range(n), rng.randint(1, n)) if rng.random() < 0.8 else None
        yield Dag(n, edges, targets=targets)


def every_budget_graphs(game):
    specs = [
        FamilySpec.chain(5),
        FamilySpec.pyramid(2),
        FamilySpec.binary_tree(2),
        FamilySpec.carlson_savage(2, 0),
    ]
    if game == "black":
        specs += [FamilySpec.pyramid(3), FamilySpec.binary_tree(3), FamilySpec.carlson_savage(2, 1)]
    families = [build_family(spec) for spec in specs]
    return families + list(random_dags(160, 10 if game == "black" else 7, SEED + 1))


@pytest.mark.parametrize("game", ["black", "bw"])
def test_search_matches_reference_every_budget(game):
    oracle = _black_search if game == "black" else _bw_search
    for g in every_budget_graphs(game):
        for s in range(1, g.n + 1):
            want, _ = oracle(g, s)
            parents = {}
            got, goal = search._search(g, game, s, parents)
            assert got == want, (g, game, s)
            if got is not None:
                moves = search._witness(g, game, parents, goal)
                trace = validate_pebbling(g, moves, game=game)
                assert trace.space <= s and trace.time == got, (g, game, s)


def closure_from_scratch(g, game, state):
    """X of a state, recomputed: everything that must still be placed."""
    n = g.n
    full = (1 << n) - 1
    black = state & full
    white = state >> n & full if game == "bw" else 0
    visited = state >> (n if game == "black" else 2 * n)
    occupied = black | white
    x = g.target_mask & ~visited
    for w in range(n):
        if white >> w & 1:
            x |= g.pred_mask[w] & ~occupied
    while True:
        grown = x
        for v in range(n):
            if x >> v & 1:
                grown |= g.pred_mask[v] & ~occupied
        if grown == x:
            return x
        x = grown


@pytest.mark.parametrize("game", ["black", "bw"])
def test_closure_kept_per_state_matches_recomputation(game):
    graphs = [build_family(FamilySpec.pyramid(2)), build_family(FamilySpec.carlson_savage(2, 1))]
    graphs += random_dags(40, 7, SEED + 2)
    for g in graphs:
        for s in range(1, min(g.n, 4) + 1):
            # An empty distance table makes every move a successor.
            steps = (search._black_steps if game == "black" else search._bw_steps)(g, s, {})
            start = (0, closure_from_scratch(g, game, 0))
            seen = {start}
            todo = [start]
            while todo and len(seen) < 3000:
                state, x = todo.pop()
                assert x == closure_from_scratch(g, game, state), (g, game, s, state)
                for _, nstate, nx in steps(state, x, 0):
                    if (nstate, nx) not in seen:
                        seen.add((nstate, nx))
                        todo.append((nstate, nx))


# --- work counters -------------------------------------------------------------


def counts(stats):
    return [(b.space, b.generated, b.expanded) for b in stats.budgets], stats.stop


@pytest.mark.parametrize("game", ["black", "bw"])
def test_search_stats_deterministic_and_additive(game):
    for spec in [FamilySpec.pyramid(2), FamilySpec.binary_tree(2), FamilySpec.carlson_savage(2, 1)]:
        g = build_family(spec)
        runs = []
        for _ in range(2):
            stats = SearchStats()
            tradeoff_frontier(g, game, above_price=2, stats=stats)
            runs.append(counts(stats))
            assert stats.generated == sum(b.generated for b in stats.budgets)
            assert stats.expanded == sum(b.expanded for b in stats.budgets)
            assert stats.table == max(b.generated for b in stats.budgets)
            assert stats.seconds == pytest.approx(sum(b.seconds for b in stats.budgets))
            for b in stats.budgets:
                assert 0 <= b.expanded <= b.generated
        assert runs[0] == runs[1]
        stats = SearchStats()
        price = optimal_price(g, game, stats=stats)
        assert [b.space for b in stats.budgets] == list(range(1, price + 1))
        assert stats.stop == "goal"


def test_search_stats_stop_reasons():
    g = build_family(FamilySpec.carlson_savage(2, 1))  # price 3, floor at 4
    stats = SearchStats()
    assert tradeoff_frontier(g, "black", space_cap=2, stats=stats).points == ()
    assert ([b.space for b in stats.budgets], stats.stop) == ([1, 2], "cap")
    stats = SearchStats()
    tradeoff_frontier(g, "black", above_price=0, stats=stats)
    assert ([b.space for b in stats.budgets], stats.stop) == ([1, 2, 3], "cap")
    cycle = Dag(2, [(0, 1), (1, 0)], targets=[1])  # no budget can pebble it
    stats = SearchStats()
    assert tradeoff_frontier(cycle, "black", space_cap=5, stats=stats).points == ()
    assert ([b.space for b in stats.budgets], stats.stop) == ([1, 2], "n")
    # A stats object does not change the answer.
    plain = tradeoff_frontier(g, "black", space_cap=8)
    assert plain == tradeoff_frontier(g, "black", space_cap=8, stats=SearchStats())


def test_frontier_rejects_two_caps():
    g = build_family(FamilySpec.chain(3))
    with pytest.raises(ValueError):
        tradeoff_frontier(g, "black", space_cap=4, above_price=1)


def test_frontier_rejects_negative_above_price():
    # a negative cap is refused, not read as no cap
    g = build_family(FamilySpec.carlson_savage(2, 1))
    with pytest.raises(ValueError, match="^above_price must be >= 0$"):
        tradeoff_frontier(g, "black", above_price=-1)
    assert tradeoff_frontier(g, "black", above_price=0).points == ((3, 16),)


# --- blob price ---------------------------------------------------------------


def test_blob_price_goldens():
    single = Dag(1, [], targets=[0])
    edge = Dag(2, [(0, 1)], targets=[1])
    assert optimal_blob_price(single) == 1
    assert optimal_blob_price(edge) == 2
    assert optimal_blob_price(build_family(FamilySpec.chain(3))) == 2
    assert optimal_blob_price(build_family(FamilySpec.pyramid(1))) == 3


def test_blob_price_never_exceeds_black_price():
    for spec in [FamilySpec.chain(3), FamilySpec.chain(4), FamilySpec.pyramid(1)]:
        g = build_family(spec)
        assert optimal_blob_price(g) <= optimal_price(g, "black")


def test_blob_price_bound_guard():
    g = build_family(FamilySpec.pyramid(2))  # 6 vertices, fine
    with pytest.raises(SizeBoundExceeded):
        optimal_blob_price(build_family(FamilySpec.pyramid(3)))  # 10 > 8
    assert optimal_blob_price(g, bound=6) >= 1


# Prices from the frozenset-configuration search that the bitmask search
# replaced, an independent implementation of the same game.  Plain and
# strict prices agree on every graph here.
FAMILY_BLOB_PRICES = {
    **{FamilySpec.chain(n): 1 if n == 1 else 2 for n in range(1, 9)},
    FamilySpec.pyramid(1): 3,
    FamilySpec.pyramid(2): 4,
    FamilySpec.binary_tree(1): 3,
    FamilySpec.binary_tree(2): 4,
    FamilySpec.carlson_savage(2, 0): 2,
    FamilySpec.carlson_savage(3, 0): 3,
}
RANDOM_BLOB_PRICES = [4, 4, 3, 2, 4, 4, 3, 3, 2, 3, 3, 6, 4, 3, 3, 3, 3, 3, 4, 3]


def test_blob_price_pinned():
    graphs = [(build_family(spec), p) for spec, p in FAMILY_BLOB_PRICES.items()]
    rng = random.Random(2024)
    for price in RANDOM_BLOB_PRICES:
        n = rng.randint(2, 6)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        graphs.append((Dag(n, edges), price))
    for g, price in graphs:
        assert optimal_blob_price(g) == price, g
        assert optimal_blob_price(g, strict=True) == price, g


def reference_blob_reachable(g, cap, strict):
    """The blob search before the goal was tested on generation, verbatim
    but for its returns, which add the number of configurations stored."""
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
            return True, len(seen)
        charged = 0
        for blob, whites in cfg:
            charged |= charge(blob, whites)
        for s in intros:
            if s not in cfg and (charged | charge(*s)).bit_count() <= cap:
                push(search._with_sub(cfg, s))
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
                        push(search._with_sub(cfg, m))
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
                    push(search._with_sub(rest, fat))
            push(rest)
    return False, len(seen)


def blob_check_graphs():
    specs = [FamilySpec.chain(n) for n in range(1, 7)]
    specs += [FamilySpec.pyramid(1), FamilySpec.pyramid(2), FamilySpec.binary_tree(1)]
    specs += [FamilySpec.carlson_savage(2, 0), FamilySpec.carlson_savage(3, 0)]
    graphs = [build_family(spec) for spec in specs]
    graphs.append(Dag(3, [(0, 2), (1, 2)], targets=[]))
    rng = random.Random(SEED + 3)
    for i in range(150):
        # Mostly small: one 6-vertex graph can take a second to search.
        n = min(rng.randint(1, 6), rng.randint(1, 6))
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        # One or two targets: with more non-sink targets a single search
        # below the price can store half a million configurations.
        targets = rng.sample(range(n), rng.randint(1, min(2, n))) if i % 3 == 0 else None
        graphs.append(Dag(n, edges, targets=targets))
    return graphs


@pytest.mark.parametrize("strict", [False, True])
def test_blob_goal_on_generation_matches_reference(strict):
    """The same verdict as the reference at every cap, and never more
    configurations stored.  Below the price both searches exhaust the same
    space.  Above it both say yes, as a play within a cap is within every
    larger one; that is checked on graphs of up to 4 vertices only, as
    larger caps reach far larger spaces (chain(6) at cap 5 stores about a
    million configurations)."""
    for g in blob_check_graphs():
        stats = SearchStats()
        price = optimal_blob_price(g, strict=strict, stats=stats)
        assert [b.space for b in stats.budgets] == list(range(1, price + 1)), g
        assert stats.stop == "goal"
        for b in stats.budgets:
            want, stored = reference_blob_reachable(g, b.space, strict)
            assert want == (b.space == price), (g, b.space)
            assert b.generated == stored if not want else b.generated <= stored, (g, b.space)
            assert 0 <= b.expanded <= b.generated
        for cap in range(price + 1, g.n + 1 if g.n <= 4 else 0):
            want, stored = reference_blob_reachable(g, cap, strict)
            got, generated, _ = search._blob_reachable(g, cap, strict)
            assert got and want and generated <= stored, (g, cap)


def test_blob_price_stats():
    g = build_family(FamilySpec.pyramid(2))
    stats = SearchStats()
    assert optimal_blob_price(g, stats=stats) == 4
    # Caps 1-3 are searched to exhaustion, so only cap 4 depends on the
    # search order.
    assert counts(stats) == (
        [(1, 4, 4), (2, 10, 10), (3, 532, 532), (4, 236, 68)],
        "goal",
    )
    assert stats.generated == sum(b.generated for b in stats.budgets)
    assert stats.table == 532


def test_strict_pyramid3_blob_price():
    """The caps below the price are searched to exhaustion, so they store
    what the reference stores."""
    g = build_family(FamilySpec.pyramid(3))
    stats = SearchStats()
    assert optimal_blob_price(g, bound=10, strict=True, stats=stats) == 4
    below = [b.generated for b in stats.budgets[:-1]]
    assert below == [reference_blob_reachable(g, cap, True)[1] for cap in (1, 2, 3)]
    assert below[-1] == 243
