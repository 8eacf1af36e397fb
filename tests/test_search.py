"""Tests for exhaustive price search, frontiers, and the blob price search."""

import random
from collections import deque
from functools import partial

import pytest

from pebble_bench import (
    Dag,
    FamilySpec,
    GraphError,
    Move,
    SearchStats,
    SizeBoundExceeded,
    build_family,
    optimal_blob_price,
    optimal_price,
    tradeoff_frontier,
    validate_pebbling,
)
from pebble_bench import search
from test_blob import is_chain, legal_pebble_positions

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
    times = [t for _, t in fr]
    spaces = [s for s, t in fr]
    assert spaces == sorted(spaces)
    assert times == sorted(times, reverse=True)
    assert len(set(times)) == len(times)  # strict improvements only
    assert fr[-1][1] == times[-1]


def test_frontier_chain_is_one_point():
    g = build_family(FamilySpec.chain(4))
    stats = SearchStats()
    fr = tradeoff_frontier(g, "black", space_cap=4, stats=stats)
    # price space: one placement per vertex, the time floor, so extra space
    # cannot help a chain and the sweep stops at the price
    assert fr == ((2, 4),)
    assert stats.stop == "floor"
    assert [b.space for b in stats.budgets] == [2]  # the price floor is 2


def test_frontier_below_price_is_empty_prefix():
    g = build_family(FamilySpec.pyramid(2))
    fr = tradeoff_frontier(g, "black", space_cap=3)
    assert fr == ()  # price is 4: nothing achievable at cap 3


def test_frontier_pyramid_is_flat():
    # a height-2 pyramid can already be pebbled one-placement-per-vertex at
    # its price, so extra space buys nothing and the frontier is one point
    g = build_family(FamilySpec.pyramid(2))
    fr = tradeoff_frontier(g, "black", space_cap=6)
    assert fr == ((4, 6),)


def test_carlson_savage_frontier_golden():
    g = build_family(FamilySpec.carlson_savage(2, 1))
    fr = tradeoff_frontier(g, "black", space_cap=6)
    assert fr == ((3, 16), (4, 11))


def test_instances_past_the_old_vertex_bounds_answer():
    """The old vertex bounds (black 20, BW 14) refused these; each stores
    under 200,000 states."""
    for spec, game, price in (
        (FamilySpec.carlson_savage(2, 2), "black", 4),  # 23 vertices
        (FamilySpec.carlson_savage(2, 2), "bw", 4),
        (FamilySpec.pyramid(4), "bw", 4),  # 15 vertices
        (FamilySpec.pyramid(5), "black", 7),  # 21 vertices
        (FamilySpec.binary_tree(4), "bw", 4),  # 31 vertices
    ):
        assert optimal_price(build_family(spec), game) == price, (spec, game)


def test_size_bound_guard(monkeypatch):
    """Past the limit, counted over all the call's budgets, each search
    raises and names the budget, the states stored and the limit; its
    stats end with the budget it stopped in and read ``states``."""
    g = build_family(FamilySpec.pyramid(2))  # black states stored: 14, 14 from the floor 3
    free = SearchStats()
    assert optimal_price(g, "black", stats=free) == 4
    # The limit is the bytes over 128 B plus the state width, 12 bits here.
    monkeypatch.setattr(search, "MAX_STORED_BYTES", 20 * 129)
    stats = SearchStats()
    with pytest.raises(SizeBoundExceeded, match="^black search at space budget 4 stored 22 states, above the limit 20$"):
        optimal_price(g, "black", stats=stats)
    assert [(b.space, b.generated) for b in stats.budgets] == [(3, 14), (4, 8)]
    assert stats.stop == "states"
    stats = SearchStats()
    with pytest.raises(SizeBoundExceeded, match="^black search at space budget 4 stored 22 states"):
        tradeoff_frontier(g, "black", space_cap=6, stats=stats)
    assert stats.stop == "states"
    with pytest.raises(SizeBoundExceeded, match=r"^bw search at space budget \d+ stored \d+ states, above the limit 19$"):
        optimal_price(g, "bw")  # 128 B plus 18 bits
    # Under the limit nothing changes: the whole call stores 28 states.
    monkeypatch.setattr(search, "MAX_STORED_BYTES", 28 * 129)
    stats = SearchStats()
    assert optimal_price(g, "black", stats=stats) == 4
    assert counts(stats) == counts(free)
    # A stats object that has counted other calls does not count against one.
    assert optimal_price(g, "black", stats=stats) == 4
    assert tradeoff_frontier(g, "black", space_cap=6, stats=stats) == ((4, 6),)


def test_unknown_game_rejected():
    """Both sweeps refuse an unknown game before any budget is searched,
    a cap below the price floor included, and leave ``stats`` untouched."""
    g = build_family(FamilySpec.chain(2))
    for call in (
        partial(optimal_price, g, "red"),
        partial(tradeoff_frontier, g, "red", space_cap=4),
        partial(tradeoff_frontier, g, "red", space_cap=0),
        partial(tradeoff_frontier, g, "red", above_price=1),
    ):
        stats = SearchStats()
        with pytest.raises(ValueError, match="^unknown game 'red'; expected 'black' or 'bw'$"):
            call(stats=stats)
        assert stats.report() == SearchStats().report()


def test_no_pebbling_of_a_cycle():
    """Dag refuses a cycle and a graph with no vertex, the graphs with no
    pebbling, so every search it is given has a budget with a pebbling."""
    with pytest.raises(GraphError, match=r"^edge \(1, 0\) does not go from a lower id to a higher one$"):
        Dag(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="^graph has 0 vertices, needs at least 1$"):
        Dag(0, [])


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
    # Vertices with three predecessors, so that one BW step places several.
    fan_in_3 = (g for g in random_dags(40, 8, SEED + 8) if any(len(p) == 3 for p in g.preds))
    return graphs + list(fan_in_3)[:8]


@pytest.mark.parametrize("game", ["black", "bw"])
def test_pruned_frontier_matches_naive_sweep(game):
    for g in cross_check_graphs():
        price = optimal_price(g, game)
        full = naive_raw(g, game, price + 3)
        for k in range(4):
            want = pareto(p for p in full if p[0] <= price + k)
            got = tradeoff_frontier(g, game, space_cap=price + k)
            assert got == want, (g, game, price + k)
            got = tradeoff_frontier(g, game, above_price=k)
            assert got == want, (g, game, k)


def test_frontier_stops_at_time_floor():
    g = build_family(FamilySpec.carlson_savage(2, 1))  # 11 vertices, floor 11
    stats = SearchStats()
    fr = tradeoff_frontier(g, "black", space_cap=8, stats=stats)
    assert [b.space for b in stats.budgets] == [3, 4]  # floor 3; 4 reaches time 11
    assert stats.stop == "floor"
    assert fr == ((3, 16), (4, 11))


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


def window_dag(n, window, rng):
    """A DAG whose first ``window`` - 2 vertices are sources and whose
    others each have two predecessors drawn from the ``window`` (at least
    4) vertices before them.  Its targets are its sinks, often several, so
    the black search visits them one by one and drops what each alone
    needed."""
    edges = []
    for v in range(window - 2, n):
        edges.extend((u, v) for u in rng.sample(range(max(0, v - window), v), 2))
    return Dag(n, edges)


def every_budget_graphs(game):
    specs = [
        FamilySpec.chain(5),
        FamilySpec.pyramid(2),
        FamilySpec.binary_tree(2),
        FamilySpec.carlson_savage(2, 0),
        FamilySpec.pyramid(3),
    ]
    if game == "black":
        specs += [FamilySpec.binary_tree(3), FamilySpec.carlson_savage(2, 1)]
    graphs = [build_family(spec) for spec in specs]
    if game == "black":
        rng = random.Random(SEED + 5)
        windowed = (window_dag(rng.randint(6, 11), rng.randint(4, 6), rng) for _ in range(60))
        graphs += [g for g in windowed if len(g.targets) > 2]
    return graphs + list(random_dags(160, 10 if game == "black" else 7, SEED + 1))


@pytest.mark.parametrize("game", ["black", "bw"])
def test_search_matches_reference_every_budget(game):
    oracle = _black_search if game == "black" else _bw_search
    for g in every_budget_graphs(game):
        for s in range(1, g.n + 1):
            want, _ = oracle(g, s)
            parents = {}
            got, goal = search._search(g, game, s, parents, SearchStats(), 0)
            assert got == want, (g, game, s)
            if got is not None:
                moves = search._witness(g, game, parents, goal)
                trace = validate_pebbling(g, moves, game=game)
                assert trace.space <= s and trace.time == got, (g, game, s)


def test_witness_places_a_target_before_dropping_its_predecessors():
    """Rule 1: visiting target 2 drops pebble 1, which only 2 needed.  1
    is a predecessor of 2, so its removal comes after 2's placement.
    Rule 2 makes placing 2 the only successor once it is ready, and
    drops 2 at once, so 2 is never on a board the search stores."""
    g = Dag(5, [(0, 2), (1, 2), (0, 3), (3, 4)], targets=[2, 4])
    parents = {}
    stats = SearchStats()
    least, goal = search._search(g, "black", 3, parents, stats, 0)
    moves = search._witness(g, "black", parents, goal)
    assert moves.index(Move("PB", 2)) < moves.index(Move("RB", 1))
    trace = validate_pebbling(g, moves, game="black")
    assert trace.space <= 3 and trace.time == least == 5
    assert stats.generated == 7  # 12 when the game was not confined to N(T)


def test_rules_shrink_a_many_sink_search():
    """Rules 1 and 2 on a 22-vertex DAG with 6 sinks: the confined search
    finds the price of the breadth-first reference and stores 4,928
    states, where the search over every board stored 17,265."""
    g = window_dag(22, 6, random.Random(3))
    assert len(g.targets) == 6
    stats = SearchStats()
    price = optimal_price(g, "black", stats=stats)
    assert _black_search(g, price - 1) == (None, None)
    assert _black_search(g, price)[0] == search._search(g, "black", price, None, SearchStats(), 0)[0]
    assert stats.generated <= 5000


def test_black_successors_hold_no_state_twice(monkeypatch):
    """On a full board, a placement that visits a target drops every pebble
    outside the new N(T), so evicting any one of them first leads to the
    same state; the successor list holds that state once."""
    original = search._black_steps
    seen = [0]

    def checked(g, s, dist):
        steps = original(g, s, dist)

        def listed(state, x, d):
            out = steps(state, x, d)
            states = [t for _, t, _ in out]
            assert len(set(states)) == len(states), (g, s, state)
            seen[0] += len(out)
            return out

        return listed

    monkeypatch.setattr(search, "_black_steps", checked)
    frontier = tradeoff_frontier(build_family(FamilySpec.carlson_savage(2, 2)), "black", above_price=2)
    assert frontier == ((4, 50), (5, 23))
    assert optimal_price(window_dag(22, 6, random.Random(3)), "black") == 5
    assert seen[0] > 10_000  # both searches ran through the wrapper


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


# --- successor lists against the vertex-scanning loops -------------------------
# Each game's rules written as a scan of every vertex, kept as the
# reference: the search must see the same successors, in the same order, so
# that it pops the same states and its counts stay the same.


def needed(g: Dag, visited: int) -> int:
    """N(T) from scratch: the targets outside ``visited`` (a vertex bitmask)
    and all their ancestors, by a plain loop over ``g.preds``."""
    need = {t for t in g.targets if not visited >> t & 1}
    todo = list(need)
    while todo:
        for u in g.preds[todo.pop()]:
            if u not in need:
                need.add(u)
                todo.append(u)
    return sum(1 << v for v in need)


def reference_black_steps(g: Dag, s: int, dist: dict):
    """The vertex scan, confined to N(T): rule 1 places only vertices in
    N(T) and drops the pebbles outside the new N(T) when a target is
    visited; rule 2 makes a ready unvisited target that no other unvisited
    target needs the only successor when the board has room.  On a full
    board, a step that visits a target evicts a pebble in the new N(T) or
    the lowest evictable one outside it: evicting any other one outside it
    leads to the same state."""
    n, pm = g.n, g.pred_mask
    full = (1 << n) - 1
    marks = [1 << v | (1 << v & g.target_mask) << n for v in range(n)]
    feeds = {0: 0} | {1 << u: g.succ_mask[u] for u in range(n)}

    def placed(state: int, v: int) -> int:
        visited = (state >> n) | (1 << v & g.target_mask)
        return (state | marks[v]) & (needed(g, visited) | visited << n)

    def evictable(board: int, visited: int, v: int, ubit: int) -> bool:
        if not ubit or not g.target_mask >> v & 1 or visited >> v & 1:
            return True
        after = needed(g, visited | 1 << v)
        outside = [u for u in range(n) if board >> u & 1 and not (after | pm[v]) >> u & 1]
        return bool(after & ubit) or ubit == 1 << outside[0]

    def steps(state: int, x: int, d: int):
        d += 1
        board = state & full
        visited = state >> n
        near = needed(g, visited)
        ready = [v for v in range(n) if near >> v & 1 and not (board >> v & 1 or pm[v] & ~board)]
        room = board.bit_count() < s
        for v in ready if room else []:
            if g.target_mask >> v & 1 and not visited >> v & 1 and not needed(g, visited | 1 << v) >> v & 1:
                nstate = placed(state, v)
                return [(d, nstate, x & ~(1 << v))] if dist.get(nstate, d + 1) > d else []
        evictions = [0] if room else [1 << u for u in range(n) if board >> u & 1]
        out = []
        for ubit in evictions:
            base = state ^ ubit
            new = [
                v
                for v in ready
                if not pm[v] & ubit
                and evictable(board, visited, v, ubit)
                and dist.get(placed(base, v), d + 1) > d
            ]
            if new:
                xu = search._closure(pm, x, ubit, board ^ ubit) if feeds[ubit] & x else x
                out += [(d, placed(base, v), xu & ~(1 << v)) for v in new]
        return out

    return steps


def reference_bw_steps(g: Dag, s: int, dist: dict):
    """The vertex scan of the first-use rule, one move at a time.  For each
    vertex v: unless v is black, place v's missing predecessors one by one
    in ascending id, each black when its own predecessors are on the board,
    else white; then place v black when it is free, else remove it.  Each
    placement needs a free pebble and costs 1, and updates X as a single
    move of the move-level game does."""
    n, pm, sm = g.n, g.pred_mask, g.succ_mask
    full = (1 << n) - 1

    def place(state: int, x: int, u: int, white: bool) -> tuple[int, int]:
        occupied = (state | state >> n) & full | 1 << u
        state |= (1 << u + n if white else 1 << u) | (1 << u & g.target_mask) << 2 * n
        x &= ~(1 << u)
        return state, search._closure(pm, x, pm[u] & ~occupied, occupied) if white else x

    def steps(state: int, x: int, d: int):
        out = []
        for v in range(n):
            t, nx, nd = state, x, d
            for u in range(v) if not state >> v & 1 else ():
                occupied = (t | t >> n) & full
                if pm[v] >> u & 1 and not occupied >> u & 1:
                    t, nx = place(t, nx, u, bool(pm[u] & ~occupied))
                    nd += 1
            black, white = t & full, t >> n & full
            occupied = black | white
            if not occupied >> v & 1:
                t, nx = place(t, nx, v, False)
                nd += 1
            else:
                t ^= 1 << v if black >> v & 1 else 1 << v + n
                if sm[v] & (nx | white):
                    nx = search._closure(pm, nx, 1 << v, occupied & ~(1 << v))
            if ((state | state >> n) & full).bit_count() + nd - d <= s and dist.get(t, nd + 1) > nd:
                out.append((nd, t, nx))
        return out

    return steps


def successor_graphs():
    """The four families and seeded random DAGs."""
    specs = [
        FamilySpec.chain(5),
        FamilySpec.pyramid(3),
        FamilySpec.binary_tree(2),
        FamilySpec.carlson_savage(2, 1),
    ]
    return [build_family(spec) for spec in specs] + list(random_dags(30, 9, SEED + 4))


@pytest.mark.parametrize("game", ["black", "bw"])
def test_successors_match_vertex_scan(game):
    """At every state reached, up to about 3,000 per budget, the same
    successor list as the reference, element for element.  The distance
    table is filled as states are reached, so the lists are also filtered
    by it, as in the search."""
    steps, reference = {
        "black": (search._black_steps, reference_black_steps),
        "bw": (search._bw_steps, reference_bw_steps),
    }[game]
    for g in successor_graphs():
        for s in range(1, 5):
            dist = {0: 0}
            got, want = steps(g, s, dist), reference(g, s, dist)
            todo = deque([(0, search._closure(g.pred_mask, 0, g.target_mask, 0), 0)])
            while todo and len(dist) < 3000:
                state, x, d = todo.popleft()
                out = want(state, x, d)
                assert got(state, x, d) == out, (g, game, s, state)
                for nd, nstate, nx in out:
                    if nstate not in dist:
                        dist[nstate] = nd
                        todo.append((nstate, nx, nd))


# (space, generated, expanded) per budget of tradeoff_frontier on every
# instance of the two benchmark frontier specs, at their caps above the price,
# as the vertex-scanning successor functions counted them, the black game
# confined to N(T) and the BW game placing a white pebble only in the step
# that first uses it, as the references above are.  The sweeps start at the
# price floor of their game, so they have no row below it.
FRONTIER_WORK = {
    "black": {
        (FamilySpec.chain(2), 3): [(2, 3, 2)],
        (FamilySpec.chain(3), 3): [(2, 4, 3)],
        (FamilySpec.chain(4), 3): [(2, 6, 4)],
        (FamilySpec.chain(5), 3): [(2, 8, 5)],
        (FamilySpec.chain(6), 3): [(2, 10, 6)],
        (FamilySpec.chain(7), 3): [(2, 12, 7)],
        (FamilySpec.chain(8), 3): [(2, 14, 8)],
        (FamilySpec.pyramid(1), 3): [(3, 5, 3)],
        (FamilySpec.pyramid(2), 3): [(3, 14, 14), (4, 14, 6)],
        (FamilySpec.pyramid(3), 3): [(3, 33, 33), (4, 101, 101), (5, 54, 10)],
        (FamilySpec.pyramid(4), 3): [(3, 66, 66), (4, 300, 300), (5, 1351, 1351), (6, 156, 15)],
        (FamilySpec.binary_tree(1), 3): [(3, 5, 3)],
        (FamilySpec.binary_tree(2), 3): [(4, 24, 7)],
        (FamilySpec.binary_tree(3), 3): [(5, 237, 15)],
        (FamilySpec.carlson_savage(2, 1), 2): [(3, 114, 92), (4, 76, 16)],
        (FamilySpec.carlson_savage(2, 2), 2): [(4, 7082, 6388), (5, 467, 28)],
    },
    "bw": {
        (FamilySpec.chain(2), 2): [(2, 3, 1)],
        (FamilySpec.chain(3), 2): [(2, 7, 3)],
        (FamilySpec.chain(4), 2): [(2, 11, 4)],
        (FamilySpec.chain(5), 2): [(2, 15, 5)],
        (FamilySpec.chain(6), 2): [(2, 19, 6)],
        (FamilySpec.chain(7), 2): [(2, 23, 7)],
        (FamilySpec.chain(8), 2): [(2, 27, 8)],
        (FamilySpec.pyramid(1), 2): [(3, 4, 1)],
        (FamilySpec.pyramid(2), 2): [(3, 37, 24), (4, 21, 4)],
        (FamilySpec.pyramid(3), 2): [(3, 143, 143), (4, 211, 105), (5, 59, 7)],
        (FamilySpec.binary_tree(1), 1): [(3, 4, 1)],
        (FamilySpec.binary_tree(2), 1): [(3, 34, 13)],
        (FamilySpec.binary_tree(3), 1): [(3, 495, 495), (4, 239, 104)],
        (FamilySpec.carlson_savage(2, 1), 2): [(3, 283, 216), (4, 67, 12)],
    },
}


@pytest.mark.parametrize("game", ["black", "bw"])
def test_frontier_work_pinned(game):
    for (spec, above), want in FRONTIER_WORK[game].items():
        stats = SearchStats()
        tradeoff_frontier(build_family(spec), game, above_price=above, stats=stats)
        assert [(b.space, b.generated, b.expanded) for b in stats.budgets] == want, spec


# --- the price floor -----------------------------------------------------------


def least_budget(g, game="black"):
    """The least budget at which the search finds a pebbling, trying every
    budget from 1, without the floor."""
    for s in range(1, g.n + 1):
        if search._search(g, game, s, None, SearchStats(), 0)[0] is not None:
            return s


def in_tree(n, rng):
    """A random in-tree: each vertex but the last feeds one later vertex, so
    a vertex has any fan-in from 0 to n - 1."""
    return Dag(n, [(v, rng.randint(v + 1, n - 1)) for v in range(n - 1)])


def floor_graphs():
    """The four families and seeded random DAGs with several targets."""
    specs = [FamilySpec.chain(n) for n in range(1, 6)]
    specs += [FamilySpec.pyramid(h) for h in (1, 2, 3)]
    specs += [FamilySpec.binary_tree(h) for h in (1, 2, 3)]
    specs += [FamilySpec.carlson_savage(2, 0), FamilySpec.carlson_savage(2, 1)]
    graphs = [build_family(spec) for spec in specs]
    return graphs + [g for g in random_dags(300, 9, SEED + 6) if len(g.targets) > 1]


def test_price_floor_never_exceeds_the_price():
    """The floor against the least budget with a pebbling, found from
    budget 1."""
    for g in floor_graphs():
        assert 1 <= search._price_floor(g) <= least_budget(g), g


def test_bw_price_floor_never_exceeds_the_price():
    """The BW floor against the least budget with a BW pebbling, found
    from budget 1 by the search and, on graphs of up to 7 vertices, by the
    breadth-first reference.  It never exceeds the black floor."""
    for g in floor_graphs():
        floor = search._bw_price_floor(g)
        assert 1 <= floor <= least_budget(g, "bw"), g
        assert floor <= search._price_floor(g), g
        if g.n <= 7:
            assert _bw_search(g, floor - 1) == (None, None), g


def test_bw_price_floor_pinned():
    """1 plus the largest in-degree among the targets and their ancestors;
    a vertex that no target needs does not count."""
    def floor(spec):
        return search._bw_price_floor(build_family(spec))

    assert floor(FamilySpec.chain(1)) == 1
    assert [floor(FamilySpec.chain(n)) for n in range(2, 6)] == [2] * 4
    assert [floor(FamilySpec.pyramid(h)) for h in range(1, 5)] == [3] * 4
    assert [floor(FamilySpec.binary_tree(h)) for h in range(1, 5)] == [3] * 4
    assert floor(FamilySpec.carlson_savage(2, 2)) == 3
    assert search._bw_price_floor(Dag(4, [(0, 3), (1, 3), (2, 3)], targets=[0])) == 1
    with pytest.raises(GraphError, match="^graph has 0 targets, needs at least 1$"):
        Dag(3, [(0, 1)], targets=[])


def test_price_floor_is_the_price_of_an_in_tree():
    """In a tree the regions of a vertex's predecessors are disjoint, and
    pebbling them largest L first, each kept once placed, needs just the
    floor, so it is the price."""
    rng = random.Random(SEED + 7)
    for _ in range(200):
        g = in_tree(rng.randint(1, 10), rng)
        assert search._price_floor(g) == least_budget(g), g


def test_price_floor_pinned():
    """The floor is the price of chains, binary trees and carlson_savage(2, 1)
    and (2, 2); on pyramids it stays at 3, below the price h + 2."""
    def floor(spec):
        return search._price_floor(build_family(spec))

    assert floor(FamilySpec.chain(1)) == 1
    assert [floor(FamilySpec.chain(n)) for n in range(2, 9)] == [2] * 7
    assert [floor(FamilySpec.binary_tree(h)) for h in range(1, 6)] == [3, 4, 5, 6, 7]
    assert floor(FamilySpec.carlson_savage(2, 1)) == 3
    assert floor(FamilySpec.carlson_savage(2, 2)) == 4
    assert [floor(FamilySpec.pyramid(h)) for h in range(1, 7)] == [3] * 6


def test_bw_price_work_pinned():
    """The BW price from the BW floor, each white pebble placed only in the
    step that first uses it.  Placing white wherever a predecessor was
    missing, the same calls stored 11,524, 46,215 and 64,459 states, and
    placing white anywhere from budget 1, 25,306, 98,132 and 196,230."""
    for spec, want in (
        (FamilySpec.pyramid(4), [(3, 274, 274), (4, 4279, 4019)]),
        (FamilySpec.carlson_savage(2, 2), [(3, 988, 988), (4, 8842, 7329)]),
        (FamilySpec.binary_tree(4), [(3, 3295, 3295), (4, 1677, 706)]),
    ):
        g = build_family(spec)
        stats = SearchStats()
        price, moves = optimal_price(g, "bw", with_trace=True, stats=stats)
        assert price == 4 and validate_pebbling(g, moves, game="bw").space == 4, spec
        assert counts(stats) == (want, "goal"), spec


def test_bw_price_past_the_old_reach():
    """BW price 5 for pyramid(6) and carlson_savage(2, 3), each witness
    valid at space 5.  Placing white wherever a predecessor was missing,
    both calls passed the limit, after 972,599 and 945,214 states."""
    for spec, want in (
        (FamilySpec.pyramid(6), [(3, 717, 717), (4, 23204, 23204), (5, 174605, 156112)]),
        (FamilySpec.carlson_savage(2, 3), [(3, 2603, 2603), (4, 118994, 118994), (5, 3701, 2459)]),
    ):
        g = build_family(spec)
        stats = SearchStats()
        price, moves = optimal_price(g, "bw", with_trace=True, stats=stats)
        assert price == 5 and validate_pebbling(g, moves, game="bw").space == 5, spec
        assert counts(stats) == (want, "goal"), spec


def test_binary_tree_5_black_price():
    """Searched from budget 1 the call passed its limit at budget 5 after
    14.9 s; from the floor it searches only the price, 7 = h + 2."""
    g = build_family(FamilySpec.binary_tree(5))
    stats = SearchStats()
    price, moves = optimal_price(g, "black", with_trace=True, stats=stats)
    assert price == 7 and validate_pebbling(g, moves, game="black").space == 7
    assert counts(stats) == ([(7, 9751, 63)], "goal")


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
        first = (search._price_floor if game == "black" else search._bw_price_floor)(g)
        assert [b.space for b in stats.budgets] == list(range(first, price + 1))
        assert stats.stop == "goal"


def test_search_stats_stop_reasons():
    g = build_family(FamilySpec.carlson_savage(2, 1))  # price 3, floor at 4
    stats = SearchStats()
    assert tradeoff_frontier(g, "black", space_cap=2, stats=stats) == ()
    assert ([b.space for b in stats.budgets], stats.stop) == ([], "cap")  # price floor 3
    stats = SearchStats()
    tradeoff_frontier(g, "black", above_price=0, stats=stats)
    assert ([b.space for b in stats.budgets], stats.stop) == ([3], "cap")
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
    assert tradeoff_frontier(g, "black", above_price=0) == ((3, 16),)


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


def test_blob_price_bound_guard(monkeypatch):
    """The plain pyramid(3) search at cap 4 ran past 100 s; now it stops at
    the limit, counted over the caps, and names the cap, the configurations
    stored and the limit."""
    g = build_family(FamilySpec.pyramid(2))  # stores 4, 10, 532 below cap 4
    monkeypatch.setattr(search, "MAX_STORED_BYTES", 600 * 1024)
    stats = SearchStats()
    with pytest.raises(SizeBoundExceeded, match="^blob search at cost cap 4 stored 60[0-9] states, above the limit 600$"):
        optimal_blob_price(g, stats=stats)
    assert [b.space for b in stats.budgets] == [1, 2, 3, 4] and stats.stop == "states"
    assert stats.budgets[-1].generated == stats.generated - 546
    monkeypatch.undo()
    stats = SearchStats()
    with pytest.raises(SizeBoundExceeded, match="^blob search at cost cap 4 stored [0-9]+ states, above the limit 131072$"):
        optimal_blob_price(build_family(FamilySpec.pyramid(3)), stats=stats)
    assert [b.space for b in stats.budgets] == [1, 2, 3, 4] and stats.stop == "states"


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
    but for its returns, which add the number of configurations stored, and
    for ``strict_ok``, which reads the set definitions of the strict shape
    rather than the bitmask test under check."""
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
            ok = is_chain(g, blob) and whites <= legal_pebble_positions(g, blob)
            shape_ok[s] = ok
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
    with pytest.raises(GraphError, match="^graph has 0 targets, needs at least 1$"):
        Dag(3, [(0, 2), (1, 2)], targets=[])
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
            above = SearchStats()
            got = search._blob_reachable(g, cap, strict, above, 0)
            assert got and want and above.generated <= stored, (g, cap)


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
    assert optimal_blob_price(g, strict=True, stats=stats) == 4
    below = [b.generated for b in stats.budgets[:-1]]
    assert below == [reference_blob_reachable(g, cap, True)[1] for cap in (1, 2, 3)]
    assert below[-1] == 243


def test_strict_carlson_savage_blob_price():
    """Strict fattening adds only ancestors of the bottom, the one inflation
    a chain allows; the configurations stored per cap are those of the
    search that tried every subset below the bottom, in 0.24 s where this
    takes about 0.1 s."""
    g = build_family(FamilySpec.carlson_savage(2, 1))
    stats = SearchStats()
    assert optimal_blob_price(g, strict=True, stats=stats) == 4
    assert [b.generated for b in stats.budgets] == [5, 11, 1368, 3357]
