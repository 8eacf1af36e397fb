"""Tests for exhaustive price search, frontiers, and the blob price search."""

import random

import pytest

from pebble_bench import (
    Dag,
    FamilySpec,
    SizeBoundExceeded,
    build_family,
    optimal_blob_price,
    optimal_price,
    tradeoff_frontier,
    validate_pebbling,
)
from pebble_bench import search

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


def test_frontier_raw_series_is_total():
    g = build_family(FamilySpec.chain(4))
    fr = tradeoff_frontier(g, "black", space_cap=4)
    raw = dict(fr.raw)
    assert raw[2] == 4  # price space: one placement per vertex
    assert raw[3] == 4 and raw[4] == 4  # extra space cannot help a chain
    assert fr.points == ((2, 4),)


def test_frontier_below_price_is_empty_prefix():
    g = build_family(FamilySpec.pyramid(2))
    fr = tradeoff_frontier(g, "black", space_cap=3)
    assert fr.points == ()  # price is 4: nothing achievable at cap 3
    assert fr.raw == ()


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


# --- frontier pruning against a naive sweep -----------------------------------


def naive_raw(g, game, cap):
    """Reference series: search every budget from 1 to the cap, no stop."""
    oracle = search._black_search if game == "black" else search._bw_search
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
            raw = tuple(p for p in full if p[0] <= price + k)
            want = (pareto(raw), raw)
            got = tradeoff_frontier(g, game, space_cap=price + k, bound=g.n)
            assert (got.points, got.raw) == want, (g, game, price + k)
            got = tradeoff_frontier(g, game, bound=g.n, above_price=k)
            assert (got.points, got.raw) == want, (g, game, k)


def test_frontier_stops_at_time_floor(monkeypatch):
    budgets = []
    real = search._black_search

    def counting(g, s, parents=None):
        budgets.append(s)
        return real(g, s, parents)

    monkeypatch.setattr(search, "_black_search", counting)
    g = build_family(FamilySpec.carlson_savage(2, 1))  # 11 vertices, floor 11
    fr = tradeoff_frontier(g, "black", space_cap=8)
    assert budgets == [1, 2, 3, 4]  # budget 4 already reaches time 11
    assert fr.points == ((3, 16), (4, 11))
    assert fr.raw == ((3, 16), (4, 11), (5, 11), (6, 11), (7, 11), (8, 11))


def test_frontier_rejects_two_caps():
    g = build_family(FamilySpec.chain(3))
    with pytest.raises(ValueError):
        tradeoff_frontier(g, "black", space_cap=4, above_price=1)


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
