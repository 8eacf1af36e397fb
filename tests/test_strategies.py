"""Tests for explicit pebbling strategies and the space-time trade-off family."""

import pytest

from pebble_bench import (
    BudgetTooSmall,
    FamilySpec,
    black_strategy,
    build_family,
    cs_min_budget,
    cs_tradeoff_strategy,
    optimal_price,
    validate_pebbling,
)
from pebble_bench.strategies import cs_predicted_time


def run(spec, moves):
    return validate_pebbling(build_family(spec), moves, game="black")


def test_chain_strategy_is_optimal():
    for n in (1, 2, 3, 6, 10):
        spec = FamilySpec.chain(n)
        trace = run(spec, black_strategy(spec))
        assert trace.space == optimal_price(build_family(spec))
        assert trace.time == n  # one placement per vertex


def test_pyramid_strategy_matches_price():
    for h in (1, 2, 3):
        spec = FamilySpec.pyramid(h)
        trace = run(spec, black_strategy(spec))
        assert trace.space == h + 2 == optimal_price(build_family(spec))


def test_binary_tree_strategy_matches_price():
    for h in (1, 2, 3):
        spec = FamilySpec.binary_tree(h)
        trace = run(spec, black_strategy(spec))
        assert trace.space == optimal_price(build_family(spec))
        # a tree never needs recomputation
        assert trace.time == 2 ** (h + 1) - 1


def test_carlson_savage_default_strategy_uses_min_budget():
    spec = FamilySpec.carlson_savage(2, 1)
    trace = run(spec, black_strategy(spec))
    assert trace.space == cs_min_budget(2, 1) == 3


def test_cs_min_budget_matches_exact_price():
    for c, r in [(2, 1), (2, 2)]:
        g = build_family(FamilySpec.carlson_savage(c, r))
        assert cs_min_budget(c, r) == optimal_price(g, "black", bound=g.n)


def test_cs_budget_too_small():
    with pytest.raises(BudgetTooSmall) as exc:
        cs_tradeoff_strategy(2, 1, 2)
    assert exc.value.minimum == 3


def test_cs_tradeoff_goldens_small():
    # frozen from the emitter after validating legality and completeness
    expected = {3: 16, 4: 13, 5: 12, 6: 11}
    for budget, t in expected.items():
        trace = run(
            FamilySpec.carlson_savage(2, 1),
            cs_tradeoff_strategy(2, 1, budget),
        )
        assert trace.time == t
        assert trace.space <= budget


def test_cs_tradeoff_goldens_two_levels():
    expected = {4: 52, 5: 44, 6: 36, 7: 29}
    for budget, t in expected.items():
        trace = run(
            FamilySpec.carlson_savage(2, 2),
            cs_tradeoff_strategy(2, 2, budget),
        )
        assert trace.time == t
        assert trace.space <= budget


def test_cs_time_monotone_in_budget():
    for c, r in [(2, 1), (2, 2), (3, 1)]:
        lo = cs_min_budget(c, r)
        times = []
        for budget in range(lo, lo + 5):
            trace = run(
                FamilySpec.carlson_savage(c, r),
                cs_tradeoff_strategy(c, r, budget),
            )
            times.append(trace.time)
            assert trace.space <= budget
        assert times == sorted(times, reverse=True)


def test_cs_predicted_time_agrees_with_replay():
    for c, r in [(2, 1), (2, 2)]:
        for extra in range(4):
            budget = cs_min_budget(c, r) + extra
            predicted = cs_predicted_time(c, r, budget)
            trace = run(
                FamilySpec.carlson_savage(c, r),
                cs_tradeoff_strategy(c, r, budget),
            )
            assert predicted == trace.time


def test_cs_wider_instance_runs():
    spec = FamilySpec.carlson_savage(3, 1)
    trace = run(spec, black_strategy(spec))
    assert trace.space == cs_min_budget(3, 1)


def test_strategy_near_optimal_on_frontier():
    # quality guarantee frozen at factor 2 against the exact frontier
    from pebble_bench import tradeoff_frontier

    g = build_family(FamilySpec.carlson_savage(2, 1))
    fr = tradeoff_frontier(g, "black", space_cap=6)
    for s, t_opt in fr.points:
        trace = run(
            FamilySpec.carlson_savage(2, 1),
            cs_tradeoff_strategy(2, 1, s),
        )
        assert trace.time <= 2 * t_opt
