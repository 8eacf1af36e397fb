"""Tests for explicit pebbling strategies and the space-time trade-off family."""

import dataclasses
from functools import lru_cache
from types import SimpleNamespace

import pytest

from pebble_bench import (
    BudgetTooSmall,
    FamilySpec,
    SizeBoundExceeded,
    UnsupportedFamily,
    black_strategy,
    build_family,
    cs_min_budget,
    cs_tradeoff_strategy,
    optimal_price,
    strategies,
    tradeoff_frontier,
    validate_pebbling,
)
from pebble_bench.dag import _pyramid_rows, carlson_savage_layout
from pebble_bench.pebbling import Move
from pebble_bench.strategies import _pyramid_time, _walk_time


def run(spec, moves):
    return validate_pebbling(build_family(spec), moves, game="black")


def bounded_at_length(monkeypatch, emit, length):
    """The moves of ``emit()`` under ``MAX_MOVES`` = ``length``, after
    checking that a bound of ``length`` - 1 refuses it: the move count a
    strategy computes before emitting is exact."""
    monkeypatch.setattr(strategies, "MAX_MOVES", length - 1)
    with pytest.raises(SizeBoundExceeded, match=f"^strategy has more than {length - 1} moves$"):
        emit()
    monkeypatch.setattr(strategies, "MAX_MOVES", length)
    moves = emit()
    monkeypatch.undo()
    return moves


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


def test_pyramid_strategy_places_each_vertex_once(monkeypatch):
    for h in range(1, 31):
        spec = FamilySpec.pyramid(h)
        n = build_family(spec).n
        moves = bounded_at_length(monkeypatch, lambda: black_strategy(spec), 2 * n)
        trace = run(spec, moves)
        assert (trace.space, trace.time, len(moves)) == (h + 2, n, 2 * n), h
        assert sorted(m.v for m in moves if m.kind == "PB") == list(range(n)), h


def test_pyramid_strategy_time_is_exact_at_the_price():
    for h in range(1, 5):
        spec = FamilySpec.pyramid(h)
        trace = run(spec, black_strategy(spec))
        fr = tradeoff_frontier(build_family(spec), "black", above_price=0)
        assert fr == ((trace.space, trace.time),), h


def test_move_bound_counts_removals(monkeypatch):
    """pyramid(1) emits 6 moves, the last three removals: a bound of 6
    admits them, a bound of 5 refuses them."""
    spec = FamilySpec.pyramid(1)
    monkeypatch.setattr(strategies, "MAX_MOVES", 6)
    assert [m.kind for m in black_strategy(spec)] == ["PB"] * 3 + ["RB"] * 3
    monkeypatch.setattr(strategies, "MAX_MOVES", 5)
    with pytest.raises(SizeBoundExceeded, match="^strategy has more than 5 moves$"):
        black_strategy(spec)


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
    for c, r in [(2, 1), (2, 2), (3, 1)]:
        g = build_family(FamilySpec.carlson_savage(c, r))
        assert cs_min_budget(c, r) == optimal_price(g, "black")


def test_cs_budget_too_small():
    with pytest.raises(BudgetTooSmall) as exc:
        cs_tradeoff_strategy(2, 1, 2)
    assert exc.value.minimum == 3


def test_no_strategy_for_unknown_family():
    with pytest.raises(UnsupportedFamily, match="^no strategy for family 'moebius'$"):
        black_strategy(FamilySpec("moebius", (2,)))


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


def test_cs_wider_instance_runs():
    spec = FamilySpec.carlson_savage(3, 1)
    trace = run(spec, black_strategy(spec))
    assert trace.space == cs_min_budget(3, 1)


def test_strategy_near_optimal_on_frontier():
    # quality guarantee frozen at factor 2 against the exact frontier
    from pebble_bench import tradeoff_frontier

    g = build_family(FamilySpec.carlson_savage(2, 1))
    fr = tradeoff_frontier(g, "black", space_cap=6)
    for s, t_opt in fr:
        trace = run(
            FamilySpec.carlson_savage(2, 1),
            cs_tradeoff_strategy(2, 1, s),
        )
        assert trace.time <= 2 * t_opt


# --- reference emitters ---------------------------------------------------------
#
# The emitters as they were before one depth-first pebbler served every
# strategy: a recursive pebbler that orders predecessors needier first, and a
# carlson_savage emitter with its own pyramid recursion over the pyramid's
# rows.  Bodies are unchanged apart from the names, and the layout they read
# is rebuilt with those rows by ``reference_layout``.


def reference_recursive_strategy(g):
    """Depth-first pebbling: build predecessors (needier first), place,
    discard supports.  Space is 2 on chains and h+2 on pyramids and trees."""

    @lru_cache(maxsize=None)
    def need(v: int) -> int:
        ps = g.preds[v]
        if not ps:
            return 1
        ordered = sorted(ps, key=lambda p: (-need(p), p))
        peak = len(ps) + 1
        for held, p in enumerate(ordered):
            peak = max(peak, held + need(p))
        return peak

    moves = []

    def pebble(v: int) -> None:
        ps = sorted(g.preds[v], key=lambda p: (-need(p), p))
        for p in ps:
            pebble(p)
        moves.append(Move("PB", v))
        for p in ps:
            moves.append(Move("RB", p))

    for t in g.targets:
        pebble(t)
        moves.append(Move("RB", t))
    return moves


def _reference_pyramid_space(level: int) -> int:
    return level + 2


def _reference_need(c: int, level: int) -> int:
    """Peak pebbles for one uncached spine-sink build at this level."""
    if level == 0:
        return 1
    below = _reference_need(c, level - 1)
    if c == 2:
        return max(_reference_pyramid_space(level), 1 + below, 3)
    return max(_reference_pyramid_space(level), 2 + below, 4)


def reference_cs_min_budget(c: int, r: int) -> int:
    """Smallest space budget the schedule generator accepts."""
    if r == 0:
        return 1
    return _reference_need(c, r)


def reference_layout(c, r):
    """carlson_savage_layout's layout, each level also carrying the rows of
    its pyramid (row 0 the sources, the last row the apex)."""
    _, layout = carlson_savage_layout(c, r)
    levels = []
    for k, lv in enumerate(layout.levels, start=1):
        first = lv.apex + 1 - (k + 1) * (k + 2) // 2
        rows = tuple(tuple(row) for row in _pyramid_rows(k, first)[0])
        level = SimpleNamespace(**dataclasses.asdict(lv))
        level.pyramid_rows = rows
        levels.append(level)
    return SimpleNamespace(base=layout.base, levels=tuple(levels))


class ReferenceCsEmitter:
    """Move emitter for carlson_savage(c, r) under a space budget."""

    def __init__(self, c: int, r: int, budget: int, layout):
        self.c = c
        self.r = r
        self.budget = budget
        self.layout = layout
        self.moves = []
        self.board = set()
        self.keep = set()

    def place(self, v: int) -> None:
        self.moves.append(Move("PB", v))
        self.board.add(v)
        if len(self.board) > self.budget:  # pragma: no cover - generator bug
            raise AssertionError(f"schedule exceeded budget at vertex {v}")

    def remove(self, v: int) -> None:
        self.moves.append(Move("RB", v))
        self.board.discard(v)

    def release(self, v: int) -> None:
        if v not in self.keep and v in self.board:
            self.remove(v)

    def pyramid(self, level: int) -> None:
        """Recursively pebble the level's pyramid apex (left support first)."""
        rows = self.layout.levels[level - 1].pyramid_rows
        slot = {v: (l, i) for l, row in enumerate(rows) for i, v in enumerate(row)}

        def pebble(v: int) -> None:
            l, i = slot[v]
            if l == 0:
                self.place(v)
                return
            left, right = rows[l - 1][i], rows[l - 1][i + 1]
            pebble(left)
            pebble(right)
            self.place(v)
            self.remove(left)
            self.remove(right)

        pebble(rows[-1][0])

    def ensure(self, v: int, level: int) -> None:
        """Get a pebble onto aux vertex v of the given level's spines."""
        if v in self.board:
            return
        lv = self.layout.levels[level - 1]
        if v == lv.apex:
            self.pyramid(level)
        elif level - 1 == 0:
            self.place(v)
        else:
            k = self.layout.levels[level - 2].sinks.index(v)
            self.walk(level - 1, k)

    def walk(self, level: int, i: int) -> None:
        """Pebble spine i of the level, leaving only its end vertex behind.

        The apex is held from its first use to its last within the spine;
        previous-level sinks are rebuilt per use unless cached.
        """
        lv = self.layout.levels[level - 1]
        aux, spine = lv.aux_seq, lv.spines[i]
        apex = lv.apex
        last_apex_pos = len(aux) - 2
        self.ensure(aux[0], level)
        self.ensure(aux[1], level)
        self.place(spine[0])
        if aux[1] != apex:
            self.release(aux[1])
        for j in range(1, len(spine)):
            a = aux[j + 1]
            self.ensure(a, level)
            self.place(spine[j])
            self.remove(spine[j - 1])
            if a != apex or j + 1 >= last_apex_pos:
                self.release(a)

    def run(self):
        c, r = self.c, self.r
        if r == 0:
            for t in self.layout.base:
                self.place(t)
                self.remove(t)
            return self.moves
        top = self.layout.levels[r - 1]
        extra = self.budget - reference_cs_min_budget(c, r)
        candidates = [(-(c - 1) * _pyramid_time(r), 0, top.apex)] + [
            (-(c - 1) * _walk_time(c, r - 1), k + 1, z)
            for k, z in enumerate(top.prev_sinks)
        ]
        candidates.sort()
        cached = [v for _, _, v in candidates[: min(extra, len(candidates))]]
        for v in cached:
            self.ensure(v, r)
            self.keep.add(v)
        for i in range(c):
            self.walk(r, i)
            sink = top.spines[i][-1]
            self.remove(sink)
        for v in cached:
            self.keep.discard(v)
            self.remove(v)
        return self.moves


def reference_cs_tradeoff_strategy(c: int, r: int, budget: int):
    """Budgeted complete black pebbling of carlson_savage(c, r).

    Raises BudgetTooSmall (carrying the minimum) below the schedule's
    minimum budget.  Time is non-increasing in the budget.
    """
    minimum = reference_cs_min_budget(c, r)
    if budget < minimum:
        raise BudgetTooSmall(budget, minimum)
    layout = reference_layout(c, r)
    return ReferenceCsEmitter(c, r, budget, layout).run()


def test_emitters_match_reference_move_for_move(monkeypatch):
    """337 strategies: chains and binary trees by default, and
    carlson_savage by default and at every budget from the minimum to the
    minimum + 2c + 2.  Pyramids are pebbled row by row, not depth-first as
    the reference does; carlson_savage's level pyramids still are.  Each is
    emitted under a move bound of its length, which one less refuses."""
    specs = [FamilySpec.chain(n) for n in range(1, 200)] + [
        FamilySpec.binary_tree(h) for h in range(1, 11)
    ]
    checked = 0
    for spec in specs:
        want = reference_recursive_strategy(build_family(spec))
        assert bounded_at_length(monkeypatch, lambda: black_strategy(spec), len(want)) == want, spec
        checked += 1
    for c in (2, 3, 4):
        for r in range(5 if c == 2 else 4):
            lo = reference_cs_min_budget(c, r)
            assert cs_min_budget(c, r) == lo
            spec = FamilySpec.carlson_savage(c, r)
            want = reference_cs_tradeoff_strategy(c, r, lo)
            assert bounded_at_length(monkeypatch, lambda: black_strategy(spec), len(want)) == want, spec
            checked += 1
            for budget in range(lo, lo + 2 * c + 3):
                want = reference_cs_tradeoff_strategy(c, r, budget)
                got = bounded_at_length(monkeypatch, lambda: cs_tradeoff_strategy(c, r, budget), len(want))
                assert got == want, (c, r, budget)
                checked += 1
    assert checked == 337


def test_cs_min_budget_matches_reference():
    for c in (2, 3, 5):
        for r in range(60):
            assert cs_min_budget(c, r) == reference_cs_min_budget(c, r)
