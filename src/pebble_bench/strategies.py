"""Explicit pebbling strategies: optimal-space recursions and budgeted
trade-off schedules for the recursive spine family.

``black_strategy`` emits a complete black pebbling whose space matches the
family's standard bound.  ``cs_tradeoff_strategy`` emits a pebbling of
carlson_savage(c, r) under a space budget: spare pebbles beyond the minimum
are spent caching the most expensive reusable vertices (the level pyramid
apex and the previous level's sinks), so time falls as the budget grows.
"""

from __future__ import annotations

from functools import lru_cache

from .dag import CsLayout, Dag, FamilySpec, build_family, carlson_savage_layout
from .errors import BudgetTooSmall, UnsupportedFamily
from .pebbling import Move

__all__ = [
    "black_strategy",
    "cs_tradeoff_strategy",
    "cs_min_budget",
    "cs_predicted_time",
]


def black_strategy(spec: FamilySpec) -> list[Move]:
    """A complete black pebbling at the family's standard space bound."""
    if spec.kind in ("chain", "pyramid", "binary_tree"):
        g = build_family(spec)
        return _recursive_strategy(g)
    if spec.kind == "carlson_savage":
        c, r = spec.params
        return cs_tradeoff_strategy(c, r, cs_min_budget(c, r))
    raise UnsupportedFamily(f"no strategy for family {spec.kind!r}")


def _recursive_strategy(g: Dag) -> list[Move]:
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

    moves: list[Move] = []

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


# ---------------------------------------------------------------------------
# carlson_savage trade-off schedules
# ---------------------------------------------------------------------------


def _pyramid_space(level: int) -> int:
    return level + 2


def _need(c: int, level: int) -> int:
    """Peak pebbles for one uncached spine-sink build at this level."""
    if level == 0:
        return 1
    below = _need(c, level - 1)
    if c == 2:
        return max(_pyramid_space(level), 1 + below, 3)
    return max(_pyramid_space(level), 2 + below, 4)


def cs_min_budget(c: int, r: int) -> int:
    """Smallest space budget the schedule generator accepts."""
    if r == 0:
        return 1
    return _need(c, r)


def _pyramid_time(level: int) -> int:
    return 2 ** (level + 1) - 1


def _walk_time(c: int, level: int) -> int:
    """Placements for one uncached spine-sink build."""
    if level == 0:
        return 1
    return _pyramid_time(level) + c * _walk_time(c, level - 1) + 2 * c - 1


class _CsEmitter:
    """Move emitter for carlson_savage(c, r) under a space budget."""

    def __init__(self, c: int, r: int, budget: int, layout: CsLayout):
        self.c = c
        self.r = r
        self.budget = budget
        self.layout = layout
        self.moves: list[Move] = []
        self.board: set[int] = set()
        self.keep: set[int] = set()

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

    def run(self) -> list[Move]:
        c, r = self.c, self.r
        if r == 0:
            for t in self.layout.base:
                self.place(t)
                self.remove(t)
            return self.moves
        top = self.layout.levels[r - 1]
        extra = self.budget - cs_min_budget(c, r)
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


def cs_tradeoff_strategy(c: int, r: int, budget: int) -> list[Move]:
    """Budgeted complete black pebbling of carlson_savage(c, r).

    Raises BudgetTooSmall (carrying the minimum) below the schedule's
    minimum budget.  Time is non-increasing in the budget.
    """
    minimum = cs_min_budget(c, r)
    if budget < minimum:
        raise BudgetTooSmall(budget, minimum)
    _, layout = carlson_savage_layout(c, r)
    return _CsEmitter(c, r, budget, layout).run()


def cs_predicted_time(c: int, r: int, budget: int) -> int:
    """Placement count of the schedule at this budget (emits and counts)."""
    moves = cs_tradeoff_strategy(c, r, budget)
    return sum(1 for m in moves if m.is_placement)
