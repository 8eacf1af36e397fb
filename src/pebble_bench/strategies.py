"""Explicit pebbling strategies: depth-first pebblings of the standard
families and budgeted trade-off schedules for the recursive spine family.

Every strategy is emitted through one ``_Emitter``: one placement/removal
pair and one depth-first ``pebble(v)``.  ``black_strategy`` emits a
complete black pebbling whose space matches the family's standard bound.
``cs_tradeoff_strategy`` emits a pebbling of carlson_savage(c, r) under a
space budget: spare pebbles beyond the minimum are spent caching the most
expensive reusable vertices (the level pyramid apex and the previous
level's sinks), so time falls as the budget grows.
"""

from __future__ import annotations

from .dag import CsLayout, Dag, FamilySpec, build_family, carlson_savage_layout
from .errors import BudgetTooSmall, SizeBoundExceeded, UnsupportedFamily
from .pebbling import Move

__all__ = [
    "MAX_MOVES",
    "black_strategy",
    "cs_tradeoff_strategy",
    "cs_min_budget",
]

# Longest move list emitted: 128 times pyramid(9)'s 2,046 moves, the longest
# strategy any test or benchmark emits, and 8 times the 32,768 moves of
# chain(16,384).  Depth-first pebbling re-pebbles shared vertices, so the
# length grows exponentially in the height: pyramid(30) builds in
# milliseconds but would never finish emitting.
MAX_MOVES = 1 << 18


def black_strategy(spec: FamilySpec) -> list[Move]:
    """A complete black pebbling at the family's standard space bound.

    Chains, pyramids and binary trees are pebbled depth-first: space is 2
    on chains and h+2 on pyramids and trees.
    """
    if spec.kind in ("chain", "pyramid", "binary_tree"):
        g = build_family(spec)
        e = _Emitter(g, g.n)
        for t in g.targets:
            e.pebble(t)
            e.remove(t)
        return e.moves
    if spec.kind == "carlson_savage":
        c, r = spec.params
        return cs_tradeoff_strategy(c, r, cs_min_budget(c, r))
    raise UnsupportedFamily(f"no strategy for family {spec.kind!r}")


class _Emitter:
    """A move list under construction and the black pebbles on the board.

    Raises SizeBoundExceeded at a placement past move ``MAX_MOVES``, so an
    exponential emission stops early.
    """

    def __init__(self, g: Dag, budget: int):
        self.preds = g.preds
        self.budget = budget
        self.moves: list[Move] = []
        self.board: set[int] = set()

    def place(self, v: int) -> None:
        if len(self.moves) >= MAX_MOVES:
            raise SizeBoundExceeded(f"strategy has more than {MAX_MOVES} moves")
        self.moves.append(Move("PB", v))
        self.board.add(v)
        if len(self.board) > self.budget:  # pragma: no cover - generator bug
            raise AssertionError(f"schedule exceeded budget at vertex {v}")

    def remove(self, v: int) -> None:
        self.moves.append(Move("RB", v))
        self.board.discard(v)

    def pebble(self, v: int) -> None:
        """Pebble each predecessor of v in id order, place v, then remove
        the predecessors; a vertex shared by two predecessors is pebbled
        again for each.  The explicit stack (``~u`` marks u's placement)
        keeps a chain's length free of the recursion limit."""
        stack = [v]
        while stack:
            u = stack.pop()
            if u < 0:
                u = ~u
                self.place(u)
                for p in self.preds[u]:
                    self.remove(p)
            else:
                stack.append(~u)
                stack.extend(reversed(self.preds[u]))


# ---------------------------------------------------------------------------
# carlson_savage trade-off schedules
# ---------------------------------------------------------------------------


def cs_min_budget(c: int, r: int) -> int:
    """Smallest space budget the schedule generator accepts: the peak
    pebbles of one uncached spine-sink build at level r."""
    need = 1
    for level in range(1, r + 1):
        if c == 2:
            need = max(level + 2, 1 + need, 3)
        else:
            need = max(level + 2, 2 + need, 4)
    return need


def _pyramid_time(level: int) -> int:
    return 2 ** (level + 1) - 1


def _walk_time(c: int, level: int) -> int:
    """Placements for one uncached spine-sink build."""
    if level == 0:
        return 1
    return _pyramid_time(level) + c * _walk_time(c, level - 1) + 2 * c - 1


class _CsEmitter(_Emitter):
    """Move emitter for carlson_savage(c, r) under a space budget."""

    def __init__(self, g: Dag, layout: CsLayout, budget: int):
        super().__init__(g, budget)
        self.layout = layout
        self.keep: set[int] = set()

    def release(self, v: int) -> None:
        if v not in self.keep and v in self.board:
            self.remove(v)

    def ensure(self, v: int, level: int) -> None:
        """Get a pebble onto aux vertex v of the given level's spines.

        The level's pyramid apex and the level-1 base vertices are pebbled
        depth-first (pyramid vertices have predecessors only inside their
        pyramid); a previous level's sink is rebuilt by its spine walk.
        """
        if v in self.board:
            return
        if level == 1 or v == self.layout.levels[level - 1].apex:
            self.pebble(v)
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
        c, r = self.layout.c, self.layout.r
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
    g, layout = carlson_savage_layout(c, r)
    return _CsEmitter(g, layout, budget).run()
