"""Explicit pebbling strategies: pebblings of the standard families and
budgeted trade-off schedules for the recursive spine family.

Every strategy is emitted through one ``_Emitter``: one placement/removal
pair and one depth-first ``pebble(v)``.  ``black_strategy`` emits a
complete black pebbling whose space matches the family's standard bound:
chains and binary trees depth-first, pyramids row by row, each pyramid
vertex placed once.
``cs_tradeoff_strategy`` emits a pebbling of carlson_savage(c, r) under a
space budget: spare pebbles beyond the minimum are spent caching the most
expensive reusable vertices (the level pyramid apex and the previous
level's sinks), so time falls as the budget grows.
"""

from __future__ import annotations

from collections.abc import Callable

from .dag import CsLayout, Dag, FamilySpec, _pyramid_rows, build_family, carlson_savage_layout
from .errors import BudgetTooSmall, SizeBoundExceeded, UnsupportedFamily
from .pebbling import Move

__all__ = [
    "MAX_MOVES",
    "black_strategy",
    "cs_tradeoff_strategy",
    "cs_min_budget",
]

# Longest move list emitted: 8 times the 32,768 moves of chain(16,384), the
# longest chain the vertex bound admits, and above the 204,792 moves of
# carlson_savage(2,11).  A carlson_savage schedule rebuilds the levels below
# per use, so its length grows about 2.3 times per level: (2,12) passes the
# bound, and (2,30) builds in milliseconds but would never finish emitting.
MAX_MOVES = 1 << 18


def black_strategy(spec: FamilySpec) -> list[Move]:
    """A complete black pebbling at the family's standard space bound.

    Chains and binary trees are pebbled depth-first, pyramids row by row:
    space is 2 on chains and h+2 on pyramids and trees.
    """
    return _schedules(spec)[1](None)


def _schedules(spec: FamilySpec) -> tuple[Dag, Callable[[int | None], list[Move]]]:
    """The graph of ``spec``, built once, and a function from a budget to
    its black pebbling.  A carlson_savage graph is built with its layout,
    and its schedule is emitted under the budget: None is the minimum, and
    a budget below the minimum raises BudgetTooSmall.  Every other family
    has one pebbling, whatever the budget."""
    if spec.kind == "pyramid":
        g = build_family(spec)
        rows = _pyramid_rows(spec.params[0], 0)[0]

        def row_by_row(budget: int | None) -> list[Move]:
            """Place row 0; then, for each row, place each vertex and remove
            its left predecessor, and at the row's end remove the last
            vertex of the row below; last, remove the apex.

            Sound: when (l, i) is placed, (l-1, i) and (l-1, i+1) are on
            the board, as row l-1 was placed whole and only (l-1, 0) ..
            (l-1, i-1) were removed since.  Removing (l-1, i) then leaves
            none of its successors, (l, i-1) and (l, i), still to place, and
            the row's last vertex removes the last of the row below, whose
            one successor it is.  So each vertex is placed once, time n in
            2n moves.  While row l is placed the board holds the rest of
            row l-1 and the start of row l, h+3-l vertices after a
            placement, so the peak, h+2, is reached on row 1.
            """
            _bounded(g.n)
            e = _Emitter(g)
            for v in rows[0]:
                e.place(v)
            for below, row in zip(rows, rows[1:]):
                for left, v in zip(below, row):
                    e.place(v)
                    e.remove(left)
                e.remove(below[-1])
            e.remove(rows[-1][0])
            return e.moves

        return g, row_by_row
    if spec.kind in ("chain", "binary_tree"):
        g = build_family(spec)

        def depth_first(budget: int | None) -> list[Move]:
            _bounded(g.n)  # each vertex of a chain or an in-tree is placed once
            e = _Emitter(g)
            for t in g.targets:
                e.pebble(t)
                e.remove(t)
            return e.moves

        return g, depth_first
    if spec.kind != "carlson_savage":
        raise UnsupportedFamily(f"no strategy for family {spec.kind!r}")
    g, layout = carlson_savage_layout(*spec.params)
    minimum = cs_min_budget(*spec.params)

    def schedule(budget: int | None) -> list[Move]:
        budget = minimum if budget is None else budget
        if budget < minimum:
            raise BudgetTooSmall(budget, minimum)
        return _CsEmitter(g, layout, budget).run()

    return g, schedule


def _bounded(placements: int) -> None:
    """Refuse, before any move is emitted, a schedule of this many
    placements that has more than ``MAX_MOVES`` moves.  Every schedule ends
    with an empty board, each placement removed once, so it has twice as
    many moves as placements."""
    if 2 * placements > MAX_MOVES:
        raise SizeBoundExceeded(f"strategy has more than {MAX_MOVES} moves")


class _Emitter:
    """A move list under construction and the black pebbles on the board."""

    def __init__(self, g: Dag):
        self.preds = g.preds
        self.moves: list[Move] = []
        self.board: set[int] = set()

    def place(self, v: int) -> None:
        self.moves.append(Move("PB", v))
        self.board.add(v)

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
    pebbles of one uncached spine-sink build at level r.  It equals the
    black price at (2, 1), (2, 2) and (3, 1), but not everywhere: at (3, 2)
    it is 6 against a price of 5, so ``tradeoff-report`` leaves
    ``strategy_time`` blank at space 5."""
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
        super().__init__(g)
        self.budget = budget
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
            _bounded(c)
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
        chosen = candidates[: min(extra, len(candidates))]
        # Each of the c walks builds the apex and each previous sink once; a
        # cached one is built once for all c, which saves c - 1 builds: the
        # key's negation.
        _bounded(c * _walk_time(c, r) + sum(key for key, _, _ in chosen))
        cached = [v for _, _, v in chosen]
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
    return _schedules(FamilySpec.carlson_savage(c, r))[1](budget)
