"""Compiling pebblings into resolution refutations, and reading blob
configurations back out of clause sets.

A black pebbling of G compiles into a refutation of the degree-d pebbling
contradiction: placing v turns into a ladder of resolution steps deriving
"v has some true variable" from the same clauses held for v's predecessors,
and removing v erases that clause.  A blob pebbling at d = 1 compiles
move-for-move (introduction = axiom download, merger = resolution, inflation
and erasure are bookkeeping), with subsumption tracked so inflated blobs
reuse the stronger clause.

``induce_configuration`` goes the other way: given live clauses it returns
every subconfiguration whose clause the set implies, keeping only precise
ones (no single black or white vertex can be dropped).  Implication is
decided exactly by a small DPLL oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blob import (
    BlobConfig,
    BlobSubconfig,
    BlobTrace,
    EraseMove,
    InflateMove,
    IntroduceMove,
    MergeMove,
    introduce,
    merge,
)
from .cnf import Clause, canon_clause, pebbling_contradiction, var_id
from .dag import Dag
from .errors import IllegalMove, SizeBoundExceeded, UnsupportedOperation
from .pebbling import PebblingTrace
from .resolution import (
    Axiom,
    Erase,
    Infer,
    ProofMetrics,
    ResolutionTrace,
    check_refutation,
    resolve,
)

__all__ = [
    "ImplicationOracle",
    "subconfig_clause",
    "compile_pebbling",
    "metrics_vs_cost",
    "induce_configuration",
    "BlobScriptBuilder",
    "explain_transition",
    "MAX_ORACLE_VARS",
]

MAX_ORACLE_VARS = 24


# ---------------------------------------------------------------------------
# Exact implication oracle
# ---------------------------------------------------------------------------


class ImplicationOracle:
    """Exact entailment checks for clause sets over at most 24 variables.

    ``implies(clause)`` decides CNF |= clause by refuting CNF plus the
    negated clause with a unit-propagating DPLL search.
    """

    def __init__(self, clauses, num_vars: int):
        if num_vars > MAX_ORACLE_VARS:
            raise SizeBoundExceeded(
                f"{num_vars} variables exceeds oracle bound {MAX_ORACLE_VARS}"
            )
        self.num_vars = num_vars
        self.clauses = tuple(tuple(cl) for cl in clauses)

    def implies(self, clause) -> bool:
        return not _dpll(list(self.clauses) + [(-l,) for l in clause])


def _dpll(clauses: list[tuple[int, ...]]) -> bool:
    assigned: set[int] = set()
    while True:
        unit = None
        simplified: list[tuple[int, ...]] = []
        for cl in clauses:
            if any(l in assigned for l in cl):
                continue
            reduced = tuple(l for l in cl if -l not in assigned)
            if not reduced:
                return False
            if len(reduced) == 1:
                unit = reduced[0]
            simplified.append(reduced)
        clauses = simplified
        if unit is None:
            break
        assigned.add(unit)
    if not clauses:
        return True
    branch = clauses[0][0]
    return _dpll(clauses + [(branch,)]) or _dpll(clauses + [(-branch,)])


# ---------------------------------------------------------------------------
# Subconfigurations as clauses
# ---------------------------------------------------------------------------


def subconfig_clause(s: BlobSubconfig, d: int = 1) -> Clause:
    """The clause stating: if every white variable is true, the blob has a
    true variable.  At d = 1 this is the familiar positive/negative split."""
    lits = [var_id(b, i, d) for b in s.blob for i in range(1, d + 1)]
    lits += [-var_id(w, j, d) for w in s.whites for j in range(1, d + 1)]
    return canon_clause(lits)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class _Emitter:
    def __init__(self):
        self.events: list = []
        self.next_id = 1

    def axiom(self, cl: Clause) -> int:
        self.events.append(Axiom(cl))
        cid = self.next_id
        self.next_id += 1
        return cid

    def infer(self, left: int, right: int, pivot: int, cl: Clause) -> int:
        self.events.append(Infer(left, right, pivot, cl))
        cid = self.next_id
        self.next_id += 1
        return cid

    def erase(self, cid: int) -> None:
        self.events.append(Erase(cid))


def compile_pebbling(g: Dag, d: int, trace, starred: bool = False) -> ResolutionTrace:
    """Translate a pebbling into a resolution trace over the degree-d
    pebbling contradiction of g.

    Accepts a black ``PebblingTrace`` (any d) or a ``BlobTrace`` (d = 1
    only).  By default the result refutes the full contradiction: the empty
    clause is derived as soon as the first target is pebbled and later moves
    are dropped.  With ``starred`` the result is a derivation over the
    variant without target axioms: it stops once every target's positive
    clause is derived and keeps those clauses live (skipping the erasures
    that mirror removing a target pebble).
    """
    if isinstance(trace, PebblingTrace):
        if trace.game != "black":
            raise UnsupportedOperation("only black traces compile to resolution")
        return _compile_black(g, d, trace, starred)
    if isinstance(trace, BlobTrace):
        if d != 1:
            raise UnsupportedOperation("blob traces compile only at d = 1")
        return _compile_blob(g, trace, starred)
    raise UnsupportedOperation(f"cannot compile {type(trace).__name__}")


def _all_clause(v: int, d: int) -> Clause:
    return canon_clause(var_id(v, i, d) for i in range(1, d + 1))


def _compile_black(g: Dag, d: int, trace: PebblingTrace, starred: bool) -> ResolutionTrace:
    em = _Emitter()
    held: dict[int, int] = {}
    targets = set(g.targets)
    derived: set[int] = set()
    done = False

    def ladder(v: int) -> int:
        """Derive the positive clause of v from its predecessors' clauses."""
        head = _all_clause(v, d)
        ps = g.preds[v]
        if len(ps) == 1:
            (u,) = ps
            cur_id, cur_cl = held[u], _all_clause(u, d)
            for j in range(1, d + 1):
                ax_cl = canon_clause((-var_id(u, j, d),) + head)
                ax_id = em.axiom(ax_cl)
                n_cl = resolve(cur_cl, ax_cl, var_id(u, j, d))
                n_id = em.infer(cur_id, ax_id, var_id(u, j, d), n_cl)
                em.erase(ax_id)
                if cur_id != held[u]:
                    em.erase(cur_id)
                cur_id, cur_cl = n_id, n_cl
            return cur_id
        u1, u2 = ps
        d_id, d_cl = held[u1], _all_clause(u1, d)
        for j1 in range(1, d + 1):
            # inner ladder removes u2's variables from the (j1, *) axioms
            cur_id, cur_cl = held[u2], _all_clause(u2, d)
            for j2 in range(1, d + 1):
                ax_cl = canon_clause(
                    (-var_id(u1, j1, d), -var_id(u2, j2, d)) + head
                )
                ax_id = em.axiom(ax_cl)
                n_cl = resolve(cur_cl, ax_cl, var_id(u2, j2, d))
                n_id = em.infer(cur_id, ax_id, var_id(u2, j2, d), n_cl)
                em.erase(ax_id)
                if cur_id != held[u2]:
                    em.erase(cur_id)
                cur_id, cur_cl = n_id, n_cl
            n_cl = resolve(d_cl, cur_cl, var_id(u1, j1, d))
            n_id = em.infer(d_id, cur_id, var_id(u1, j1, d), n_cl)
            em.erase(cur_id)
            if d_id != held[u1]:
                em.erase(d_id)
            d_id, d_cl = n_id, n_cl
        return d_id

    for mv in trace.moves:
        if done:
            break
        v = mv.v
        if mv.kind == "PB":
            held[v] = em.axiom(_all_clause(v, d)) if not g.preds[v] else ladder(v)
            if v in targets:
                if starred:
                    derived.add(v)
                    done = derived == targets
                else:
                    cur_id, cur_cl = held[v], _all_clause(v, d)
                    for i in range(1, d + 1):
                        ax_id = em.axiom((-var_id(v, i, d),))
                        n_cl = resolve(cur_cl, (-var_id(v, i, d),), var_id(v, i, d))
                        n_id = em.infer(cur_id, ax_id, var_id(v, i, d), n_cl)
                        em.erase(ax_id)
                        if cur_id != held[v]:
                            em.erase(cur_id)
                        cur_id, cur_cl = n_id, n_cl
                    done = True
        else:  # RB; validated black traces contain no white moves
            if starred and v in targets:
                held.pop(v)  # keep derived target clauses live
            else:
                em.erase(held.pop(v))
    return ResolutionTrace(tuple(em.events))


def _compile_blob(g: Dag, trace: BlobTrace, starred: bool) -> ResolutionTrace:
    em = _Emitter()
    clause_of: dict[int, Clause] = {}
    refs: dict[int, int] = {}
    bid_cid: dict[int, int] = {}
    bid_sub: dict[int, BlobSubconfig] = {}
    nbid = 0
    bottom: int | None = None

    def bind(bid: int, cid: int, s: BlobSubconfig):
        bid_cid[bid] = cid
        bid_sub[bid] = s
        refs[cid] = refs.get(cid, 0) + 1

    for mv in trace.moves:
        if bottom is not None:
            break
        if isinstance(mv, IntroduceMove):
            s = introduce(g, mv.v)
            cl = subconfig_clause(s)
            bind(nbid, em.axiom(cl), s)
            clause_of[bid_cid[nbid]] = cl
            nbid += 1
        elif isinstance(mv, MergeMove):
            s = merge(bid_sub[mv.i], bid_sub[mv.j], mv.pivot)
            c1id, c2id = bid_cid[mv.i], bid_cid[mv.j]
            c1, c2 = clause_of[c1id], clause_of[c2id]
            pv = var_id(mv.pivot, 1, 1)
            if pv not in c1:
                # the tracked clause already subsumes the merge result
                bind(nbid, c1id, s)
            elif -pv not in c2:
                bind(nbid, c2id, s)
            else:
                res = resolve(c1, c2, pv)
                cid = em.infer(c1id, c2id, pv, res)
                clause_of[cid] = res
                bind(nbid, cid, s)
                if res == ():
                    bottom = cid
            nbid += 1
        elif isinstance(mv, InflateMove):
            bind(nbid, bid_cid[mv.i], BlobSubconfig(mv.blob, mv.whites))
            nbid += 1
        elif isinstance(mv, EraseMove):
            cid = bid_cid.pop(mv.i)
            bid_sub.pop(mv.i)
            refs[cid] -= 1
            if refs[cid] == 0 and clause_of[cid] != ():
                em.erase(cid)

    if bottom is None and not starred:
        t = g.targets[0]
        want = BlobSubconfig(frozenset({t}))
        cid = next(bid_cid[b] for b, s in bid_sub.items() if s == want)
        cl = clause_of[cid]
        if cl != ():
            pv = var_id(t, 1, 1)
            ax_id = em.axiom((-pv,))
            em.infer(cid, ax_id, pv, ())
            em.erase(ax_id)
    return ResolutionTrace(tuple(em.events))


def metrics_vs_cost(g: Dag, d: int, trace) -> dict:
    """Compile, check, and report pebbling cost against refutation size.

    ``time`` is placements for a black trace and introductions + mergers for
    a blob trace; ``cost`` is space respectively max chargeable cost.
    """
    f = pebbling_contradiction(g, d)
    rtrace = compile_pebbling(g, d, trace)
    metrics: ProofMetrics = check_refutation(f, rtrace)
    if isinstance(trace, PebblingTrace):
        time, cost = trace.time, trace.space
        peb = {"time": time, "space": cost, "moves_total": trace.moves_total}
    else:
        time = sum(1 for m in trace.moves if isinstance(m, (IntroduceMove, MergeMove)))
        cost = trace.cost
        peb = {"time": time, "cost": cost, "moves_total": trace.moves_total}
    return {
        "pebbling": peb,
        "refutation": metrics.report(),
        "ratios": {
            "clause_space_over_cost": metrics.clause_space / cost,
            "length_over_time": metrics.length / time,
        },
    }


# ---------------------------------------------------------------------------
# Induced configurations
# ---------------------------------------------------------------------------


def induce_configuration(g: Dag, d: int, live_clauses) -> BlobConfig:
    """The blob configuration a clause set pins down.

    A subconfiguration is induced when the set implies its clause and the
    implication is precise: dropping any single blob or white vertex breaks
    it.  Exhaustive over all (blob, white) pairs, so meant for small graphs.
    """
    oracle = ImplicationOracle(tuple(live_clauses), d * g.n)
    if oracle.implies(()):
        # An unsatisfiable live set asserts nothing conditionally; it matches
        # the finished game, whose configuration is empty.
        return BlobConfig(frozenset())
    cache: dict[tuple[frozenset[int], frozenset[int]], bool] = {}

    def implied(b: frozenset[int], w: frozenset[int]) -> bool:
        key = (b, w)
        if key not in cache:
            cache[key] = oracle.implies(subconfig_clause(BlobSubconfig(b, w), d))
        return cache[key]

    out = []
    for b, w in _colourings(g.n):
        if not b or not implied(b, w):
            continue
        if any(implied(b - {v}, w) for v in b if len(b) > 1):
            continue
        if any(implied(b, w - {v}) for v in w):
            continue
        out.append(BlobSubconfig(b, w))
    return BlobConfig(frozenset(out))


def _colourings(n: int):
    """All (blob, whites) pairs of disjoint subsets of range(n)."""
    def rec(i: int, b: list[int], w: list[int]):
        if i == n:
            yield frozenset(b), frozenset(w)
            return
        yield from rec(i + 1, b, w)
        b.append(i)
        yield from rec(i + 1, b, w)
        b.pop()
        w.append(i)
        yield from rec(i + 1, b, w)
        w.pop()

    yield from rec(0, [], [])


# ---------------------------------------------------------------------------
# Explaining induced transitions as blob moves
# ---------------------------------------------------------------------------


class BlobScriptBuilder:
    """Accumulates an indexed blob move list while tracking live values."""

    def __init__(self, g: Dag):
        self.g = g
        self.moves: list = []
        self.ids: dict[BlobSubconfig, int] = {}
        self.next_id = 0

    def _add(self, s: BlobSubconfig) -> None:
        self.ids[s] = self.next_id
        self.next_id += 1

    def introduce(self, v: int) -> BlobSubconfig:
        s = introduce(self.g, v)
        if s not in self.ids:
            self.moves.append(IntroduceMove(v))
            self._add(s)
        return s

    def merge(self, s1: BlobSubconfig, s2: BlobSubconfig, pivot: int) -> BlobSubconfig:
        s = merge(s1, s2, pivot)
        if s not in self.ids:
            self.moves.append(MergeMove(self.ids[s1], self.ids[s2], pivot))
            self._add(s)
        return s

    def inflate(self, s: BlobSubconfig, target: BlobSubconfig) -> BlobSubconfig:
        if target not in self.ids:
            self.moves.append(InflateMove(self.ids[s], target.blob, target.whites))
            self._add(target)
        return target

    def erase(self, s: BlobSubconfig) -> None:
        self.moves.append(EraseMove(self.ids.pop(s)))

    def live(self) -> frozenset[BlobSubconfig]:
        return frozenset(self.ids)


def explain_transition(g: Dag, builder: BlobScriptBuilder, new: BlobConfig) -> None:
    """Extend the builder's script so its live set becomes exactly ``new``.

    Every added subconfiguration must be reachable from the current live set
    by introductions and mergers (scratch intermediates allowed, erased
    afterwards), or by a single inflation of something reachable.  Raises
    UnsupportedOperation when no explanation exists.
    """
    old = builder.live()
    additions = set(new.subs) - old

    # Closure of derivable subconfigurations with derivation parents.
    parent: dict[BlobSubconfig, tuple] = {s: ("live",) for s in old}
    for v in range(g.n):
        s = introduce(g, v)
        parent.setdefault(s, ("intro", v))
    frontier = list(parent)
    while frontier:
        nxt = []
        pool = list(parent)
        for s1 in pool:
            for s2 in frontier:
                for a, b in ((s1, s2), (s2, s1)):
                    for pivot in a.blob & b.whites:
                        try:
                            m = merge(a, b, pivot)
                        except IllegalMove:
                            continue
                        if m not in parent:
                            parent[m] = ("merge", a, b, pivot)
                            nxt.append(m)
        frontier = nxt

    def realize(s: BlobSubconfig) -> BlobSubconfig:
        if s in builder.ids:
            return s
        how = parent[s]
        if how[0] == "intro":
            return builder.introduce(how[1])
        _, a, b, pivot = how
        realize(a)
        realize(b)
        return builder.merge(a, b, pivot)

    for s in sorted(additions, key=str):
        if s in parent:
            realize(s)
            continue
        base = next(
            (
                c
                for c in sorted(parent, key=str)
                if c.blob <= s.blob and c.whites <= s.whites
            ),
            None,
        )
        if base is None:
            raise UnsupportedOperation(f"cannot explain induced subconfiguration {s}")
        realize(base)
        builder.inflate(base, s)

    for s in sorted(builder.live() - set(new.subs), key=str):
        builder.erase(s)
