"""Compiling pebblings into resolution refutations, and reading blob
configurations back out of clause sets.

A black pebbling of G compiles into a refutation of the degree-d pebbling
contradiction.  One recursive elimination step does all the work: placing v
resolves the positive clauses held for v's predecessors, one predecessor at
a time and for any fan-in, against v's propagation axioms to derive "v has
some true variable"; removing v erases that clause; and the same step
against a target's unit axioms derives the empty clause.  A blob pebbling at d = 1 compiles
move-for-move (introduction = axiom download, merger = resolution, inflation
and erasure are bookkeeping), with subsumption tracked so inflated blobs
reuse the stronger clause.

``induce_configuration`` goes the other way: given live clauses it returns
every subconfiguration whose clause the set implies, keeping only precise
ones (no single black or white vertex can be dropped).  Implication is
decided exactly by a small DPLL oracle.
"""

from __future__ import annotations

from itertools import count

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
from .cnf import (
    Clause,
    canon_clause,
    check_formula_size,
    pebbling_contradiction,
    var_id,
)
from .dag import Dag
from .errors import GraphError, IllegalMove, SizeBoundExceeded, UnsupportedOperation
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
    negated clause with a unit-propagating DPLL search on bitmasks: bit x
    stands for variable x, a clause is a ``(pos_mask, neg_mask)`` pair and
    an assignment a ``(true_mask, false_mask)`` pair.  The base clauses are
    converted to masks once, here.
    """

    def __init__(self, clauses, num_vars: int):
        if num_vars > MAX_ORACLE_VARS:
            raise SizeBoundExceeded(
                f"{num_vars} variables exceeds oracle bound {MAX_ORACLE_VARS}"
            )
        self.num_vars = num_vars
        masks = []
        for cl in clauses:
            pos, neg = _masks(cl)
            if not pos & neg:  # a tautology holds under every assignment
                masks.append((pos, neg))
        self.masks = tuple(masks)

    def implies(self, clause) -> bool:
        # The negated clause is the assignment making every literal false.
        false, true = _masks(clause)
        return self.refutes(true, false)

    def refutes(self, true: int, false: int) -> bool:
        """Whether no model makes the variables in ``true`` true and those
        in ``false`` false."""
        return bool(true & false) or not _satisfiable(self.masks, true, false)


def _masks(lits) -> tuple[int, int]:
    """The (positive, negative) variable masks of a literal collection."""
    pos = neg = 0
    for l in lits:
        if l > 0:
            pos |= 1 << l
        else:
            neg |= 1 << -l
    return pos, neg


def _satisfiable(clauses, true: int, false: int) -> bool:
    """Whether some extension of the assignment satisfies every
    ``(pos, neg)`` clause; no clause may hold a variable in both masks.

    Unit propagation runs to a fixpoint, dropping satisfied clauses and
    false literals; then the search branches on the lowest variable of the
    first open clause.
    """
    while True:
        open_clauses = []
        propagated = False
        for pos, neg in clauses:
            if pos & true or neg & false:
                continue
            pos &= ~false
            neg &= ~true
            lits = pos | neg
            if not lits:
                return False
            if lits & (lits - 1):
                open_clauses.append((pos, neg))
            else:  # a unit: make its literal true
                true |= pos
                false |= neg
                propagated = True
        clauses = open_clauses
        if not propagated:
            break
    if not clauses:
        return True
    pos, neg = clauses[0]
    lits = pos | neg
    x = lits & -lits
    return _satisfiable(clauses, true | x, false) or _satisfiable(clauses, true, false | x)


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
    """Appends trace events and owns the clause of every live id."""

    def __init__(self):
        self.events: list = []
        self.clauses: dict[int, Clause] = {}
        self.next_id = 1

    def _add(self, event, cl: Clause) -> int:
        self.events.append(event)
        cid = self.next_id
        self.next_id += 1
        self.clauses[cid] = cl
        return cid

    def axiom(self, cl: Clause) -> int:
        return self._add(Axiom(cl), cl)

    def infer(self, left: int, right: int, pivot: int) -> int:
        cl = resolve(self.clauses[left], self.clauses[right], pivot)
        return self._add(Infer(left, right, pivot, cl), cl)

    def erase(self, cid: int) -> None:
        self.events.append(Erase(cid))
        del self.clauses[cid]


def compile_pebbling(g: Dag, d: int, trace, starred: bool = False) -> ResolutionTrace:
    """Translate a pebbling into a resolution trace over the degree-d
    pebbling contradiction of g.

    Accepts a black ``PebblingTrace`` (any d >= 1, any fan-in) or a
    ``BlobTrace`` (d = 1 only).  By default the result refutes the full
    contradiction: the empty clause is derived as soon as the first target
    is pebbled and later moves are dropped.  With ``starred`` the result is
    a derivation over the variant without target axioms: it stops once every
    target's positive clause is derived and keeps those clauses live
    (skipping the erasures that mirror removing a target pebble).  Raises
    SizeBoundExceeded when that formula would exceed ``MAX_CLAUSES`` or
    ``MAX_LITERALS``.
    """
    if d < 1:
        raise GraphError("d must be >= 1")
    check_formula_size(g, d, starred)
    if isinstance(trace, PebblingTrace):
        if trace.game != "black":
            raise UnsupportedOperation("only black traces compile to resolution")
        return _compile_black(g, d, trace, starred)
    if isinstance(trace, BlobTrace):
        if d != 1:
            raise UnsupportedOperation("blob traces compile only at d = 1")
        return _compile_blob(g, trace, starred)
    raise UnsupportedOperation(f"cannot compile {type(trace).__name__}")


def _derive(em: _Emitter, held: dict[int, int], d: int, ps, head: Clause, negs=()) -> int:
    """The one elimination step: derive ``negs ∨ head`` and return its id.

    With ``ps`` empty that clause is an axiom.  Otherwise, for each variable
    x of u = ps[0], the clause ``negs ∨ ¬x ∨ head`` (derived recursively
    over ps[1:]) is resolved on x against the running clause, which starts
    as u's held positive clause; once all d variables are gone the running
    clause is ``negs ∨ head``.  Side clauses and intermediates that are not
    held are erased as soon as they are used.
    """
    if not ps:
        return em.axiom(canon_clause(negs + head))
    u, rest = ps[0], ps[1:]
    cur = held[u]
    for j in range(1, d + 1):
        x = var_id(u, j, d)
        side = _derive(em, held, d, rest, head, negs + (-x,))
        nxt = em.infer(cur, side, x)
        em.erase(side)
        if cur != held[u]:
            em.erase(cur)
        cur = nxt
    return cur


def _compile_black(g: Dag, d: int, trace: PebblingTrace, starred: bool) -> ResolutionTrace:
    em = _Emitter()
    held: dict[int, int] = {}
    targets = set(g.targets)
    derived: set[int] = set()
    for mv in trace.moves:
        v = mv.v
        if mv.kind == "PB":
            head = canon_clause(var_id(v, i, d) for i in range(1, d + 1))
            held[v] = _derive(em, held, d, g.preds[v], head)
            if v in targets:
                if not starred:
                    _derive(em, held, d, (v,), ())
                    break
                derived.add(v)
                if derived == targets:
                    break
        elif starred and v in targets:  # RB; validated black traces have no whites
            held.pop(v)  # keep derived target clauses live
        else:
            em.erase(held.pop(v))
    return ResolutionTrace(tuple(em.events))


def _compile_blob(g: Dag, trace: BlobTrace, starred: bool) -> ResolutionTrace:
    em = _Emitter()
    bound: dict[int, tuple[int, BlobSubconfig]] = {}  # blob id -> (clause id, sub)
    refs: dict[int, int] = {}
    bids = count()

    def bind(cid: int, s: BlobSubconfig):
        bound[next(bids)] = (cid, s)
        refs[cid] = refs.get(cid, 0) + 1

    for mv in trace.moves:
        if isinstance(mv, IntroduceMove):
            s = introduce(g, mv.v)
            bind(em.axiom(subconfig_clause(s)), s)
        elif isinstance(mv, MergeMove):
            (c1, s1), (c2, s2) = bound[mv.i], bound[mv.j]
            s = merge(s1, s2, mv.pivot)
            pv = var_id(mv.pivot, 1, 1)
            if pv not in em.clauses[c1]:
                # the tracked clause already subsumes the merge result
                bind(c1, s)
            elif -pv not in em.clauses[c2]:
                bind(c2, s)
            else:
                bind(em.infer(c1, c2, pv), s)
        elif isinstance(mv, InflateMove):
            bind(bound[mv.i][0], BlobSubconfig(mv.blob, mv.whites))
        elif isinstance(mv, EraseMove):
            cid, _ = bound.pop(mv.i)
            refs[cid] -= 1
            if refs[cid] == 0:
                em.erase(cid)

    if not starred:
        t = g.targets[0]
        want = BlobSubconfig(frozenset({t}))
        cid = next(c for c, s in bound.values() if s == want)
        _derive(em, {t: cid}, 1, (t,), ())
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
    oracle = ImplicationOracle(live_clauses, d * g.n)
    if oracle.implies(()):
        # An unsatisfiable live set asserts nothing conditionally; it matches
        # the finished game, whose configuration is empty.
        return BlobConfig(frozenset())
    own = [((1 << d) - 1) << (d * v + 1) for v in range(g.n)]  # v's variables

    def variables(m: int) -> int:
        return sum(own[x.bit_length() - 1] for x in _bits(m))

    cache: dict[tuple[int, int], bool] = {}

    def implied(b: int, w: int) -> bool:
        # [b]<w>'s clause is implied iff no model makes b's variables all
        # false and w's all true.
        key = (b, w)
        if key not in cache:
            cache[key] = oracle.refutes(variables(w), variables(b))
        return cache[key]

    out = []
    for b, w in _colourings(g.n):
        if not b or not implied(b, w):
            continue
        if b & (b - 1) and any(implied(b & ~x, w) for x in _bits(b)):
            continue
        if any(implied(b, w & ~x) for x in _bits(w)):
            continue
        out.append(BlobSubconfig(_vertices(b), _vertices(w)))
    return BlobConfig(frozenset(out))


def _colourings(n: int):
    """All (blob, whites) pairs of disjoint vertex masks below 1 << n."""
    full = (1 << n) - 1
    for b in range(1 << n):
        rest = full & ~b
        w = rest
        while True:
            yield b, w
            if not w:
                break
            w = (w - 1) & rest


def _bits(m: int):
    """The one-bit masks of m."""
    while m:
        x = m & -m
        yield x
        m ^= x


def _vertices(m: int) -> frozenset[int]:
    return frozenset(x.bit_length() - 1 for x in _bits(m))


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
