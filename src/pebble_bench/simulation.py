"""Compiling pebblings into resolution refutations, and reading blob
configurations back out of clause sets.

A black pebbling of G compiles into a refutation of the degree-d pebbling
contradiction.  One recursive elimination step does all the work: placing v
resolves the positive clauses held for v's predecessors, one predecessor at
a time and for any fan-in, against v's propagation axioms to derive "v has
some true variable"; removing v erases that clause; and the same step
against a target's unit axioms derives the empty clause.  Every clause of
that step is fixed by the placement that derives it, so each is written in
closed form, as a concatenation of variable blocks, and none is computed by
resolution (``_derive`` gives the argument).  A blob pebbling at d = 1 compiles
move-for-move (introduction = axiom download, merger = resolution, inflation
and erasure are bookkeeping), with subsumption tracked so inflated blobs
reuse the stronger clause; each of its clauses is that of a
subconfiguration, so none is computed by resolution either
(``_compile_blob``).  It replays the play on (blob, whites) mask pairs, as
the validator does, and writes each clause with ``_clause``, the one rule
``subconfig_clause`` also uses.  Both compilers yield their events:
``compile_pebbling`` keeps them, and the ``compile`` command writes each
as a line of text as it comes (``_events``).

``induce_configuration`` goes the other way: given live clauses it returns
every subconfiguration whose clause the set implies, keeping only precise
ones (no single black or white vertex can be dropped).  These are read off
the set's prime implicates, which resolution with subsumption computes on
(positive, negative) variable masks.  ``explain_transition`` turns one
induced configuration into the next with blob moves, searching what merges
on mask pairs derive from the live set, only as far as the additions need.
``replay_proof`` runs the two over a proof, inducing after every event, so
a compiled starred proof replays as a blob pebbling.
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
    _bits,
    _merge,
    _pair,
    _subconfig,
)
from .cnf import (
    Clause,
    check_formula_size,
    pebbling_contradiction,
    var_id,
)
from .dag import Dag
from .errors import SizeBoundExceeded, UnsupportedOperation, VerificationError
from .pebbling import PebblingTrace
from .resolution import (
    Axiom,
    Erase,
    Infer,
    ProofMetrics,
    ResolutionTrace,
    check_refutation,
)

__all__ = [
    "subconfig_clause",
    "compile_pebbling",
    "metrics_vs_cost",
    "induce_configuration",
    "BlobScriptBuilder",
    "explain_transition",
    "replay_proof",
    "MAX_IMPLICATES",
]

# induce_configuration saturates the live set by resolution, holding at most
# this many clauses.  An implication chain -x_i v x_{i+1} over k variables
# holds all k(k-1)/2 clauses -x_i v x_j: 32 variables hold 496 in 0.18 s, 45
# hold 990 in 1.0 s and 60 hold 1,770 in 4.3-5.0 s (Python 3.11, 2 cores),
# the time growing about 40-fold per doubling of k; 33 variables are refused
# after 0.09 s.  The starred replays of pyramid(7), binary_tree(5) and
# carlson_savage(2,3) hold at most 10, 8 and 7 clauses at d = 1, and 13, 11
# and 10 at d = 2.  The bound counts clauses held, not resolvents tried: a
# clause taken up is resolved against the held clauses taken up before it,
# but one taken up may later be dropped as subsumed, so a set whose
# resolvents are mostly subsumed could take up far more than it holds.  At
# these sizes holding is enough, as no replay drops much: one induction
# takes up at most 15 clauses and tries at most 91 pairs (pyramid(7),
# d = 2).
MAX_IMPLICATES = 500


# ---------------------------------------------------------------------------
# Subconfigurations as clauses
# ---------------------------------------------------------------------------


def subconfig_clause(s: BlobSubconfig) -> Clause:
    """The d = 1 clause stating: if every white variable is true, the blob
    has a true variable."""
    return _clause(*_pair(s))


def _clause(blob: int, whites: int) -> Clause:
    """The d = 1 clause of [blob]<whites>: x_v = v + 1 for a blob vertex v
    and -x_v for a white one, in vertex order.  The masks are disjoint, so
    each variable occurs once and the order is ``canon_clause``'s."""
    return tuple(x.bit_length() if blob & x else -x.bit_length() for x in _bits(blob | whites))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


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
    return ResolutionTrace(tuple(_events(g, d, trace, starred)))


def _events(g: Dag, d: int, trace, starred: bool):
    """``compile_pebbling``'s events, as a generator.  The checks run at the
    call, before the first event, so a refused compile writes nothing."""
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


def _derive(ids, held: dict[int, int], pos, ps, head: Clause, negs=()):
    """The one elimination step: derive ``negs ∨ head``, yielding each
    event, and return its id (read with ``yield from``).

    The clauses it derives take their ids from ``ids``.  With ``ps`` empty
    that clause is an axiom.  Otherwise, for each variable x of u = ps[0],
    the clause ``negs ∨ ¬x ∨ head`` (derived recursively over ps[1:]) is
    resolved on x against the running clause, which starts as u's held
    positive clause; once all d variables are gone the running clause is
    ``negs ∨ head``.  Side clauses and intermediates that are not held are
    erased as soon as they are used.

    Each clause is written from the step, not computed by resolution.
    The clause held for u is u's positive clause ``pos[u]``.  After u's
    first j variables are eliminated, the running clause is
    ``negs + pos[u][j:] + head``; the side clause on x is
    ``negs + (-x,) + head``, so x is positive in the one and negative in
    the other; and the last resolvent is ``negs + head``.  Here negs holds
    the negated variables of the predecessors before u, and head the
    variables of the vertex placed (none for a target's unit axioms).
    Predecessors are sorted, and each lies below the vertex placed, as
    ``Dag`` ids are topological, so the blocks come in ascending variable
    order.  Each variable occurs once, as the vertices are distinct.  So
    the clause is sorted by variable and has no complementary pair, which
    is the canonical resolvent ``resolve`` would return.  Events are built
    by ``tuple.__new__``, as ``parse_trace`` builds them.
    """
    new = tuple.__new__
    if not ps:
        yield new(Axiom, (negs + head,))
        return next(ids)
    u, rest = ps[0], ps[1:]
    cur = own = held[u]
    xs = pos[u]
    for j, x in enumerate(xs, 1):
        side = yield from _derive(ids, held, pos, rest, head, negs + (-x,))
        yield new(Infer, (cur, side, x, negs + xs[j:] + head))
        yield new(Erase, (side,))
        if cur != own:
            yield new(Erase, (cur,))
        cur = next(ids)
    return cur


def _compile_black(g: Dag, d: int, trace: PebblingTrace, starred: bool):
    ids = count(1)
    pos = [tuple(range(d * v + 1, d * v + d + 1)) for v in range(g.n)]
    held: dict[int, int] = {}
    targets = set(g.targets)
    derived: set[int] = set()
    for mv in trace.moves:
        v = mv.v
        if mv.kind == "PB":
            held[v] = yield from _derive(ids, held, pos, g.preds[v], pos[v])
            if v in targets:
                if not starred:
                    yield from _derive(ids, held, pos, (v,), ())
                    break
                derived.add(v)
                if derived == targets:
                    break
        elif starred and v in targets:  # RB; validated black traces have no whites
            held.pop(v)  # keep derived target clauses live
        else:
            yield tuple.__new__(Erase, (held.pop(v),))


def _compile_blob(g: Dag, trace: BlobTrace, starred: bool):
    """Each blob id is bound to its subconfiguration s, a clause id, and
    the subconfiguration t whose clause that id holds, each a (blob,
    whites) mask pair.  t is s or lies inside it, blob in blob and whites
    in whites, so its clause subsumes s's.  At d = 1 the clause of [B]<W>
    is x_b for b in B and -x_w for w in W (``_clause``).  A merge on p of
    t1 (p in its blob) and t2 (p white) resolves on x_p, and the resolvent
    is the clause of their merge, which is disjoint as t1 and t2 lie inside
    s1 and s2, whose merge the validated play made.  When p is not in t1's
    blob, or not white in t2, that operand's clause already subsumes the
    merge result and is reused.  So every clause is written from a
    subconfiguration, and none is computed by resolution."""
    ids = count(1)
    bound: dict[int, tuple[int, tuple, tuple]] = {}  # blob id -> (clause id, s, t)
    refs: dict[int, int] = {}
    bids = count()

    def bind(cid: int, s: tuple, t: tuple):
        bound[next(bids)] = (cid, s, t)
        refs[cid] = refs.get(cid, 0) + 1

    for mv in trace.moves:
        if isinstance(mv, IntroduceMove):
            s = 1 << mv.v, g.pred_mask[mv.v]
            yield Axiom(_clause(*s))
            bind(next(ids), s, s)
        elif isinstance(mv, MergeMove):
            (c1, s1, t1), (c2, s2, t2) = bound[mv.i], bound[mv.j]
            bit = 1 << mv.pivot
            s = _merge(s1, s2, bit)
            if not t1[0] & bit:
                bind(c1, s, t1)
            elif not t2[1] & bit:
                bind(c2, s, t2)
            else:
                t = _merge(t1, t2, bit)
                yield Infer(c1, c2, var_id(mv.pivot, 1, 1), _clause(*t))
                bind(next(ids), s, t)
        elif isinstance(mv, InflateMove):
            cid, _, t = bound[mv.i]
            bind(cid, _pair(mv), t)
        elif isinstance(mv, EraseMove):
            cid = bound.pop(mv.i)[0]
            refs[cid] -= 1
            if refs[cid] == 0:
                yield Erase(cid)

    if not starred:
        t = g.targets[0]
        cid = next(c for c, s, _ in bound.values() if s == (1 << t, 0))
        # the empty clause from [t]'s clause, (x_t), and the unit axiom (-x_t)
        pv = var_id(t, 1, 1)
        yield Axiom((-pv,))
        unit = next(ids)
        yield Infer(cid, unit, pv, ())
        yield Erase(unit)


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
    it.  The induced pairs are read off the set's prime implicates.

    Sound and complete: [B]<W>'s clause holds every variable of B positive
    and every variable of W negative, so it is implied iff some prime
    implicate lies inside it, that is iff the implicate's positive vertices
    lie in B and its negative vertices in W.  A projection whose two vertex
    sets overlap, or that names a vertex outside g, lies inside no such
    clause.  An all-negative implicate with whites W lies inside that of
    [{v}]<W> for each v of g outside W, and so inside that of every [B]<W'>
    with B nonempty and W inside W'.  The implied pairs are therefore
    upward closed under inclusion of blob and of whites, so a pair is
    precise iff it is minimal, and each minimal pair is one of these
    projections.  An unsatisfiable set has the empty clause as its one
    prime implicate and induces the empty configuration.
    """
    implicates = _prime_implicates(live_clauses)
    if (0, 0) in implicates:
        # An unsatisfiable live set asserts nothing conditionally; it matches
        # the finished game, whose configuration is empty.
        return BlobConfig(frozenset())
    full = (1 << g.n) - 1
    pairs = set()
    for pos, neg in implicates:
        b, w = _vertices(pos, d), _vertices(neg, d)
        if b & w or (b | w) & ~full:
            continue
        if b:
            pairs.add((b, w))
        else:
            pairs.update((x, w) for x in _bits(full & ~w))
    minimal: list[tuple[int, int]] = []
    for b, w in sorted(pairs, key=lambda s: (s[0] | s[1]).bit_count()):
        if not any(not (c & ~b or x & ~w) for c, x in minimal):
            minimal.append((b, w))
    return BlobConfig(frozenset(map(_subconfig, minimal)))


def _vertices(lits: int, d: int) -> int:
    """The vertex mask of a variable mask: variable x belongs to vertex
    (x - 1) // d."""
    m = 0
    for x in _bits(lits):
        m |= 1 << (x.bit_length() - 2) // d
    return m


def _prime_implicates(clauses) -> dict[tuple[int, int], None]:
    """The prime implicates of a clause set, each a (positive, negative)
    variable mask pair: bit x stands for variable x.

    Saturation by resolution with subsumption.  A clause is held unless it
    is a tautology or a held clause subsumes it, and holding it drops the
    held clauses it subsumes.  Each held clause, taken up in turn, is
    resolved against every clause taken up before it; two clauses resolve
    when exactly one variable clashes, as a second clash makes the
    resolvent a tautology.  At the fixpoint no held clause subsumes another
    and every resolvent of two held clauses is subsumed by a held one, so
    the held clauses are exactly the prime implicates (Quine's consensus
    theorem).  Raises SizeBoundExceeded once more than ``MAX_IMPLICATES``
    clauses are held.
    """
    found = []
    for cl in clauses:
        pos = neg = 0
        for lit in cl:
            if lit > 0:
                pos |= 1 << lit
            else:
                neg |= 1 << -lit
        found.append((pos, neg))
    done: dict[tuple[int, int], None] = {}  # taken up
    waiting: dict[tuple[int, int], None] = {}  # held, not yet taken up
    while True:
        for pos, neg in found:
            if pos & neg or any(not (p & ~pos or n & ~neg) for held in (done, waiting) for p, n in held):
                continue
            for held in (done, waiting):
                for c in [c for c in held if not (pos & ~c[0] or neg & ~c[1])]:
                    del held[c]
            waiting[pos, neg] = None
            if len(done) + len(waiting) > MAX_IMPLICATES:
                raise SizeBoundExceeded(f"more than {MAX_IMPLICATES} implicates held")
        if not waiting:
            return done
        pos, neg = c = next(iter(waiting))
        del waiting[c]
        found = []
        for p, n in done:
            clash = pos & n | neg & p
            if clash and not clash & (clash - 1):
                found.append(((pos | p) & ~clash, (neg | n) & ~clash))
        done[c] = None


# ---------------------------------------------------------------------------
# Explaining induced transitions as blob moves
# ---------------------------------------------------------------------------


class BlobScriptBuilder:
    """Accumulates an indexed blob move list while tracking live values.

    ``ids`` maps each live subconfiguration, a (blob, whites) mask pair, to
    its id.
    """

    def __init__(self, g: Dag):
        self.g = g
        self.moves: list = []
        self.ids: dict[tuple[int, int], int] = {}
        self.next_id = 0

    def _add(self, s: tuple[int, int], move) -> None:
        """Append ``move``, which creates s, and give s the next id."""
        self.moves.append(move)
        self.ids[s] = self.next_id
        self.next_id += 1


def _realize(builder: BlobScriptBuilder, parent: dict, s: tuple[int, int]) -> None:
    """Make the (blob, whites) pair ``s`` live in the builder's script: by
    an introduction, or by the merge ``parent[s]`` records once both its
    operands are live.  A module-level function: a nested function that
    called itself would refer to itself through its closure, a cycle that
    keeps the closure table alive until the collector runs."""
    if s in builder.ids:
        return
    if not parent[s]:
        builder._add(s, IntroduceMove(s[0].bit_length() - 1))
        return
    a, b, bit = parent[s]
    _realize(builder, parent, a)
    _realize(builder, parent, b)
    builder._add(s, MergeMove(builder.ids[a], builder.ids[b], bit.bit_length() - 1))


def explain_transition(g: Dag, builder: BlobScriptBuilder, new: BlobConfig) -> None:
    """Extend the builder's script so its live set becomes exactly ``new``.

    Every added subconfiguration must be reachable from the current live set
    by introductions and mergers (scratch intermediates allowed, erased
    afterwards), or by a single inflation of something reachable.  Raises
    UnsupportedOperation, before any move, when no explanation exists, as
    for a vertex outside the graph.

    The closure of what merges derive is built on (blob, whites) mask
    pairs with ``blob._merge``.  It grows from the live set in creation
    order, the order of ``builder.ids``, then the introductions in vertex
    order.  Additions, the candidates for an inflation's source and
    erasures are taken in the text order of ``BlobSubconfig``.  So the
    moves depend on ids and text alone, not on hash-table layout.

    The closure grows a layer at a time and stops after the layer in which
    the last addition not yet in it is found.  A pair's derivation is fixed
    when the pair is first found, so the moves are those the full closure
    gives.  If an addition is not derivable, the inflation picks its source
    from the whole closure, which then saturates.
    """
    ids = builder.ids
    inside = range(g.n)
    want = {s: _pair(s) for s in new.subs if all(v in inside for v in s.blob | s.whites)}

    # Closure of derivable subconfigurations, each with the operands and
    # pivot bit of its merge, or () if live or an introduction.  The first
    # derivation found is the one played, so the order the closure grows in,
    # from the live set in creation order, decides the moves.  It grows
    # until every pair to add is in it (None, for a vertex outside the
    # graph, never is), or until it saturates.
    need = {want.get(s) for s in new.subs} - ids.keys()
    parent: dict[tuple[int, int], tuple] = dict.fromkeys(ids, ())
    for v in inside:
        parent.setdefault((1 << v, g.pred_mask[v]), ())
    frontier = list(parent)
    while frontier and not need <= parent.keys():
        nxt = []
        for s1 in list(parent):
            for s2 in frontier:
                for a, b in ((s1, s2), (s2, s1)):
                    for bit in _bits(a[0] & b[1]):
                        m = _merge(a, b, bit)
                        if not m[0] & m[1] and m not in parent:
                            parent[m] = a, b, bit
                            nxt.append(m)
        frontier = nxt

    def text(s: tuple[int, int]) -> str:
        return str(_subconfig(s))

    # Every addition is decided before the first move: a refusal writes nothing.
    order = None  # the closure in text order, sorted for the first inflation
    plan = []
    for s in sorted((s for s in new.subs if want.get(s) not in ids), key=str):
        pair = base = want.get(s)
        if pair not in parent:
            order = order or sorted(parent, key=text)
            # pair is None for a subconfiguration with a vertex outside the graph
            base = pair and next((c for c in order if not (c[0] & ~pair[0] or c[1] & ~pair[1])), None)
            if base is None:
                raise UnsupportedOperation(f"cannot explain induced subconfiguration {s}")
        plan.append((s, pair, base))
    for s, pair, base in plan:
        _realize(builder, parent, base)
        if base != pair:
            builder._add(pair, InflateMove(ids[base], s.blob, s.whites))

    for s in sorted(ids.keys() - want.values(), key=text):
        builder.moves.append(EraseMove(ids.pop(s)))


# ---------------------------------------------------------------------------
# Replaying a proof as a blob pebbling
# ---------------------------------------------------------------------------


def _live_sets(events):
    """The live clauses after each event, as a new list each time.

    Axioms and inferences take ids 1, 2, ... in order, as in the trace
    format, and an erase deletes its id.  Raises VerificationError, with
    the event's index, for an erase of an id that is not live.
    """
    live: dict[int, Clause] = {}
    ids = count(1)
    for idx, ev in enumerate(events):
        if isinstance(ev, Erase):
            if ev.id not in live:
                raise VerificationError(f"erased id {ev.id} not live", index=idx)
            del live[ev.id]
        else:
            live[next(ids)] = ev.clause
        yield list(live.values())


def replay_proof(g: Dag, d: int, events) -> BlobScriptBuilder:
    """Replay a proof over the degree-d contradiction of g as blob moves.

    After every event the live clauses induce a configuration
    (``induce_configuration``), and ``explain_transition`` extends the
    script from the last one to it.  Returns the builder, whose ``moves``
    are the play.  The starred proofs that ``compile_pebbling`` makes of
    ``black_strategy`` replay, at d = 1 and d = 2, as plays that
    ``validate_blob_pebbling`` accepts and that end with each target's
    blob [t]<>.  Raises VerificationError for an erase of an id that is
    not live, and whatever induce and explain raise.
    """
    builder = BlobScriptBuilder(g)
    for clauses in _live_sets(events):
        explain_transition(g, builder, induce_configuration(g, d, clauses))
    return builder
