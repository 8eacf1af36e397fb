"""Tests for pebbling-to-resolution compilation and configuration induction."""

import gc
import random
from collections import Counter
from itertools import count

import pytest

from pebble_bench import (
    BadInflation,
    BlobConfig,
    BlobScriptBuilder,
    BlobSubconfig,
    Dag,
    FamilySpec,
    IllegalMove,
    Move,
    ResolutionTrace,
    SizeBoundExceeded,
    UnsupportedOperation,
    VerificationError,
    build_family,
    check_refutation,
    compile_pebbling,
    explain_transition,
    format_blob_moves,
    induce_configuration,
    metrics_vs_cost,
    parse_blob_moves,
    parse_moves,
    pebbling_contradiction,
    replay_proof,
    sub,
    validate_blob_pebbling,
    validate_pebbling,
)
from pebble_bench.blob import EraseMove, InflateMove, IntroduceMove, MergeMove
from pebble_bench.cnf import Clause, canon_clause, var_id
from pebble_bench.resolution import Axiom, Erase, Infer, format_trace, resolve
from pebble_bench.simulation import _live_sets, _prime_implicates, subconfig_clause
from pebble_bench.strategies import black_strategy
from test_blob import reference_introduce, reference_merge, refusal

SEED = 4242


def black_trace(spec):
    g = build_family(spec)
    return g, validate_pebbling(g, black_strategy(spec), game="black")


ALL_SPECS = [
    FamilySpec.chain(1),
    FamilySpec.chain(4),
    FamilySpec.pyramid(1),
    FamilySpec.pyramid(2),
    FamilySpec.binary_tree(2),
    FamilySpec.carlson_savage(2, 1),
]


def test_compiled_refutations_check_out():
    for spec in ALL_SPECS:
        g, trace = black_trace(spec)
        for d in (1, 2, 3):
            f = pebbling_contradiction(g, d)
            rtrace = compile_pebbling(g, d, trace)
            metrics = check_refutation(f, rtrace)
            assert metrics.length >= 1


def test_edge_graph_compile_golden():
    g = Dag(2, [(0, 1)], targets=[1])
    trace = validate_pebbling(g, parse_moves("PB 0\nPB 1\nRB 0\nRB 1"), game="black")
    rtrace = compile_pebbling(g, 1, trace)
    f = pebbling_contradiction(g, 1)
    metrics = check_refutation(f, rtrace)
    assert metrics.length == 5
    assert metrics.width == 2


PYRAMID1_D2 = """\
a 1 2 0
a 3 4 0
a -1 -3 5 6 0
r 2 3 3 -1 4 5 6 0
e 3
a -1 -4 5 6 0
r 4 5 4 -1 5 6 0
e 5
e 4
r 1 6 1 2 5 6 0
e 6
a -2 -3 5 6 0
r 2 8 3 -2 4 5 6 0
e 8
a -2 -4 5 6 0
r 9 10 4 -2 5 6 0
e 10
e 9
r 7 11 2 5 6 0
e 11
e 7
"""


def test_pyramid1_compile_golden():
    # pins the event order of the nested two-predecessor ladder; the
    # refutation then resolves the apex clause against its unit axioms
    g, trace = black_trace(FamilySpec.pyramid(1))
    refutation = "a -5 0\nr 12 13 5 6 0\ne 13\na -6 0\nr 14 15 6 0\ne 15\ne 14\n"
    assert format_trace(compile_pebbling(g, 2, trace)) == PYRAMID1_D2 + refutation
    assert format_trace(compile_pebbling(g, 2, trace, starred=True)) == PYRAMID1_D2


def _random_dag(rng, n, max_fanin):
    edges = []
    for v in range(1, n):
        edges += [(u, v) for u in rng.sample(range(v), rng.randint(0, min(max_fanin, v)))]
    return Dag(n, edges)


def _topological_pebbling(g):
    """Place in vertex order, removing each vertex once its last successor
    is placed; targets stay until the end."""
    last_use = {u: v for v in range(g.n) for u in g.preds[v]}
    moves, removed = [], set()
    for v in range(g.n):
        moves.append(Move("PB", v))
        for u in g.preds[v]:
            if last_use[u] == v and u not in g.targets:
                moves.append(Move("RB", u))
                removed.add(u)
    return moves + [Move("RB", v) for v in range(g.n) if v not in removed]


def test_random_dags_any_fanin_compile_and_check():
    rng = random.Random(SEED)
    fanins = set()
    for _ in range(40):
        g = _random_dag(rng, rng.randint(1, 8), 3)
        fanins.update(len(p) for p in g.preds)
        trace = validate_pebbling(g, _topological_pebbling(g), game="black")
        for d in (1, 2, 3):
            check_refutation(pebbling_contradiction(g, d), compile_pebbling(g, d, trace))
            starred = compile_pebbling(g, d, trace, starred=True)
            # every step checks; only the empty clause is missing
            with pytest.raises(VerificationError, match="lacks the empty clause"):
                check_refutation(pebbling_contradiction(g, d, starred=True), starred)
            *_, live = _live_sets(starred.events)
            for t in g.targets:
                assert tuple(range(d * t + 1, d * t + d + 1)) in live
    assert fanins == {0, 1, 2, 3}


def test_compile_starred_keeps_target_clauses():
    g, trace = black_trace(FamilySpec.pyramid(2))
    f = pebbling_contradiction(g, 1, starred=True)
    rtrace = compile_pebbling(g, 1, trace, starred=True)
    assert all(ev.clause in f.clauses for ev in rtrace.events if isinstance(ev, Axiom))
    # the final live set must contain the target's positive clause
    *_, live = _live_sets(rtrace.events)
    target_clause = (6,)  # All_1 of the apex, variables are vertex+1 at d=1
    assert target_clause in live
    assert () not in live


def test_compile_starred_keeps_a_target_removed_early():
    # target 1 is pebbled and removed before target 2 is derived: its clause
    # (3, 4) must not be erased, and no axiom outside the starred formula
    # is used
    g = Dag(3, [(0, 2)], targets=[1, 2])
    trace = validate_pebbling(g, parse_moves("PB 1\nRB 1\nPB 0\nPB 2\nRB 0\nRB 2"), game="black")
    rtrace = compile_pebbling(g, 2, trace, starred=True)
    assert rtrace.events == (
        Axiom((3, 4)),
        Axiom((1, 2)),
        Axiom((-1, 5, 6)),
        Infer(2, 3, 1, (2, 5, 6)),
        Erase(3),
        Axiom((-2, 5, 6)),
        Infer(4, 5, 2, (5, 6)),
        Erase(5),
        Erase(4),
    )
    f = pebbling_contradiction(g, 2, starred=True)
    assert {ev.clause for ev in rtrace.events if isinstance(ev, Axiom)} <= set(f.clauses)


def test_compile_space_tracks_pebbling_space():
    for spec in [FamilySpec.chain(4), FamilySpec.pyramid(2)]:
        g, trace = black_trace(spec)
        report = metrics_vs_cost(g, 1, trace)
        assert report["pebbling"]["space"] == trace.space
        assert report["refutation"]["clause_space"] >= trace.space
        assert report["ratios"]["clause_space_over_cost"] >= 1.0
        assert report["ratios"]["length_over_time"] >= 1.0


# --- the closed-form black compiler against the resolving one -----------------
# The black compiler as it was when it computed every clause by resolution,
# kept as the reference: the compiler that writes each clause from its
# derivation step must give the same events, so the same trace bytes.


class _RefEmitter:
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


def _ref_derive(em: _RefEmitter, held: dict[int, int], d: int, ps, head: Clause, negs=()) -> int:
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
        side = _ref_derive(em, held, d, rest, head, negs + (-x,))
        nxt = em.infer(cur, side, x)
        em.erase(side)
        if cur != held[u]:
            em.erase(cur)
        cur = nxt
    return cur


def reference_compile(g: Dag, d: int, trace, starred: bool = False) -> ResolutionTrace:
    em = _RefEmitter()
    held: dict[int, int] = {}
    targets = set(g.targets)
    derived: set[int] = set()
    for mv in trace.moves:
        v = mv.v
        if mv.kind == "PB":
            head = canon_clause(var_id(v, i, d) for i in range(1, d + 1))
            held[v] = _ref_derive(em, held, d, g.preds[v], head)
            if v in targets:
                if not starred:
                    _ref_derive(em, held, d, (v,), ())
                    break
                derived.add(v)
                if derived == targets:
                    break
        elif starred and v in targets:  # RB; validated black traces have no whites
            held.pop(v)  # keep derived target clauses live
        else:
            em.erase(held.pop(v))
    return ResolutionTrace(tuple(em.events))


def _repebbling(g):
    """Place every vertex in order, first placing again each predecessor
    that is off the board, and remove each predecessor that is no target
    once the placement that needed it is made: a vertex that feeds two
    others is removed and placed again."""
    on, pins, moves = set(), Counter(), []

    def place(v):
        for u in g.preds[v]:
            if u not in on:
                place(u)
            pins[u] += 1  # u stays on until v is placed
        moves.append(Move("PB", v))
        on.add(v)
        for u in g.preds[v]:
            pins[u] -= 1
        for u in g.preds[v]:
            if u in on and not pins[u] and u not in g.targets:
                moves.append(Move("RB", u))
                on.discard(u)

    for v in range(g.n):
        if v not in on:
            place(v)
    return moves + [Move("RB", v) for v in sorted(on)]


def assert_compiles_as_reference(g, trace, ds=(1, 2, 3)):
    for d in ds:
        for starred in (False, True):
            got = compile_pebbling(g, d, trace, starred=starred)
            assert format_trace(got) == format_trace(reference_compile(g, d, trace, starred)), (g, d, starred)
            f = pebbling_contradiction(g, d, starred=starred)
            if starred:
                with pytest.raises(VerificationError, match="lacks the empty clause"):
                    check_refutation(f, got)
            else:
                check_refutation(f, got)


def test_compile_matches_reference_on_families():
    specs = ALL_SPECS + [FamilySpec.pyramid(3), FamilySpec.binary_tree(3), FamilySpec.carlson_savage(2, 2)]
    for spec in specs:
        assert_compiles_as_reference(*black_trace(spec))


def test_compile_matches_reference_on_random_dags():
    """The 40 DAGs of the any-fan-in test, under a pebbling that places
    vertices again."""
    rng = random.Random(SEED)
    replaced = 0
    for g in [_random_dag(rng, rng.randint(1, 8), 3) for _ in range(40)]:
        moves = _repebbling(g)
        replaced += len(moves) > 2 * g.n
        assert_compiles_as_reference(g, validate_pebbling(g, moves, game="black"))
    assert replaced >= 10


def test_compile_leaves_no_cyclic_garbage():
    """The compiler's events are freed by reference counting alone: no
    reference cycle holds the event list until the collector runs."""
    g, trace = black_trace(FamilySpec.pyramid(4))
    gc.collect()
    gc.disable()
    try:
        for starred in (False, True):
            compile_pebbling(g, 2, trace, starred=starred)
            assert gc.collect() == 0, starred
    finally:
        gc.enable()


def test_compile_rejects_bw_trace():
    g = Dag(2, [(0, 1)], targets=[1])
    trace = validate_pebbling(g, parse_moves("PW 1\nPB 0\nRW 1\nRB 0"), game="bw")
    with pytest.raises(UnsupportedOperation):
        compile_pebbling(g, 1, trace)


def test_blob_compile_needs_d1():
    g = Dag(2, [(0, 1)], targets=[1])
    btrace = validate_blob_pebbling(g, parse_blob_moves("I 1\nI 0\nM 1 0 0\nE 0\nE 1"))
    with pytest.raises(UnsupportedOperation):
        compile_pebbling(g, 2, btrace)


def test_blob_compile_checks_out():
    g = Dag(2, [(0, 1)], targets=[1])
    btrace = validate_blob_pebbling(g, parse_blob_moves("I 1\nI 0\nM 1 0 0\nE 0\nE 1"))
    f = pebbling_contradiction(g, 1)
    rtrace = compile_pebbling(g, 1, btrace)
    metrics = check_refutation(f, rtrace)
    assert metrics.length == 5


def test_blob_compile_chain3():
    g = build_family(FamilySpec.chain(3))
    moves = parse_blob_moves("I 1\nI 2\nI 0\nM 2 0 0\nE 0\nE 2\nM 3 1 1\nE 1\nE 3")
    btrace = validate_blob_pebbling(g, moves)
    f = pebbling_contradiction(g, 1)
    metrics = check_refutation(f, compile_pebbling(g, 1, btrace))
    assert metrics.length >= 5


def test_blob_compile_with_inflation():
    # fatten [3]<2> downward to [1,3]<2>, then discharge the fat blob by
    # resolving against subconfigurations built up from the sources; the
    # inflated clause is implied by its origin, so the compiler reuses it
    g = build_family(FamilySpec.chain(4))
    moves = parse_blob_moves(
        "I 3\nF 0 1,3|2\nE 0\n"
        "I 1\nI 0\nM 3 2 0\nE 2\nE 3\n"
        "I 2\nM 4 5 1\nE 4\nE 5\n"
        "M 6 1 2\nE 1\nE 6\n"
        "I 2\nM 7 8 1\nE 7\nE 8\n"
        "I 3\nM 9 10 2\nE 9\nE 10"
    )
    btrace = validate_blob_pebbling(g, moves)
    f = pebbling_contradiction(g, 1)
    check_refutation(f, compile_pebbling(g, 1, btrace))


def test_blob_compile_merge_subsumed_by_second_clause():
    # [1]<0> is an inflation of [1]<>, so its clause is the unit (2): the
    # merge M 4 3 0 reuses it instead of resolving on vertex 0
    g = build_family(FamilySpec.chain(3))
    moves = parse_blob_moves("I 0\nI 1\nM 0 1 0\nE 1\nF 2 1|0\nE 2\nE 0\nI 0\nM 4 3 0\nI 2\nM 5 6 1")
    rtrace = compile_pebbling(g, 1, validate_blob_pebbling(g, moves))
    assert format_trace(rtrace) == (
        "a 1 0\na -1 2 0\nr 1 2 1 2 0\ne 2\ne 1\na 1 0\na -2 3 0\nr 3 5 2 3 0\na -3 0\nr 6 7 3 0\ne 7\n"
    )
    metrics = check_refutation(pebbling_contradiction(g, 1), rtrace)
    assert metrics.report() == {"length": 8, "width": 2, "clause_space": 6}


# --- the closed-form blob compiler against the resolving one ------------------
# The blob compiler as it was when it computed every merge's clause by
# resolution on _RefEmitter, kept as the reference: the compiler that writes
# each clause from a subconfiguration must give the same trace bytes.  It
# replays BlobSubconfig objects through the copies of introduce and merge in
# test_blob, and writes axioms with subconfig_clause as it was for any d.


def reference_subconfig_clause(s: BlobSubconfig, d: int = 1) -> Clause:
    """The clause stating: if every white variable is true, the blob has a
    true variable.  At d = 1 this is the familiar positive/negative split."""
    lits = [var_id(b, i, d) for b in s.blob for i in range(1, d + 1)]
    lits += [-var_id(w, j, d) for w in s.whites for j in range(1, d + 1)]
    return canon_clause(lits)


def reference_compile_blob(g: Dag, trace, starred: bool = False) -> ResolutionTrace:
    em = _RefEmitter()
    bound: dict[int, tuple[int, BlobSubconfig]] = {}  # blob id -> (clause id, sub)
    refs: dict[int, int] = {}
    bids = count()

    def bind(cid: int, s: BlobSubconfig):
        bound[next(bids)] = (cid, s)
        refs[cid] = refs.get(cid, 0) + 1

    for mv in trace.moves:
        if isinstance(mv, IntroduceMove):
            s = reference_introduce(g, mv.v)
            bind(em.axiom(reference_subconfig_clause(s)), s)
        elif isinstance(mv, MergeMove):
            (c1, s1), (c2, s2) = bound[mv.i], bound[mv.j]
            s = reference_merge(s1, s2, mv.pivot)
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
        pv = var_id(t, 1, 1)
        unit = em.axiom((-pv,))
        em.infer(cid, unit, pv)
        em.erase(unit)
    return ResolutionTrace(tuple(em.events))


def random_blob_play(g, rng, steps):
    """A legal blob play: ``steps`` random introductions, mergers,
    inflations and erasures, then every live subconfiguration erased and
    [v]<> derived for each vertex in id order, merging [u]<> into v's
    axiom for each predecessor u."""
    moves, live, ids = [], {}, count()

    def add(move, s):
        moves.append(move)
        live[next(ids)] = s

    for _ in range(steps):
        kind = rng.choice("IMFE")
        items = list(live.items())
        if kind == "I":
            v = rng.randrange(g.n)
            if reference_introduce(g, v) not in live.values():
                add(IntroduceMove(v), reference_introduce(g, v))
        elif kind == "M":
            pairs = [(i, j, p) for i, a in items for j, b in items for p in a.blob & b.whites]
            if pairs:
                i, j, p = rng.choice(pairs)
                try:
                    s = reference_merge(live[i], live[j], p)
                except IllegalMove:
                    continue
                if s not in live.values():
                    add(MergeMove(i, j, p), s)
        elif kind == "F" and items:
            i, a = rng.choice(items)
            free = sorted(set(range(g.n)) - a.blob - a.whites)
            if free:
                v = rng.choice(free)
                blob, whites = (a.blob | {v}, a.whites) if rng.random() < 0.5 else (a.blob, a.whites | {v})
                s = BlobSubconfig(blob, whites)
                if s not in live.values():
                    add(InflateMove(i, blob, whites), s)
        elif kind == "E" and items:
            i = rng.choice(items)[0]
            moves.append(EraseMove(i))
            del live[i]
    moves += [EraseMove(i) for i in sorted(live)]
    done = {}
    for v in range(g.n):
        cur = next(ids)
        moves.append(IntroduceMove(v))
        for u in g.preds[v]:
            moves += [MergeMove(done[u], cur, u), EraseMove(cur)]
            cur = next(ids)
        done[v] = cur
    return validate_blob_pebbling(g, moves)


def test_blob_compile_matches_reference():
    """The plays of the tests above, the induced replays of four families'
    starred proofs, and random plays with inflations on random DAGs."""
    plays = [
        (Dag(2, [(0, 1)], targets=[1]), "I 1\nI 0\nM 1 0 0\nE 0\nE 1"),
        (build_family(FamilySpec.chain(3)), "I 1\nI 2\nI 0\nM 2 0 0\nE 0\nE 2\nM 3 1 1\nE 1\nE 3"),
        (
            build_family(FamilySpec.chain(4)),
            "I 3\nF 0 1,3|2\nE 0\nI 1\nI 0\nM 3 2 0\nE 2\nE 3\nI 2\nM 4 5 1\nE 4\nE 5\n"
            "M 6 1 2\nE 1\nE 6\nI 2\nM 7 8 1\nE 7\nE 8\nI 3\nM 9 10 2\nE 9\nE 10",
        ),
        (
            build_family(FamilySpec.chain(3)),
            "I 0\nI 1\nM 0 1 0\nE 1\nF 2 1|0\nE 2\nE 0\nI 0\nM 4 3 0\nI 2\nM 5 6 1",
        ),
    ]
    traces = [(g, validate_blob_pebbling(g, parse_blob_moves(text))) for g, text in plays]
    for spec in [FamilySpec.chain(4), FamilySpec.pyramid(1), FamilySpec.pyramid(2), FamilySpec.binary_tree(2)]:
        g, trace = black_trace(spec)
        builder = replay_proof(g, 1, compile_pebbling(g, 1, trace, starred=True).events)
        traces.append((g, validate_blob_pebbling(g, builder.moves)))
    rng = random.Random(SEED + 2)
    for _ in range(60):
        g = _random_dag(rng, rng.randint(1, 7), 2)
        traces.append((g, random_blob_play(g, rng, 40)))
    inflated = subsumed = 0
    for g, trace in traces:
        inflated += any(isinstance(mv, InflateMove) for mv in trace.moves)
        for starred in (False, True):
            got = format_trace(compile_pebbling(g, 1, trace, starred=starred))
            assert got == format_trace(reference_compile_blob(g, trace, starred)), (g, starred)
        subsumed += got.count("\nr ") < sum(isinstance(mv, MergeMove) for mv in trace.moves)
        check_refutation(pebbling_contradiction(g, 1), compile_pebbling(g, 1, trace))
    assert inflated >= 30 and subsumed >= 10


def test_compile_rejects_unknown_trace_type():
    g = build_family(FamilySpec.chain(3))
    with pytest.raises(UnsupportedOperation, match="^cannot compile str$"):
        compile_pebbling(g, 1, "PB 0")


# --- prime implicates ---------------------------------------------------------


def clause_masks(cl):
    """The (positive, negative) variable masks of a clause: bit x for x."""
    return sum({1 << l for l in cl if l > 0}), sum({1 << -l for l in cl if l < 0})


def literals(pos, neg):
    """The clause of a (positive, negative) variable mask pair."""
    return tuple(x for x in range(pos.bit_length()) if pos >> x & 1) + tuple(
        -x for x in range(neg.bit_length()) if neg >> x & 1
    )


def test_prime_implicates_basic():
    f = pebbling_contradiction(Dag(2, [(0, 1)], targets=[1]), 1, starred=True)
    # the source axiom x1, and x2 by resolving it with -x1 v x2, which x2 subsumes
    assert set(_prime_implicates(f.clauses)) == {clause_masks((1,)), clause_masks((2,))}
    assert set(_prime_implicates([(1, -2), (2,), (-1,)])) == {clause_masks(())}
    assert set(_prime_implicates([(1, -1), (2, 2)])) == {clause_masks((2,))}
    assert set(_prime_implicates([])) == set()


def truth_table_implies(clauses, n, clause):
    """Brute force: every assignment of 1..n that satisfies the clauses
    satisfies ``clause``."""

    def masks(cl):
        pos = sum({1 << (l - 1) for l in cl if l > 0})
        neg = sum({1 << (-l - 1) for l in cl if l < 0})
        return pos, neg

    cnf = [masks(cl) for cl in clauses]
    pos, neg = masks(clause)
    full = (1 << n) - 1
    for a in range(1 << n):  # bit i - 1 set: variable i true
        if all(p & a or q & ~a & full for p, q in cnf) and not (pos & a or neg & ~a & full):
            return False
    return True


def test_prime_implicates_match_truth_table():
    """On seeded random clause sets: every implicate is implied, none stays
    implied with one of its literals dropped, and a random clause is implied
    exactly when some implicate subsumes it."""
    rng = random.Random(SEED)

    def clause(n):
        return tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 4)))

    # Tautologies and duplicate literals must not pass for units.
    cases = [(1, [(1, -1), (1,), (-1,)]), (2, [(2, 1, -1), (-2,), (-1, 2, 2)])]
    for _ in range(120):
        n = rng.randint(1, 10)
        cases.append((n, [c for c in (clause(n) for _ in range(rng.randint(0, 2 * n))) if c]))
    verdicts, held = [], 0
    for n, clauses in cases:
        implicates = _prime_implicates(clauses)
        held += len(implicates)
        for pos, neg in implicates:
            cl = literals(pos, neg)
            assert truth_table_implies(clauses, n, cl), (clauses, cl)
            for lit in cl:
                weaker = tuple(l for l in cl if l != lit)
                assert not truth_table_implies(clauses, n, weaker), (clauses, cl, lit)
        for q in [()] + [clause(n) for _ in range(6)]:
            got = truth_table_implies(clauses, n, q)
            pos, neg = clause_masks(q)
            assert got == bool(pos & neg or any(not (p & ~pos or m & ~neg) for p, m in implicates)), (clauses, q)
            verdicts.append(got)
    assert 100 < sum(verdicts) < len(verdicts) - 100 and held > 250, (sum(verdicts), len(verdicts), held)


def test_subconfig_clause():
    s = sub([2], [0, 1])
    assert subconfig_clause(s) == (-1, -2, 3)
    assert subconfig_clause(sub([0], [])) == (1,)
    for b, w in ref_colourings(5):
        if b:
            s = BlobSubconfig(b, w)
            assert subconfig_clause(s) == reference_subconfig_clause(s), s


# --- induced configurations ---------------------------------------------------


def test_induce_single_axiom():
    g = build_family(FamilySpec.chain(2))
    cfg = induce_configuration(g, 1, [(1,)])
    assert cfg.subs == frozenset({sub([0], [])})
    cfg = induce_configuration(g, 1, [(-1, 2)])
    assert cfg.subs == frozenset({sub([1], [0])})


def test_induce_drops_redundant_weakenings():
    g = build_family(FamilySpec.chain(2))
    # both the unit and a weakening are implied; only the precise one remains
    cfg = induce_configuration(g, 1, [(1,), (-2, 1)])
    assert sub([0], []) in cfg.subs
    assert sub([0], [1]) not in cfg.subs


def test_induce_empty_for_contradiction():
    g = build_family(FamilySpec.chain(2))
    assert induce_configuration(g, 1, [()]).subs == frozenset()


def test_induce_size_guard():
    """The bound is on the implicates held, not on the vertices: chain(13)
    answers, and an implication chain -x_i v x_{i+1} over k variables,
    whose k(k-1)/2 prime implicates are the -x_i v x_j, answers at k = 32
    (496) and is refused at k = 33 (528)."""
    assert induce_configuration(build_family(FamilySpec.chain(13)), 1, [(1,)]).subs == {sub([0])}
    g = build_family(FamilySpec.chain(32))
    cfg = induce_configuration(g, 1, [(-x, x + 1) for x in range(1, 32)])
    assert cfg.subs == {sub([j], [i]) for j in range(32) for i in range(j)}
    g = build_family(FamilySpec.chain(33))
    with pytest.raises(SizeBoundExceeded, match="^more than 500 implicates held$"):
        induce_configuration(g, 1, [(-x, x + 1) for x in range(1, 33)])


# Reference copy of the first oracle and induction (a tuple/set DPLL over
# clause tuples, all 3^n frozenset colourings), kept to pin the induction
# by prime implicates.


def ref_dpll(clauses):
    assigned = set()
    while True:
        unit = None
        simplified = []
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
    return ref_dpll(clauses + [(branch,)]) or ref_dpll(clauses + [(-branch,)])


def ref_colourings(n):
    if n == 0:
        yield frozenset(), frozenset()
        return
    for b, w in ref_colourings(n - 1):
        yield b, w
        yield b | {n - 1}, w
        yield b, w | {n - 1}


def ref_induce(g, d, live_clauses):
    clauses = [tuple(cl) for cl in live_clauses]

    def implies(clause):
        return not ref_dpll(clauses + [(-l,) for l in clause])

    if implies(()):
        return BlobConfig(frozenset())
    cache = {}

    def implied(b, w):
        if (b, w) not in cache:
            cache[b, w] = implies(reference_subconfig_clause(BlobSubconfig(b, w), d))
        return cache[b, w]

    out = []
    for b, w in ref_colourings(g.n):
        if not b or not implied(b, w):
            continue
        if any(implied(b - {v}, w) for v in b if len(b) > 1):
            continue
        if any(implied(b, w - {v}) for v in w):
            continue
        out.append(BlobSubconfig(b, w))
    return BlobConfig(frozenset(out))


def random_dag(rng, n):
    """Fan-in at most 2, edges forward, the last vertex the only target."""
    edges = set()
    for v in range(1, n):
        for u in rng.sample(range(v), min(v, rng.randint(0, 2))):
            edges.add((u, v))
    return Dag(n, sorted(edges), targets=[n - 1])


def place_all(g):
    """Place every vertex in id order, then remove them all."""
    moves = [Move("PB", v) for v in range(g.n)] + [Move("RB", v) for v in range(g.n)]
    return validate_pebbling(g, moves, game="black")


def test_induce_matches_reference():
    rng = random.Random(SEED)
    graphs = [black_trace(FamilySpec.chain(n)) for n in (1, 2, 3, 4)]
    graphs += [black_trace(FamilySpec.pyramid(h)) for h in (1, 2)]
    graphs += [(g, place_all(g)) for g in (random_dag(rng, n) for n in (3, 4, 5, 5))]
    induced = 0
    for g, trace in graphs:
        for d in (1, 2):
            for starred in (False, True):
                sets = list(_live_sets(compile_pebbling(g, d, trace, starred=starred).events))
                for clauses in sets[:: max(1, len(sets) // 5)] + sets[-1:]:
                    got = induce_configuration(g, d, clauses)
                    assert got == ref_induce(g, d, clauses), (g.n, d, clauses)
                    induced += len(got.subs)
    assert induced > 100
    # Seeded random clause sets, a variable now and then beyond the graph's.
    counts = Counter()
    for _ in range(300):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        g = random_dag(rng, n)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, d * n + (rng.random() < 0.1)) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 6))
        ]
        got = induce_configuration(g, d, clauses)
        assert got == ref_induce(g, d, clauses), (g.n, d, clauses)
        counts[d, bool(got.subs)] += 1
    assert min(counts[d, True] for d in (1, 2, 3)) > 50, counts


def test_explained_script_round_trip_edge():
    g = Dag(2, [(0, 1)], targets=[1])
    trace = validate_pebbling(g, parse_moves("PB 0\nPB 1\nRB 0\nRB 1"), game="black")
    builder = replay_proof(g, 1, compile_pebbling(g, 1, trace, starred=True).events)
    final = validate_blob_pebbling(g, builder.moves)
    assert sub([1], []) in final.final.subs


def test_explained_script_round_trip_chain3():
    g, trace = black_trace(FamilySpec.chain(3))
    builder = replay_proof(g, 1, compile_pebbling(g, 1, trace, starred=True).events)
    final = validate_blob_pebbling(g, builder.moves)
    assert sub([2], []) in final.final.subs


def test_explained_script_round_trip_pyramid1():
    g, trace = black_trace(FamilySpec.pyramid(1))
    builder = replay_proof(g, 1, compile_pebbling(g, 1, trace, starred=True).events)
    final = validate_blob_pebbling(g, builder.moves)
    assert sub([2], []) in final.final.subs


REPLAY_PINS = [
    # spec, then blob cost, peak live clauses and blob moves at d = 1 and at d = 2
    (FamilySpec.chain(2), (2, 3, 4), (2, 4, 6)),
    (FamilySpec.chain(3), (2, 3, 8), (2, 4, 12)),
    (FamilySpec.pyramid(1), (3, 4, 7), (3, 6, 17)),
    (FamilySpec.chain(6), (2, 3, 20), (2, 4, 30)),
    (FamilySpec.pyramid(3), (5, 6, 41), (5, 8, 101)),
    (FamilySpec.carlson_savage(2, 1), (4, 5, 60), (4, 7, 140)),
    (FamilySpec.binary_tree(3), (5, 6, 55), (5, 8, 125)),
    (FamilySpec.pyramid(4), (6, 7, 67), (6, 9, 167)),
    (FamilySpec.pyramid(5), (7, 8, 99), (7, 10, 249)),
    (FamilySpec.carlson_savage(2, 2), (5, 6, 212), (5, 8, 492)),
    (FamilySpec.binary_tree(4), (6, 7, 119), (6, 9, 269)),
]


def test_starred_replays_pinned():
    """The starred proof of black_strategy at d = 1 and d = 2, induced after
    every event and explained, replays as a blob pebbling that ends with
    each target's blob [t]<>, at the pinned cost and length.  chain(2) is
    the one edge 0 -> 1 pebbled PB 0, PB 1, RB 0, RB 1."""
    for spec, *pins in REPLAY_PINS:
        g, trace = black_trace(spec)
        for d, pin in enumerate(pins, 1):
            events = compile_pebbling(g, d, trace, starred=True).events
            builder = replay_proof(g, d, events)
            final = validate_blob_pebbling(g, builder.moves)
            assert all(sub([t]) in final.final.subs for t in g.targets), (spec, d)
            assert (final.cost, max(map(len, _live_sets(events))), len(builder.moves)) == pin, (spec, d)


def test_replayed_play_replays_to_itself():
    """A replayed play, compiled by the blob compiler and replayed again,
    gives the same moves: so induce and explain also see the clauses
    ``_compile_blob`` writes, which the black compiler never does."""
    for spec in [
        FamilySpec.chain(6),
        FamilySpec.pyramid(3),
        FamilySpec.binary_tree(3),
        FamilySpec.carlson_savage(2, 1),
        FamilySpec.pyramid(5),
        FamilySpec.carlson_savage(2, 2),
    ]:
        g, trace = black_trace(spec)
        play = validate_blob_pebbling(g, replay_proof(g, 1, compile_pebbling(g, 1, trace, starred=True).events).moves)
        again = replay_proof(g, 1, compile_pebbling(g, 1, play, starred=True).events)
        assert format_blob_moves(again.moves) == format_blob_moves(play.moves), spec


def test_replay_refuses_an_erase_of_a_dead_id():
    """An erase of an id that is not live is refused with the event's
    index and the checker's message; ids start at 1."""
    g = build_family(FamilySpec.chain(2))
    events = (Axiom((1,)), Axiom((-1, 2)), Erase(1), Erase(1))
    assert list(_live_sets(events[:3])) == [[(1,)], [(1,), (-1, 2)], [(-1, 2)]]
    for bad, index in ((events[:3] + (Erase(3),), 3), (events, 3), ((Erase(0),), 0)):
        with pytest.raises(VerificationError) as e:
            replay_proof(g, 1, bad)
        assert (e.value.reason, e.value.index) == (f"erased id {bad[index].id} not live", index)


def test_explain_inflates_what_no_merge_derives():
    g = Dag(2, [])
    builder = BlobScriptBuilder(g)
    explain_transition(g, builder, BlobConfig(frozenset({sub([0, 1])})))
    assert format_blob_moves(builder.moves) == "I 0\nF 0 0,1|\nE 0\n"


def test_explain_skips_illegal_merges_of_live_subconfigurations():
    # merging the live [1]<0> and [0]<1> on 1 leaves 0 black and white
    g = Dag(2, [(0, 1)])
    builder = BlobScriptBuilder(g)
    explain_transition(g, builder, BlobConfig(frozenset({sub([1], [0]), sub([0], [1])})))
    assert format_blob_moves(builder.moves) == "I 0\nF 0 0|1\nI 1\nE 0\n"
    explain_transition(g, builder, BlobConfig(frozenset({sub([1])})))
    assert format_blob_moves(builder.moves) == "I 0\nF 0 0|1\nI 1\nE 0\nI 0\nM 3 2 0\nE 1\nE 3\nE 2\n"
    assert builder.ids == {(0b10, 0): 4}


def test_explain_refuses_what_nothing_derives():
    # nothing derived from [0]<> and [1]<0> has its blob inside {5}
    g = Dag(2, [(0, 1)])
    with pytest.raises(UnsupportedOperation, match=r"^cannot explain induced subconfiguration \[5\]<>$"):
        explain_transition(g, BlobScriptBuilder(g), BlobConfig(frozenset({sub([5])})))


def test_explain_refusal_writes_nothing():
    """Every addition is decided before the first move: [0]<>, which comes
    first in text order and is derivable, is not introduced when [5]<> is
    refused, and the builder keeps its moves, ids and next id."""
    g = build_family(FamilySpec.chain(3))
    builder = BlobScriptBuilder(g)
    explain_transition(g, builder, BlobConfig(frozenset({sub([1], [0])})))
    before = list(builder.moves), dict(builder.ids), builder.next_id
    with pytest.raises(UnsupportedOperation, match=r"^cannot explain induced subconfiguration \[5\]<>$"):
        explain_transition(g, builder, BlobConfig(frozenset({sub([0]), sub([5])})))
    assert (builder.moves, builder.ids, builder.next_id) == before
    assert format_blob_moves(builder.moves) == "I 1\n"


def test_explain_leaves_no_reference_cycle():
    """An explained transition is freed by reference counting alone: no
    recursive closure keeps the closure table alive until a collection."""
    g, trace = black_trace(FamilySpec.chain(3))
    events = compile_pebbling(g, 1, trace, starred=True).events
    configs = [induce_configuration(g, 1, c) for c in _live_sets(events)]
    gc.collect()
    gc.disable()
    try:
        builder = BlobScriptBuilder(g)
        for cfg in configs[:2]:
            explain_transition(g, builder, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- explain on mask pairs against explain on BlobSubconfig objects ----------
# The builder and explain_transition as they were when they replayed
# BlobSubconfig objects through introduce and merge, copied verbatim; only
# the names differ, and the closure starts from ``builder.ids`` in creation
# order, where it started from the frozenset ``builder.live()``, whose order
# follows hash-table layout.


class ReferenceBlobScriptBuilder:
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
        s = reference_introduce(self.g, v)
        if s not in self.ids:
            self.moves.append(IntroduceMove(v))
            self._add(s)
        return s

    def merge(self, s1: BlobSubconfig, s2: BlobSubconfig, pivot: int) -> BlobSubconfig:
        s = reference_merge(s1, s2, pivot)
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


def reference_explain_transition(g: Dag, builder: ReferenceBlobScriptBuilder, new: BlobConfig) -> None:
    """Extend the builder's script so its live set becomes exactly ``new``.

    Every added subconfiguration must be reachable from the current live set
    by introductions and mergers (scratch intermediates allowed, erased
    afterwards), or by a single inflation of something reachable.  Raises
    UnsupportedOperation when no explanation exists.
    """
    old = builder.live()
    additions = set(new.subs) - old

    # Closure of derivable subconfigurations with derivation parents.
    parent: dict[BlobSubconfig, tuple] = {s: ("live",) for s in builder.ids}
    for v in range(g.n):
        s = reference_introduce(g, v)
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
                            m = reference_merge(a, b, pivot)
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


def explained(builder_type, explain, g, configs):
    """The script after explaining each configuration in turn, up to the
    type and message of the first refusal."""
    builder = builder_type(g)
    out = []
    for cfg in configs:
        try:
            explain(g, builder, cfg)
        except Exception as e:  # the type is compared too
            return out + [(type(e), str(e))]
        out.append(format_blob_moves(builder.moves))
    return out


def random_subconfig(rng, n):
    """A subconfiguration over n vertices, [v]<> or random, or now and then
    one whose blob is a vertex outside the graph."""
    kind = rng.random()
    if kind < 0.2:
        return BlobSubconfig(frozenset({rng.randrange(n)}))
    if kind < 0.23:
        blob = frozenset({rng.choice([-1, n])})
    else:
        blob = frozenset({rng.randrange(n)} | {u for u in range(n) if rng.random() < 0.2})
    return BlobSubconfig(blob, frozenset(u for u in range(n) if u not in blob and rng.random() < 0.3))


def test_explain_matches_reference():
    """The same script as the BlobSubconfig explain, or the same refusal: on
    the induced replays of four starred proofs, on seeded random
    configurations on random DAGs, and on vertices outside the graph."""
    for spec in [FamilySpec.chain(4), FamilySpec.pyramid(1), FamilySpec.pyramid(2), FamilySpec.binary_tree(2)]:
        g, trace = black_trace(spec)
        events = compile_pebbling(g, 1, trace, starred=True).events
        configs = [induce_configuration(g, 1, c) for c in _live_sets(events)]
        got = explained(BlobScriptBuilder, explain_transition, g, configs)
        assert got == explained(ReferenceBlobScriptBuilder, reference_explain_transition, g, configs), spec
    rng = random.Random(SEED + 3)
    steps = inflated = refused = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        g = _random_dag(rng, n, 2)
        configs, cfg = [], set()
        for _ in range(rng.randint(1, 4)):
            cfg = {s for s in cfg if rng.random() < 0.6}
            cfg |= {random_subconfig(rng, n) for _ in range(rng.randint(0, 3))}
            configs.append(BlobConfig(frozenset(cfg)))
        got = explained(BlobScriptBuilder, explain_transition, g, configs)
        assert got == explained(ReferenceBlobScriptBuilder, reference_explain_transition, g, configs), (
            g,
            configs,
        )
        scripts = [s for s in got if isinstance(s, str)]
        steps += len(got)
        inflated += any(line[0] == "F" for line in "".join(scripts[-1:]).splitlines())
        refused += len(scripts) < len(got)
    assert steps > 600 and inflated > 100 and refused > 20, (steps, inflated, refused)
    g = Dag(2, [(0, 1)])
    for s in (sub([-1]), sub([2]), sub([2], [0]), sub([5], [-3])):
        configs = [BlobConfig(frozenset({sub([1]), s}))]
        got = explained(BlobScriptBuilder, explain_transition, g, configs)
        assert got == explained(ReferenceBlobScriptBuilder, reference_explain_transition, g, configs)
        assert got == [(UnsupportedOperation, f"cannot explain induced subconfiguration {s}")]
    # With a vertex of the graph in its blob, the BlobSubconfig explain
    # inflated into an outside vertex, a move the validator refuses; the
    # mask explain refuses to explain it.
    configs = [BlobConfig(frozenset({sub([0, 2])}))]
    assert explained(ReferenceBlobScriptBuilder, reference_explain_transition, g, configs) == [
        "I 0\nF 0 0,2|\nE 0\n"
    ]
    assert refusal(g, "I 0\nF 0 0,2|\nE 0") == (BadInflation, "move 2: vertex 2 out of range")
    assert explained(BlobScriptBuilder, explain_transition, g, configs) == [
        (UnsupportedOperation, "cannot explain induced subconfiguration [0,2]<>")
    ]


def test_metrics_vs_cost_blob():
    g = Dag(2, [(0, 1)], targets=[1])
    btrace = validate_blob_pebbling(g, parse_blob_moves("I 1\nI 0\nM 1 0 0\nE 0\nE 1"))
    report = metrics_vs_cost(g, 1, btrace)
    assert report["pebbling"]["cost"] == 2
    assert report["refutation"]["length"] == 5


def test_fuzz_compiled_mutations_rejected():
    """Deleting or corrupting events from compiled proofs never verifies."""
    rng = random.Random(SEED)
    g, trace = black_trace(FamilySpec.binary_tree(2))
    f = pebbling_contradiction(g, 2)
    rtrace = compile_pebbling(g, 2, trace)
    check_refutation(f, rtrace)
    events = list(rtrace.events)

    for _ in range(100):
        mutated = list(events)
        i = rng.randrange(len(mutated))
        ev = mutated[i]
        if isinstance(ev, Infer):
            if ev.clause:
                mutated[i] = Infer(ev.left, ev.right, ev.pivot, ev.clause[1:])
            else:
                mutated[i] = Infer(ev.left, ev.right, ev.pivot + 1, ev.clause)
        elif isinstance(ev, Axiom):
            # flipping one sign never lands on another clause of this formula
            mutated[i] = Axiom((-ev.clause[0],) + ev.clause[1:])
        else:
            mutated[i] = Erase(ev.id + 777)
        with pytest.raises(VerificationError):
            check_refutation(f, ResolutionTrace(tuple(mutated)))
