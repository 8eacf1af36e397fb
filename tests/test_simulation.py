"""Tests for pebbling-to-resolution compilation and configuration induction."""

import random

import pytest

from pebble_bench import (
    BlobConfig,
    BlobScriptBuilder,
    BlobSubconfig,
    Dag,
    FamilySpec,
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
    sub,
    validate_blob_pebbling,
    validate_pebbling,
)
from pebble_bench.resolution import Axiom, Erase, Infer, format_trace
from pebble_bench.simulation import ImplicationOracle, subconfig_clause
from pebble_bench.strategies import black_strategy

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
            live, nid = {}, 0
            for ev in starred.events:
                if isinstance(ev, Erase):
                    del live[ev.id]
                else:
                    nid += 1
                    live[nid] = ev.clause
            for t in g.targets:
                assert tuple(range(d * t + 1, d * t + d + 1)) in live.values()
    assert fanins == {0, 1, 2, 3}


def test_compile_starred_keeps_target_clauses():
    g, trace = black_trace(FamilySpec.pyramid(2))
    f = pebbling_contradiction(g, 1, starred=True)
    rtrace = compile_pebbling(g, 1, trace, starred=True)
    # replay by hand: final live set must contain the target's positive clause
    live = {}
    nid = 0
    for ev in rtrace.events:
        if isinstance(ev, (Axiom, Infer)):
            nid += 1
            live[nid] = ev.clause
            if isinstance(ev, Axiom):
                assert ev.clause in f.clauses
        else:
            del live[ev.id]
    target_clause = (6,)  # All_1 of the apex, variables are vertex+1 at d=1
    assert target_clause in live.values()
    assert () not in live.values()


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


def test_compile_rejects_unknown_trace_type():
    g = build_family(FamilySpec.chain(3))
    with pytest.raises(UnsupportedOperation, match="^cannot compile str$"):
        compile_pebbling(g, 1, "PB 0")


# --- implication oracle -------------------------------------------------------


def test_oracle_basic():
    f = pebbling_contradiction(Dag(2, [(0, 1)], targets=[1]), 1, starred=True)
    oracle = ImplicationOracle(f.clauses, f.num_vars)
    assert oracle.implies((1,))  # source axiom
    assert oracle.implies((2,))  # implied by unit propagation
    assert oracle.implies((-1, 2))
    assert not oracle.implies((-1,))
    assert not oracle.implies(())


def test_oracle_refuses_too_many_variables():
    with pytest.raises(SizeBoundExceeded, match="^25 variables exceeds oracle bound 24$"):
        ImplicationOracle([], 25)


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


def test_oracle_matches_truth_table():
    rng = random.Random(SEED)

    def clause(n):
        return tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 4)))

    # Tautologies and duplicate literals must not pass for units.
    cases = [(1, [(1, -1), (1,), (-1,)]), (2, [(2, 1, -1), (-2,), (-1, 2, 2)])]
    for _ in range(120):
        n = rng.randint(1, 10)
        cases.append((n, [c for c in (clause(n) for _ in range(rng.randint(0, 2 * n))) if c]))
    verdicts = []
    for n, clauses in cases:
        oracle = ImplicationOracle(clauses, n)
        for q in [()] + [clause(n) for _ in range(6)]:
            got = oracle.implies(q)
            assert got == truth_table_implies(clauses, n, q), (clauses, q)
            verdicts.append(got)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_subconfig_clause():
    s = sub([2], [0, 1])
    assert subconfig_clause(s) == (-1, -2, 3)
    assert subconfig_clause(sub([0], [])) == (1,)


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


# Reference copy of the first oracle and induction (a tuple/set DPLL over
# clause tuples, frozenset colourings), kept to pin the bitmask versions.


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
            cache[b, w] = implies(subconfig_clause(BlobSubconfig(b, w), d))
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
                live, sets, nid = {}, [], 0
                for ev in compile_pebbling(g, d, trace, starred=starred).events:
                    if isinstance(ev, Erase):
                        del live[ev.id]
                    else:
                        nid += 1
                        live[nid] = ev.clause
                    sets.append(list(live.values()))
                for clauses in sets[:: max(1, len(sets) // 5)] + sets[-1:]:
                    got = induce_configuration(g, d, clauses)
                    assert got == ref_induce(g, d, clauses), (g.n, d, clauses)
                    induced += len(got.subs)
    assert induced > 100


def replay_induced(g, rtrace):
    """Induce after every event and explain each transition with blob moves."""
    builder = BlobScriptBuilder(g)
    live = {}
    nid = 0
    for ev in rtrace.events:
        if isinstance(ev, (Axiom, Infer)):
            nid += 1
            live[nid] = ev.clause
        else:
            del live[ev.id]
        cfg = induce_configuration(g, 1, list(live.values()))
        explain_transition(g, builder, cfg)
    return builder


def test_explained_script_round_trip_edge():
    g = Dag(2, [(0, 1)], targets=[1])
    trace = validate_pebbling(g, parse_moves("PB 0\nPB 1\nRB 0\nRB 1"), game="black")
    rtrace = compile_pebbling(g, 1, trace, starred=True)
    builder = replay_induced(g, rtrace)
    final = validate_blob_pebbling(g, builder.moves)
    assert sub([1], []) in final.final.subs


def test_explained_script_round_trip_chain3():
    spec = FamilySpec.chain(3)
    g, trace = black_trace(spec)
    rtrace = compile_pebbling(g, 1, trace, starred=True)
    builder = replay_induced(g, rtrace)
    final = validate_blob_pebbling(g, builder.moves)
    assert sub([2], []) in final.final.subs


def test_explained_script_round_trip_pyramid1():
    spec = FamilySpec.pyramid(1)
    g, trace = black_trace(spec)
    rtrace = compile_pebbling(g, 1, trace, starred=True)
    builder = replay_induced(g, rtrace)
    final = validate_blob_pebbling(g, builder.moves)
    assert sub([2], []) in final.final.subs


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
    assert builder.live() == {sub([1])}


def test_explain_refuses_what_nothing_derives():
    # on a 2-cycle the introductions [0]<1> and [1]<0> do not merge, and
    # neither lies inside [0]<>
    g = Dag(2, [(0, 1), (1, 0)], targets=[0])
    with pytest.raises(UnsupportedOperation, match=r"^cannot explain induced subconfiguration \[0\]<>$"):
        explain_transition(g, BlobScriptBuilder(g), BlobConfig(frozenset({sub([0])})))


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
