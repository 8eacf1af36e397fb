"""Acceptance suite: nine end-to-end checks, one verdict line each.

Every test prints ``criterion N: PASS|FAIL - detail`` to the real stdout
(bypassing pytest capture) so the verdicts are visible in a plain run, then
asserts.  Expected numbers are frozen from independent hand computations and
reference oracles kept in this file; nothing is read back from the library
being tested.
"""

import random
import sys
import time
from itertools import count, product

import pytest

from pebble_bench import (
    Axiom,
    BadMerge,
    BadPivot,
    BlobSubconfig,
    Dag,
    Erase,
    EraseMove,
    FamilySpec,
    Infer,
    InflateMove,
    IntroduceMove,
    MergeMove,
    ResolutionTrace,
    TautologicalResolvent,
    VerificationError,
    black_strategy,
    build_family,
    check_lhc,
    check_refutation,
    compile_pebbling,
    cs_tradeoff_strategy,
    hidden_vertices,
    min_lhc_bound,
    optimal_price,
    parse_moves,
    pebbling_contradiction,
    replay_proof,
    resolve,
    subconfig_clause,
    tradeoff_frontier,
    validate_blob_pebbling,
    validate_pebbling,
)
from pebble_bench.cli import tradeoff_report

SEED = 20240911
QUALITY_FACTOR = 2.0  # worst measured strategy/optimal time ratio is 44/23


@pytest.fixture
def verdict(capsys):
    """Report one criterion outcome on the real stdout, then assert it."""

    def report(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return report


# --- criterion 1: exact prices match an independent brute force -----------------


def brute_black_price(g):
    """Plain DFS over (board, visited-targets) states, cap iterated upward.

    Shares no code or state model with the library's search.
    """
    targets = frozenset(g.targets)
    sys.setrecursionlimit(50000)

    for cap in range(1, g.n + 1):
        seen = set()

        def ok(board, visited):
            if visited == targets and not board:
                return True
            key = (board, visited)
            if key in seen:
                return False
            seen.add(key)
            for v in range(g.n):
                if v in board:
                    if ok(board - {v}, visited):
                        return True
                elif len(board) < cap and all(u in board for u in g.preds[v]):
                    if ok(board | {v}, visited | (targets & {v})):
                        return True
            return False

        if ok(frozenset(), frozenset()):
            return cap
    return g.n


def test_criterion_1_prices_match_brute_force(verdict):
    start = time.monotonic()
    specs = [FamilySpec.chain(n) for n in range(1, 7)]
    specs += [FamilySpec.pyramid(h) for h in range(1, 4)]
    bad = []
    for spec in specs:
        g = build_family(spec)
        got = optimal_price(g, game="black")
        want = brute_black_price(g)
        if got != want:
            bad.append(f"{spec.label()}: {got} != {want}")
    elapsed = time.monotonic() - start
    verdict(
        1,
        not bad and elapsed < 60,
        bad[0] if bad else f"{len(specs)} instances agree with brute force ({elapsed:.1f}s)",
    )


# --- criterion 2: black-white never beats black the wrong way -------------------


def test_criterion_2_bw_at_most_black(verdict):
    specs = [FamilySpec.chain(n) for n in range(1, 7)]
    specs += [FamilySpec.pyramid(h) for h in range(1, 4)]
    specs += [FamilySpec.binary_tree(h) for h in range(1, 4)]
    specs.append(FamilySpec.carlson_savage(2, 1))
    bad = []
    anchors = {}
    for spec in specs:
        g = build_family(spec)
        black = optimal_price(g, game="black")
        bw = optimal_price(g, game="bw")
        anchors[spec.label()] = (black, bw)
        if bw > black:
            bad.append(f"{spec.label()}: bw {bw} > black {black}")
    if anchors["pyramid(2)"] != (4, 3):
        bad.append(f"pyramid(2) prices {anchors['pyramid(2)']} != (4, 3)")
    if anchors["binary_tree(3)"] != (5, 4):
        bad.append(f"binary_tree(3) prices {anchors['binary_tree(3)']} != (5, 4)")
    verdict(2, not bad, bad[0] if bad else f"bw <= black on all {len(specs)} instances")


# --- criterion 3: compiled proofs verify; corrupted ones never do ----------------


def _mutate(rng, f, events):
    """One random corruption that can never verify against ``f``.

    Infer: recorded clause or pivot no longer matches the recomputed
    resolvent.  Axiom: one flipped sign never lands on another clause of a
    pebbling contradiction.  Erase: ids are 1-based, so 0 is never live.
    """
    mutated = list(events)
    i = rng.randrange(len(mutated))
    ev = mutated[i]
    if isinstance(ev, Infer):
        if ev.clause:
            mutated[i] = Infer(ev.left, ev.right, ev.pivot, ev.clause[1:])
        else:
            mutated[i] = Infer(ev.left, ev.right, ev.pivot + 1, ev.clause)
    elif isinstance(ev, Axiom):
        mutated[i] = Axiom((-ev.clause[0],) + ev.clause[1:])
    else:
        mutated[i] = Erase(0)
    return ResolutionTrace(tuple(mutated))


def test_criterion_3_compile_check_and_mutations(verdict):
    rng = random.Random(SEED)
    specs = [
        FamilySpec.chain(4),
        FamilySpec.pyramid(2),
        FamilySpec.binary_tree(2),
        FamilySpec.carlson_savage(2, 1),
    ]
    rejected = total = proofs = 0
    bad = []
    for spec, d in product(specs, (1, 2)):
        g = build_family(spec)
        trace = validate_pebbling(g, black_strategy(spec), game="black")
        f = pebbling_contradiction(g, d)
        rtrace = compile_pebbling(g, d, trace)
        try:
            check_refutation(f, rtrace)
        except VerificationError as e:
            bad.append(f"{spec.label()} d={d}: honest proof rejected: {e}")
            continue
        proofs += 1
        for _ in range(100):
            total += 1
            try:
                check_refutation(f, _mutate(rng, f, rtrace.events))
            except VerificationError:
                rejected += 1
    ok = not bad and rejected == total and proofs == len(specs) * 2
    detail = bad[0] if bad else f"{proofs} proofs verify; {rejected}/{total} mutations rejected"
    verdict(3, ok, detail)


# --- criterion 4: formula sizes follow the closed form ---------------------------


def test_criterion_4_clause_counts(verdict):
    specs = [FamilySpec.chain(n) for n in (1, 2, 4)]
    specs += [FamilySpec.pyramid(h) for h in (1, 2)]
    specs += [FamilySpec.binary_tree(2), FamilySpec.carlson_savage(2, 1)]
    bad = []
    for spec, d in product(specs, (1, 2, 3)):
        g = build_family(spec)
        f = pebbling_contradiction(g, d)
        want = sum(
            1 if not g.preds[v] else d ** len(g.preds[v]) for v in range(g.n)
        ) + d * len(g.targets)
        if len(f.clauses) != want or f.num_vars != d * g.n:
            bad.append(f"{spec.label()} d={d}: {len(f.clauses)} clauses, want {want}")
    f = pebbling_contradiction(build_family(FamilySpec.pyramid(1)), 2)
    if (len(f.clauses), f.num_vars) != (8, 6):
        bad.append(f"pyramid(1) d=2 gives {(len(f.clauses), f.num_vars)}, want (8, 6)")
    verdict(4, not bad, bad[0] if bad else "clause counts match the closed form")


# --- criterion 5: genuine time-space trade-offs with matching strategies ---------


def test_criterion_5_tradeoff_frontier(verdict):
    start = time.monotonic()
    bad = []
    for c, r in ((2, 1), (2, 2)):
        spec = FamilySpec.carlson_savage(c, r)
        g = build_family(spec)
        price = optimal_price(g, game="black")
        frontier = tradeoff_frontier(g, game="black", space_cap=price + 3)
        pts = frontier
        if len(pts) < 2:
            bad.append(f"{spec.label()}: frontier {pts} has fewer than 2 points")
            continue
        if pts[0][0] != price:
            bad.append(f"{spec.label()}: frontier starts at {pts[0][0]}, price {price}")
        if any(pts[i][1] <= pts[i + 1][1] for i in range(len(pts) - 1)):
            bad.append(f"{spec.label()}: times not strictly decreasing: {pts}")
        if any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
            bad.append(f"{spec.label()}: spaces not strictly increasing: {pts}")
        for s, t in pts:
            moves = cs_tradeoff_strategy(c, r, s)
            st = validate_pebbling(g, moves, game="black")
            if st.space > s:
                bad.append(f"{spec.label()} budget {s}: strategy used {st.space}")
            if st.time > QUALITY_FACTOR * t:
                bad.append(
                    f"{spec.label()} budget {s}: time {st.time} > {QUALITY_FACTOR} * {t}"
                )
    elapsed = time.monotonic() - start
    verdict(
        5,
        not bad and elapsed < 600,
        bad[0] if bad else f"both frontiers trade space for time ({elapsed:.1f}s)",
    )


# --- criterion 6: merging mirrors resolution exactly ------------------------------


def _made_live(n, s1, s2):
    """Moves of a play on an edgeless graph of n + 1 vertices, where each
    introduction is [v]<>, that leave [n]<>, s1 and s2 live, and the ids
    of s1 and s2.  Each is inflated from [v]<>, v its least blob vertex,
    unless it is that, or s1 is."""
    moves, ids, nid = [IntroduceMove(n)], {}, count(1)
    for s in (s1, s2):
        if s in ids:
            continue
        unit = BlobSubconfig(frozenset({min(s.blob)}))
        if unit in ids:
            moves.append(InflateMove(ids[unit], s.blob, s.whites))
        else:
            moves.append(IntroduceMove(min(s.blob)))
            if s == unit:
                ids[s] = next(nid)
                continue
            src = next(nid)
            moves += [InflateMove(src, s.blob, s.whites), EraseMove(src)]
        ids[s] = next(nid)
    return moves, ids[s1], ids[s2]


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


def test_criterion_6_merge_is_resolution(verdict):
    n = 5
    g = Dag(n + 1, [], targets=[n])
    end = BlobSubconfig(frozenset({n}))
    subs = [
        BlobSubconfig(*(frozenset(v for v in range(n) if m >> v & 1) for m in (b, w)))
        for b, w in _colourings(n)
        if b
    ]
    checked = 0
    bad = []
    for s1, s2 in product(subs, repeat=2):
        moves, i, j = _made_live(n, s1, s2)
        c1, c2 = subconfig_clause(s1), subconfig_clause(s2)
        for p in range(n):
            game_err = clause_err = None
            merged = resolvent = None
            try:
                # the validator's merge, read back as the one new live subconfiguration
                final = validate_blob_pebbling(g, moves + [MergeMove(i, j, p)]).final.subs
                (merged,) = final - {end, s1, s2}
            except BadMerge as e:
                game_err = e
            try:
                resolvent = resolve(c1, c2, p + 1)
            except (BadPivot, TautologicalResolvent) as e:
                clause_err = e
            if (game_err is None) != (clause_err is None):
                bad.append(f"{s1} + {s2} on {p}: {game_err!r} vs {clause_err!r}")
            elif merged is not None and subconfig_clause(merged) != resolvent:
                bad.append(f"{s1} + {s2} on {p}: clause mismatch")
            checked += 1
            if bad:
                break
        if bad:
            break
    verdict(6, not bad, bad[0] if bad else f"{checked} merge/resolve pairs agree")


# --- criterion 7: induced configurations replay as legal blob moves ----------------


def test_criterion_7_induced_replay(verdict):
    bad = []
    for g in (Dag(2, [(0, 1)], targets=[1]), build_family(FamilySpec.chain(3))):
        trace = validate_pebbling(
            g,
            parse_moves("\n".join(f"PB {v}" for v in range(g.n))
                        + "\n" + "\n".join(f"RB {v}" for v in range(g.n))),
            game="black",
        )
        for d in (1, 2):
            try:
                builder = replay_proof(g, d, compile_pebbling(g, d, trace, starred=True).events)
                final = validate_blob_pebbling(g, builder.moves)
            except Exception as e:  # any failure means the criterion fails
                bad.append(f"n={g.n}, d={d}: {type(e).__name__}: {e}")
                continue
            want = BlobSubconfig(frozenset({g.n - 1}), frozenset())
            if want not in final.final.subs:
                bad.append(f"n={g.n}, d={d}: target subconfiguration missing at the end")
    verdict(7, not bad, bad[0] if bad else "both starred proofs replay as blob pebblings at d = 1 and 2")


# --- criterion 8: hiding laws under fuzz; pyramid hider bound --------------------


def test_criterion_8_hiding_laws_and_hider_bound(verdict):
    rng = random.Random(SEED)
    bad = []
    for it in range(1000):
        n = rng.randint(1, 10)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        g = Dag(n, edges)
        direction = rng.choice(("below", "above"))
        small = frozenset(v for v in range(n) if rng.random() < 0.3)
        big = small | frozenset(v for v in range(n) if rng.random() < 0.2)
        hs = hidden_vertices(g, small, direction)
        hb = hidden_vertices(g, big, direction)
        if not (small <= hs <= hb):
            bad.append(f"iteration {it}: hull not monotone")
            break
        if hidden_vertices(g, hs, direction) != hs:
            bad.append(f"iteration {it}: hull not idempotent")
            break
    from pebble_bench import LayeredView, klawe_measure, potential

    g = build_family(FamilySpec.pyramid(2))
    if klawe_measure(LayeredView.from_dag(g), ()).value != 0:
        bad.append("measure of the empty set is not 0")
    if potential(g, ()) != 0:
        bad.append("potential of the empty configuration is not 0")
    if not check_lhc(g, 3).holds:
        bad.append("pyramid(2) fails the hider check at bound 3")
    low = check_lhc(g, 2)
    if low.holds or low.witness.vertices != (0, 1, 2):
        bad.append(f"pyramid(2) at bound 2: {low}")
    if min_lhc_bound(g) != 3:
        bad.append(f"min_lhc_bound(pyramid(2)) = {min_lhc_bound(g)}, want 3")
    verdict(8, not bad, bad[0] if bad else "1000 fuzz cases and the pyramid bound of 3 hold")


# --- criterion 9: experiment runs are byte-deterministic -------------------------


def test_criterion_9_report_determinism(tmp_path, verdict):
    spec = tmp_path / "exp.ini"
    spec.write_text(
        "[experiment]\ngame = black\n"
        "[family:chain]\nn = 2..5\n"
        "[family:pyramid]\nh = 1..2\n"
        "[family:carlson_savage]\nc = 2\nr = 1\nspace_cap = +1\n"
    )
    csv1, plots1, _ = tradeoff_report(str(spec))
    csv2, plots2, _ = tradeoff_report(str(spec))
    ok = csv1 == csv2 and plots1 == plots2 and csv1.count("\n") >= 8
    verdict(
        9,
        ok,
        "identical bytes across runs"
        if ok
        else "outputs differ between runs",
    )
