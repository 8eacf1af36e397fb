"""Tests for the resolution rule, trace checking, metrics, and the trace format."""

import gc
import random
from itertools import count, product

import pytest

from pebble_bench import (
    Axiom,
    BadPivot,
    Cnf,
    Dag,
    Erase,
    EraseMove,
    FamilySpec,
    Infer,
    IntroduceMove,
    MergeMove,
    ParseError,
    ProofMetrics,
    ResolutionTrace,
    TautologicalResolvent,
    VerificationError,
    build_family,
    check_refutation,
    check_trace_text,
    compile_pebbling,
    format_trace,
    parse_trace,
    pebbling_contradiction,
    resolve,
    validate_blob_pebbling,
    validate_pebbling,
)
from pebble_bench.cnf import Clause, canon_clause
from pebble_bench.resolution import Event
from pebble_bench.strategies import black_strategy

SEED = 1618


def test_resolve_basic():
    assert resolve((1, 2), (-1, 3), 1) == (2, 3)
    assert resolve((1,), (-1,), 1) == ()
    assert resolve((1, 2), (-1, 2), 1) == (2,)


def test_resolve_pivot_checks():
    with pytest.raises(BadPivot):
        resolve((2,), (-1,), 1)  # pivot not positive in first
    with pytest.raises(BadPivot):
        resolve((1,), (2,), 1)  # pivot not negative in second
    with pytest.raises(BadPivot):
        resolve((1, 2), (-1,), -1)  # pivot must be the positive literal


def test_resolve_tautology_rejected():
    with pytest.raises(TautologicalResolvent):
        resolve((1, 2), (-1, -2), 1)


def simple_refutation():
    # (1)(−1 2)(−2) refuted in two inferences
    f = Cnf(2, ((1,), (-1, 2), (-2,)))
    trace = ResolutionTrace(
        (
            Axiom((1,)),
            Axiom((-1, 2)),
            Infer(1, 2, 1, (2,)),
            Axiom((-2,)),
            Infer(3, 4, 2, ()),
        )
    )
    return f, trace


def test_check_simple_refutation():
    f, trace = simple_refutation()
    metrics = check_refutation(f, trace)
    assert metrics.length == 5
    assert metrics.width == 2
    assert metrics.clause_space >= 3
    assert metrics.report() == {
        "length": metrics.length,
        "width": metrics.width,
        "clause_space": metrics.clause_space,
    }


def test_formula_clause_given_out_of_order():
    # Cnf stores (2, 1) as (1, 2), so the axiom matches it in either order.
    f = Cnf(2, ((2, 1), (-1,), (-2,)))
    for written in ((1, 2), (2, 1)):
        trace = ResolutionTrace(
            (Axiom(written), Axiom((-1,)), Infer(1, 2, 1, (2,)), Axiom((-2,)), Infer(3, 4, 2, ()))
        )
        want = ProofMetrics(length=5, width=2, clause_space=5)
        assert check_refutation(f, trace) == want
        assert check_trace_text(f, format_trace(trace)) == want
    # clauses given as lists are checked like tuples
    listed = ResolutionTrace(
        (Axiom([2, 1]), Axiom([-1]), Infer(1, 2, 1, [2]), Axiom([-2]), Infer(3, 4, 2, []))
    )
    assert check_refutation(f, listed) == want
    # and formatted like their tuple twin, the trace written (2, 1) above
    assert format_trace(listed) == format_trace(trace)


def test_check_rejects_foreign_axiom():
    f, _ = simple_refutation()
    trace = ResolutionTrace((Axiom((2,)),))
    with pytest.raises(VerificationError) as exc:
        check_refutation(f, trace)
    assert "axiom" in str(exc.value)
    assert exc.value.index == 0


def test_check_rejects_wrong_resolvent():
    f, _ = simple_refutation()
    trace = ResolutionTrace(
        (Axiom((1,)), Axiom((-1, 2)), Infer(1, 2, 1, (2, 1)))
    )
    with pytest.raises(VerificationError):
        check_refutation(f, trace)


def test_check_rejects_dead_premise():
    f, _ = simple_refutation()
    trace = ResolutionTrace(
        (
            Axiom((1,)),
            Axiom((-1, 2)),
            Erase(1),
            Infer(1, 2, 1, (2,)),
        )
    )
    with pytest.raises(VerificationError) as exc:
        check_refutation(f, trace)
    assert "not live" in str(exc.value)


def test_check_requires_live_empty_clause():
    f, _ = simple_refutation()
    trace = ResolutionTrace((Axiom((1,)),))
    with pytest.raises(VerificationError) as exc:
        check_refutation(f, trace)
    assert "empty clause" in str(exc.value)
    # deriving but then erasing the empty clause is also incomplete
    full = simple_refutation()[1]
    erased = ResolutionTrace(full.events + (Erase(5),))
    with pytest.raises(VerificationError):
        check_refutation(f, erased)


def test_clause_space_counts_peak():
    f, trace = simple_refutation()
    # nothing erased: all five events stay live
    assert check_refutation(f, trace).clause_space == 5
    # erasing the used-up axiom after the first inference lowers the peak
    lean = ResolutionTrace(
        (
            Axiom((1,)),
            Axiom((-1, 2)),
            Infer(1, 2, 1, (2,)),
            Erase(1),
            Erase(2),
            Axiom((-2,)),  # ids count only a/r events, so this is id 4
            Infer(3, 4, 2, ()),
        )
    )
    assert check_refutation(f, lean).clause_space == 3


def test_width_is_max_clause_size():
    g = build_family(FamilySpec.pyramid(1))
    f = pebbling_contradiction(g, 2)
    moves = black_strategy(FamilySpec.pyramid(1))
    trace = validate_pebbling(g, moves, game="black")
    rtrace = compile_pebbling(g, 2, trace)
    metrics = check_refutation(f, rtrace)
    assert metrics.width == max(
        len(e.clause) for e in rtrace.events if hasattr(e, "clause")
    )


def test_format_round_trip():
    _, trace = simple_refutation()
    text = format_trace(trace)
    again = parse_trace(text)
    assert again == trace
    assert format_trace(again) == text


def test_trace_text_shape():
    _, trace = simple_refutation()
    lines = format_trace(trace).splitlines()
    assert len(lines) == len(trace)
    assert lines[0] == "a 1 0"
    assert lines[2] == "r 1 2 1 2 0"
    assert lines[4] == "r 3 4 2 0"


def test_parse_trace_errors():
    with pytest.raises(ParseError):
        parse_trace("a 1")  # missing 0
    with pytest.raises(ParseError):
        parse_trace("r 1 2 0")  # too short
    with pytest.raises(ParseError):
        parse_trace("x 1 0")
    with pytest.raises(ParseError):
        parse_trace("e x")


def test_erase_line_round_trip():
    trace = ResolutionTrace((Axiom((1,)), Erase(1)))
    assert format_trace(trace) == "a 1 0\ne 1\n"
    assert parse_trace("a 1 0\ne 1\n") == trace


def test_fuzz_mutated_traces_rejected():
    """Random single-event corruptions of a valid refutation must be caught."""
    rng = random.Random(SEED)
    g = build_family(FamilySpec.pyramid(2))
    f = pebbling_contradiction(g, 1)
    moves = black_strategy(FamilySpec.pyramid(2))
    ptrace = validate_pebbling(g, moves, game="black")
    rtrace = compile_pebbling(g, 1, ptrace)
    check_refutation(f, rtrace)  # sanity: the original is fine
    events = list(rtrace.events)
    rejected = 0
    trials = 0
    for _ in range(200):
        i = rng.randrange(len(events))
        ev = events[i]
        mutated = list(events)
        if isinstance(ev, Axiom):
            mutated[i] = Axiom(tuple(l + 1 for l in ev.clause))
        elif isinstance(ev, Infer):
            kind = rng.choice(["clause", "premise", "pivot"])
            if kind == "clause" and ev.clause:
                mutated[i] = Infer(ev.left, ev.right, ev.pivot, ev.clause[:-1])
            elif kind == "premise":
                mutated[i] = Infer(ev.left + 1000, ev.right, ev.pivot, ev.clause)
            else:
                mutated[i] = Infer(ev.left, ev.right, ev.pivot + 1, ev.clause)
        else:
            mutated[i] = Erase(ev.id + 1000)
        trials += 1
        try:
            check_refutation(f, ResolutionTrace(tuple(mutated)))
        except VerificationError:
            rejected += 1
    assert trials == 200
    assert rejected == trials  # no corruption slips through


# --- equivalence with the first implementations ------------------------------
#
# Reference copies of resolve and check_refutation as first written (keyed
# sort, canonicalise everything), kept to pin the faster ones: same results,
# same exceptions, same messages and event indices.


def ref_canon(lits):
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l < 0)))


def ref_resolve(c1, c2, pivot):
    if pivot <= 0:
        raise BadPivot(f"pivot must be a positive variable, got {pivot}")
    if pivot not in c1:
        raise BadPivot(f"pivot {pivot} not positive in first clause")
    if -pivot not in c2:
        raise BadPivot(f"pivot {pivot} not negative in second clause")
    lits = [l for l in c1 if l != pivot] + [l for l in c2 if l != -pivot]
    if any(-l in set(lits) for l in lits):
        raise TautologicalResolvent(f"resolvent on {pivot} is tautological")
    return ref_canon(lits)


def ref_check_refutation(f, trace):
    axioms = set(f.clauses)
    live = {}
    next_id = 1
    length = width = space = 0
    for idx, ev in enumerate(trace.events):
        if isinstance(ev, Axiom):
            cl = ref_canon(ev.clause)
            if cl not in axioms:
                raise VerificationError(f"axiom {cl} not in formula", index=idx)
            live[next_id] = cl
            next_id += 1
            length += 1
            width = max(width, len(cl))
        elif isinstance(ev, Infer):
            for ref in (ev.left, ev.right):
                if ref not in live:
                    raise VerificationError(f"premise {ref} not live", index=idx)
            try:
                res = ref_resolve(live[ev.left], live[ev.right], ev.pivot)
            except (BadPivot, TautologicalResolvent) as e:
                raise VerificationError(str(e), index=idx) from None
            stated = ref_canon(ev.clause)
            if res != stated:
                raise VerificationError(
                    f"stated clause {stated} differs from resolvent {res}", index=idx
                )
            live[next_id] = res
            next_id += 1
            length += 1
            width = max(width, len(res))
        else:
            if ev.id not in live:
                raise VerificationError(f"erased id {ev.id} not live", index=idx)
            del live[ev.id]
        space = max(space, len(live))
    if () not in live.values():
        raise VerificationError("final live set lacks the empty clause")
    return ProofMetrics(length=length, width=width, clause_space=space)


def outcome(fn, *args):
    """The result of a call, or the type, message and index it raised."""
    try:
        return fn(*args)
    except (BadPivot, TautologicalResolvent, VerificationError) as e:
        return "raised", type(e), str(e), getattr(e, "index", None)


def test_resolve_matches_reference():
    rng = random.Random(SEED)
    raised = 0
    for _ in range(4000):
        c1 = [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(rng.randint(0, 6))]
        c2 = [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(rng.randint(0, 6))]
        pivot = rng.randint(-1, 6)
        if rng.random() < 0.7 and pivot > 0:  # mostly well-formed steps
            c1.insert(rng.randint(0, len(c1)), pivot)
            c2.insert(rng.randint(0, len(c2)), -pivot)
        c1, c2 = tuple(c1), tuple(c2)
        got = outcome(resolve, c1, c2, pivot)
        assert got == outcome(ref_resolve, c1, c2, pivot), (c1, c2, pivot)
        raised += got[:1] == ("raised",)
    assert 500 < raised < 3500  # both branches are exercised


def scramble(rng, clause):
    """The same literal set, possibly out of order or with a duplicate."""
    lits = list(clause)
    rng.shuffle(lits)
    if lits and rng.random() < 0.3:
        lits.append(rng.choice(lits))
    return tuple(lits)


def test_check_refutation_matches_reference():
    rng = random.Random(SEED)
    bases = []
    for spec in (FamilySpec.chain(3), FamilySpec.pyramid(1), FamilySpec.pyramid(2)):
        g = build_family(spec)
        ptrace = validate_pebbling(g, black_strategy(spec), game="black")
        for d in (1, 2):
            bases.append((pebbling_contradiction(g, d), compile_pebbling(g, d, ptrace)))
    verdicts = set()
    for _ in range(400):
        f, rtrace = rng.choice(bases)
        if rng.random() < 0.3:  # a formula holding non-canonical clauses
            f = Cnf(f.num_vars, tuple(c[::-1] if rng.random() < 0.2 else c for c in f.clauses))
        events = []
        for ev in rtrace.events:
            if isinstance(ev, Axiom) and rng.random() < 0.2:
                ev = Axiom(scramble(rng, ev.clause))
            elif isinstance(ev, Infer) and rng.random() < 0.2:
                ev = Infer(ev.left, ev.right, ev.pivot, scramble(rng, ev.clause))
            events.append(ev)
        if rng.random() < 0.5:
            i = rng.randrange(len(events))
            ev = events[i]
            if isinstance(ev, Axiom):
                events[i] = Axiom(tuple(l + 1 for l in ev.clause))
            elif isinstance(ev, Infer):
                events[i] = rng.choice(
                    (
                        Infer(ev.left, ev.right, ev.pivot, ev.clause[:-1]),
                        Infer(ev.left, ev.right, ev.pivot + 1, ev.clause),
                        Infer(ev.right, ev.left, ev.pivot, ev.clause),
                    )
                )
            else:
                events[i] = Erase(ev.id + 1)
        trace = ResolutionTrace(tuple(events))
        got = outcome(check_refutation, f, trace)
        assert got == outcome(ref_check_refutation, f, trace)
        # "ok", or the first word of the reason: axiom, stated, premise, ...
        verdicts.add(got[2].split(": ")[-1].split()[0] if isinstance(got, tuple) else "ok")
    assert {"ok", "axiom", "stated", "final"} <= verdicts


def test_stated_clause_compared_as_a_set():
    """The checker compares a stated clause with the resolvent as a set of
    the same length.  A repeated literal standing in for a missing one is
    rejected, and a permuted or list clause is accepted, exactly as by the
    reference checker and by the text checker."""
    f = Cnf(4, ((1, 2, 3), (-1, 4), (-2,), (-3,), (-4,)))
    head = (Axiom((1, 2, 3)), Axiom((-1, 4)))
    tail = (
        Axiom((-2,)), Infer(3, 4, 2, (3, 4)), Axiom((-3,)), Infer(5, 6, 3, (4,)),
        Axiom((-4,)), Infer(7, 8, 4, ()),
    )
    spec = FamilySpec.pyramid(2)
    g = build_family(spec)
    compiled = compile_pebbling(g, 2, validate_pebbling(g, black_strategy(spec), game="black"))
    cases = [
        (f, head + (Infer(1, 2, 1, (2, 3, 4)),) + tail),
        (pebbling_contradiction(g, 2), compiled.events),
    ]
    for f, events in cases:
        want = ref_check_refutation(f, ResolutionTrace(events))
        infers = [i for i, ev in enumerate(events) if isinstance(ev, Infer)]
        variants = []
        for i in infers:
            ev = events[i]
            lits = ev.clause
            for j, k in product(range(len(lits)), repeat=2):
                if j != k:  # lits[j] replaced by a copy of lits[k]
                    bad = lits[:j] + (lits[k],) + lits[j + 1 :]
                    variants.append((i, Infer(ev.left, ev.right, ev.pivot, bad), "stated"))
            for clause in (lits[::-1], lits[1:] + lits[:1], list(lits), list(lits[::-1])):
                variants.append((i, Infer(ev.left, ev.right, ev.pivot, clause), "ok"))
        assert {v for *_, v in variants} == {"stated", "ok"}
        for i, ev, verdict in variants:
            trace = ResolutionTrace(events[:i] + (ev,) + events[i + 1 :])
            got = outcome(check_refutation, f, trace)
            if verdict == "ok":
                assert got == want
            else:
                assert got[:2] == ("raised", VerificationError) and got[3] == i
                assert got[2].startswith(f"event {i + 1}: stated clause "), got
                assert " differs from resolvent " in got[2]
            assert got == outcome(ref_check_refutation, f, trace)
            assert got == outcome(check_trace_text, f, format_trace(trace))
            assert got == outcome(check_trace_text, f, ref_format_trace(trace))


# --- the one-pass text checker against parse-then-check ----------------------
#
# Verbatim copies of parse_trace and check_refutation as they were before the
# text checker existed (events first, then a second walk that canonicalises
# only on a miss), kept to pin check_trace_text: same metrics, or the same
# exception type, message, line and event index.  On a text that does not
# parse, the reference is the first fault in line order: a failed event
# before the first malformed line, else that line's ParseError.


def ref_check_refutation_on_miss(f: Cnf, trace: ResolutionTrace) -> ProofMetrics:
    axioms = {cl for cl in f.clauses if canon_clause(cl) == cl}
    live: dict[int, Clause] = {}
    next_id = 1
    length = 0
    width = 0
    space = 0
    for idx, ev in enumerate(trace.events):
        if isinstance(ev, Axiom):
            cl = ev.clause
            if not (type(cl) is tuple and cl in axioms):  # lists do not hash
                cl = canon_clause(cl)
                if cl not in axioms:
                    raise VerificationError(f"axiom {cl} not in formula", index=idx)
            live[next_id] = cl
            next_id += 1
            length += 1
            width = max(width, len(cl))
        elif isinstance(ev, Infer):
            for ref in (ev.left, ev.right):
                if ref not in live:
                    raise VerificationError(f"premise {ref} not live", index=idx)
            try:
                res = resolve(live[ev.left], live[ev.right], ev.pivot)
            except (BadPivot, TautologicalResolvent) as e:
                raise VerificationError(str(e), index=idx) from None
            if res != ev.clause:
                stated = canon_clause(ev.clause)
                if res != stated:
                    raise VerificationError(
                        f"stated clause {stated} differs from resolvent {res}", index=idx
                    )
            live[next_id] = res
            next_id += 1
            length += 1
            width = max(width, len(res))
        elif isinstance(ev, Erase):
            if ev.id not in live:
                raise VerificationError(f"erased id {ev.id} not live", index=idx)
            del live[ev.id]
        else:  # pragma: no cover - event union is closed
            raise VerificationError(f"unknown event {ev!r}", index=idx)
        space = max(space, len(live))
    if () not in live.values():
        raise VerificationError("final live set lacks the empty clause")
    return ProofMetrics(length=length, width=width, clause_space=space)


def ref_parse_trace(text: str) -> ResolutionTrace:
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "a":
                lits = list(map(int, parts[1:]))
                if not lits or lits[-1] != 0:
                    raise ParseError("axiom line missing trailing 0", lineno)
                events.append(Axiom(canon_clause(lits[:-1])))
            elif parts[0] == "r":
                nums = list(map(int, parts[1:]))
                if len(nums) < 4 or nums[-1] != 0:
                    raise ParseError("bad inference line", lineno)
                left, right, pivot = nums[0], nums[1], nums[2]
                events.append(Infer(left, right, pivot, canon_clause(nums[3:-1])))
            elif parts[0] == "e":
                if len(parts) != 2:
                    raise ParseError("bad erase line", lineno)
                events.append(Erase(int(parts[1])))
            else:
                raise ParseError(f"unknown line type {parts[0]!r}", lineno)
        except ValueError:
            raise ParseError(f"bad integer in {line!r}", lineno) from None
    return ResolutionTrace(tuple(events))


def ref_first_fault(f: Cnf, text: str) -> ProofMetrics:
    """``ref_check_refutation(f, ref_parse_trace(text))``, or on a text that
    does not parse, the first event fault before its first malformed line,
    else that line's ParseError."""
    try:
        trace = ref_parse_trace(text)
    except ParseError as bad:
        head = ref_parse_trace("\n".join(text.splitlines()[: bad.line - 1]))
        try:
            ref_check_refutation(f, head)
        except VerificationError as e:
            if e.index is not None:  # not the final check, which the line precedes
                raise
        raise
    return ref_check_refutation(f, trace)


def text_outcome(fn, *args):
    """The metrics of a call, or the type, message, line and event index of
    the domain error it raised."""
    try:
        return fn(*args)
    except (ParseError, VerificationError) as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "index", None)


def mutate_trace(rng, text):
    """One random corruption of a trace text."""
    lines = text.splitlines()
    heads = {"a": 1, "r": 4, "e": 2}  # tokens before the literals
    wellformed = [
        i
        for i, toks in enumerate(line.split() for line in lines)
        if toks and toks[0] in heads and all(t.lstrip("-").isdigit() for t in toks[1:])
    ]
    if not wellformed:
        return text
    i = rng.choice(wellformed)
    toks = lines[i].split()
    head = heads[toks[0]]
    lits = toks[head:-1]
    kind = rng.choice(
        (
            "drop", "duplicate", "swap", "literal", "pivot", "id", "rewire", "word",
            "no-zero", "extra", "type", "comment", "blank", "reorder", "repeat-literal",
            "truncate",
        )
    )
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = min(i + rng.randint(1, 3), len(lines) - 1)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "literal" and lits:
        j = head + rng.randrange(len(lits))
        toks[j] = str(rng.choice((-int(toks[j]), int(toks[j]) + 1)))
    elif kind == "pivot" and toks[0] == "r":
        toks[3] = str(int(toks[3]) + rng.choice((-1, 1, 3)))
    elif kind == "id" and toks[0] != "a":
        toks[1] = str(int(toks[1]) + rng.choice((-1, 1, 1000)))
    elif kind == "rewire" and toks[0] == "r":  # other premises, same pivot
        toks[1:3] = (str(rng.randint(1, int(toks[1]) + 2)) for _ in range(2))
    elif kind == "word":
        toks[rng.randrange(1, len(toks))] = rng.choice(("x", "1.5", "--", "0x1"))
    elif kind == "no-zero" and toks[0] != "e":
        del toks[-1]
    elif kind == "extra":
        toks.append(rng.choice(("0", "1", "-2")))
    elif kind == "type":
        toks[0] = rng.choice(("x", "#", "A", "ax", "ee"))
    elif kind == "comment":
        lines.insert(i, rng.choice(("c", "c a 1 0", "  comment")))
    elif kind == "blank":
        lines.insert(i, rng.choice(("", "   ", "\t")))
    elif kind == "reorder" and lits:
        rng.shuffle(lits)
        toks[head:-1] = lits
    elif kind == "repeat-literal" and lits:
        lits.insert(rng.randrange(len(lits) + 1), rng.choice(lits))
        toks[head:-1] = lits
    elif kind == "truncate":
        return text[: rng.randrange(len(text))]
    if kind not in ("drop", "duplicate", "swap", "comment", "blank"):
        pads = ("", "", " ", "\t")
        lines[i] = rng.choice(pads) + " ".join(toks) + rng.choice(pads)
    return "\n".join(lines) + "\n"


def test_check_trace_text_matches_parse_then_check():
    rng = random.Random(SEED)
    bases = []
    for spec, d in (
        (FamilySpec.chain(3), 1),
        (FamilySpec.pyramid(1), 2),
        (FamilySpec.pyramid(2), 2),
        (FamilySpec.binary_tree(2), 2),
        (FamilySpec.carlson_savage(2, 1), 1),
    ):
        g = build_family(spec)
        ptrace = validate_pebbling(g, black_strategy(spec), game="black")
        text = format_trace(compile_pebbling(g, d, ptrace))
        bases.append((pebbling_contradiction(g, d), text))
    cases = []
    for trial in range(1500):
        f, text = rng.choice(bases)
        if trial % 10:  # one text in ten is left as compiled
            for _ in range(rng.choice((1, 1, 2, 3))):
                text = mutate_trace(rng, text)
        cases.append((f, text))
    # All four clauses over two variables, with the last inference rewired in
    # every way: some rewirings resolve into a tautology.
    full = Cnf(2, ((1, 2), (-1, 2), (1, -2), (-1, -2)))
    head = "a 1 2 0\na -1 2 0\nr 1 2 1 2 0\na 1 -2 0\na -1 -2 0\nr 4 5 1 -2 0\n"
    for left, right, pivot in product(range(1, 7), range(1, 7), (1, 2)):
        cases.append((full, head + f"r {left} {right} {pivot} 0\n"))
    verdicts = set()
    for f, text in cases:
        got = text_outcome(check_trace_text, f, text)
        assert got == text_outcome(ref_first_fault, f, text), text
        trace = text_outcome(ref_parse_trace, text)
        assert text_outcome(parse_trace, text) == trace
        if isinstance(trace, ResolutionTrace):  # the text parses
            assert got == text_outcome(ref_check_refutation_on_miss, f, trace)
            assert got == text_outcome(check_refutation, f, trace)
        if isinstance(got, ProofMetrics):
            verdicts.add("ok")
        elif got[0] is ParseError:
            verdicts.add("parse")
        else:  # the first word of the reason: axiom, stated, premise, ...
            verdicts.add(got[1].split(": ")[-1].split()[0])
    assert verdicts == {
        "ok", "parse", "axiom", "premise", "pivot", "resolvent", "stated", "erased", "final"
    }


def test_malformed_line_refused_alike_by_both_callers():
    """Each malformed line shape, after an axiom and a comment line, is the
    same ParseError from parse_trace, from the checker and from the
    verbatim ref_parse_trace: one reader holds the grammar for both
    callers."""
    f, _ = simple_refutation()
    for line in (
        "a", "a 1", "a 1 x 0", "r", "r 1 2", "r 1 2 0", "r 1 2 1", "r 1 x 1 0",
        "e", "e 1 2", "e x", "x 1 0", "ax 1 0",
    ):
        text = f"a 1 0\ncomment\n{line}\n"
        want = text_outcome(ref_parse_trace, text)
        assert want[0] is ParseError and want[2] == 3, line
        assert text_outcome(parse_trace, text) == want, line
        assert text_outcome(check_trace_text, f, text) == want, line


def test_parse_error_after_a_verification_failure():
    """The checker stops at the first fault in line order: a misstated
    event is reported whether or not a malformed line follows it, and a
    malformed line before it is reported in its place."""
    f, _ = simple_refutation()
    wrong = "a 1 0\na -1 2 0\nr 1 2 1 1 0\na -2 0\n"  # the third event misstates
    for text in (wrong, wrong + "r 3 4 2 x\n"):
        with pytest.raises(VerificationError) as exc:
            check_trace_text(f, text)
        assert exc.value.index == 2
        assert str(exc.value) == "event 3: stated clause (1,) differs from resolvent (2,)"
    with pytest.raises(ParseError) as exc:
        check_trace_text(f, "a 1 0\na -1 2 0\nr 3 4 2 x\nr 1 2 1 1 0\na -2 0\n")
    assert exc.value.line == 3
    assert str(exc.value) == "line 3: bad integer in 'r 3 4 2 x'"


def test_refused_trace_leaves_no_reference_cycle():
    """A refused trace's clauses are freed with its error, not at the next
    collection: the checker's frame holds no reference to the error whose
    traceback holds that frame."""
    f, _ = simple_refutation()
    gc.collect()
    gc.disable()
    try:
        try:
            check_trace_text(f, "a 1 0\na -1 2 0\nr 1 2 1 1 0\na -2 0\n")
        except VerificationError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the trace writer against its first form -----------------------------------


def ref_format_trace(trace: ResolutionTrace) -> str:
    """format_trace before its literal cache, verbatim."""
    lines = []
    for ev in trace.events:
        if isinstance(ev, Axiom):
            lines.append("a " + " ".join(map(str, (*ev.clause, 0))))
        elif isinstance(ev, Infer):
            lits = " ".join(map(str, (*ev.clause, 0)))
            lines.append(f"r {ev.left} {ev.right} {ev.pivot} {lits}")
        else:
            lines.append(f"e {ev.id}")
    return "\n".join(lines) + ("\n" if lines else "")


def blob_play(g):
    """A complete blob pebbling: [v]<> for each vertex in id order, merging
    [u]<> into v's axiom for each predecessor u."""
    moves, ids, done = [], count(), {}
    for v in range(g.n):
        cur = next(ids)
        moves.append(IntroduceMove(v))
        for u in g.preds[v]:
            moves += [MergeMove(done[u], cur, u), EraseMove(cur)]
            cur = next(ids)
        done[v] = cur
    return validate_blob_pebbling(g, moves)


def test_format_trace_matches_reference():
    specs = [
        FamilySpec.chain(4),
        FamilySpec.pyramid(2),
        FamilySpec.binary_tree(2),
        FamilySpec.carlson_savage(2, 1),
    ]
    traces = []
    for spec in specs:
        g = build_family(spec)
        black = validate_pebbling(g, black_strategy(spec), game="black")
        for d in range(1, 9):
            for starred in (False, True):
                traces.append(compile_pebbling(g, d, black, starred=starred))
        for starred in (False, True):
            traces.append(compile_pebbling(g, 1, blob_play(g), starred=starred))
    assert len(traces) == len(specs) * 18
    big = 2**70
    traces += [
        ResolutionTrace(()),
        ResolutionTrace((Axiom(()),)),
        ResolutionTrace((Axiom([3, -1, 2]), Infer(1, 1, 1, []), Infer(2, 1, 5, [-5, 5, 0]))),
        ResolutionTrace(
            (Axiom((big, -big, -1)), Infer(-3, big, -big, (-(big + 1), 0, 7)), Erase(-big), Erase(0))
        ),
    ]
    for trace in traces:
        assert format_trace(trace) == ref_format_trace(trace)
