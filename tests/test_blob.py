"""Tests for blob subconfigurations, moves, costs, and trace validation."""

import random
import re
import tracemalloc
from itertools import count

import pytest

from pebble_bench import (
    BadInflation,
    BadMerge,
    BlobSubconfig,
    BlobTrace,
    Dag,
    EraseMove,
    FamilySpec,
    GraphError,
    IllegalMove,
    IncompletePebbling,
    InflateMove,
    IntroduceMove,
    MergeMove,
    build_family,
    format_blob_moves,
    parse_blob_moves,
    sub,
    validate_blob_pebbling,
)
from pebble_bench.blob import (
    BlobConfig,
    _charge,
    _merge,
    _shape_problem,
)

SEED = 313


# --- set definitions, the references for the bitmask rules --------------------


def is_chain(g, blob):
    """True iff the blob is totally ordered by reachability."""
    vs = sorted(blob)
    return all(g.reaches(a, b) for a, b in zip(vs, vs[1:]))


def legal_pebble_positions(g, blob):
    """Vertices where a white supporting this blob may sit.

    For a chain blob b1 < b2 < ... < bk these are the vertices strictly
    below b1 together with the vertices lying on a path segment between two
    consecutive blob vertices, minus the blob itself.
    """
    vs = sorted(blob)
    out = {u for u in range(g.n) if u != vs[0] and g.reaches(u, vs[0])}
    for a, b in zip(vs, vs[1:]):
        out |= {u for u in range(g.n) if g.reaches(a, u) and g.reaches(u, b)}
    return frozenset(out - blob)


def chargeable_vertices(g, s):
    """Blob vertices plus whites strictly below the blob's bottom vertex."""
    bottom = min(s.blob)
    return s.blob | {w for w in s.whites if w != bottom and g.reaches(w, bottom)}


def outcome(validate, g, moves, **flags):
    """The trace's figures, or the error's type, message and move index."""
    try:
        t = validate(g, moves, **flags)
    except (IllegalMove, IncompletePebbling) as e:
        return type(e), str(e), getattr(e, "index", None)
    return t.cost, t.naive_cost, t.final, t.moves


def refusal(g, text, **flags):
    """The error's type and message for a play the validator refuses."""
    kind, message, _ = outcome(validate_blob_pebbling, g, parse_blob_moves(text), **flags)
    return kind, message


def made(g, text):
    """The subconfiguration the play's last move creates, as the validator
    names it when that move is made again."""
    last = text.splitlines()[-1]
    kind, message = refusal(g, f"{text}\n{last}")
    assert kind is IllegalMove and "duplicate subconfiguration " in message, message
    return message.split("duplicate subconfiguration ")[1]


def edge_graph():
    return Dag(2, [(0, 1)], targets=[1])


def diamond():
    # 0 -> 1 -> 3, 0 -> 2 -> 3
    return Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], targets=[3])


def test_subconfig_invariants():
    with pytest.raises(Exception):
        BlobSubconfig(frozenset(), frozenset({1}))  # empty blob
    with pytest.raises(Exception):
        sub([1], [1])  # overlap
    s = sub([2, 1], [3])
    assert str(s) == "[1,2]<3>"


def test_introduce():
    g = diamond()
    assert made(g, "I 3") == "[3]<1,2>"
    assert made(g, "I 0") == "[0]<>"


def test_merge_moves_pivot():
    g = edge_graph()
    # [0]<> and [1]<0> merge on 0 into [1]<>, which completes the play
    trace = validate_blob_pebbling(g, parse_blob_moves("I 0\nI 1\nM 0 1 0"))
    assert trace.final.subs == {sub([0]), sub([1], [0]), sub([1])}


def test_merge_requires_pivot_in_blob_and_white():
    g = edge_graph()
    assert refusal(g, "I 0\nI 1\nM 1 0 0") == (BadMerge, "move 3: pivot 0 not in first blob")
    assert refusal(g, "I 0\nI 1\nM 0 0 0") == (
        BadMerge,
        "move 3: pivot 0 not white in second subconfiguration",
    )
    assert refusal(g, "I 0\nI 1\nM 0 1 -1") == (BadMerge, "move 3: pivot -1 not in first blob")


def test_merge_requires_disjoint_result():
    g = diamond()
    # [2,3]<0,1> and [1]<0,2> on pivot 2: 1 is black and white in the result.
    play = "I 3\nI 2\nM 1 0 2\nF 2 2,3|0,1\nI 1\nF 4 1|0,2\nM 3 5 2"
    assert refusal(g, play) == (BadMerge, "move 7: merge result not disjoint")


def test_merge_unions_components():
    # [2]<0> and [3]<1,2> on 2
    assert made(diamond(), "I 2\nI 3\nM 0 1 2") == "[3]<0,1>"


def test_inflate_superset_rules():
    g = diamond()
    # [3]<1,2> grows both components; a legal play that does not finish
    with pytest.raises(IncompletePebbling):
        validate_blob_pebbling(g, parse_blob_moves("I 3\nF 0 0,3|1,2"))
    assert refusal(g, "I 3\nF 0 3|0,1") == (BadInflation, "move 2: whites not superset")
    assert refusal(g, "I 3\nF 0 0,3|1,2\nF 1 3|0,1,2") == (
        BadInflation,
        "move 3: blob not superset",
    )


def test_inflation_overlap_is_refused_by_the_target():
    # the target subconfiguration refuses the overlap before inflate runs
    g = build_family(FamilySpec.chain(3))
    with pytest.raises(IllegalMove) as exc:
        validate_blob_pebbling(g, parse_blob_moves("I 0\nF 0 0|0"))
    assert str(exc.value) == "move 2: blob and whites overlap"


def test_strict_inflation_shape():
    g = diamond()
    # growing the whites inside the blob's legal positions is fine
    with pytest.raises(IncompletePebbling):
        validate_blob_pebbling(g, parse_blob_moves("I 3\nF 0 3|0,1,2"), strict=True)
    # blob [1,3] only admits whites below 1 or between 1 and 3, i.e. just 0;
    # the white 2 falls outside, so only strict mode rejects the inflation
    bad_white = "I 1\nF 0 1,3|0,2"
    with pytest.raises(IncompletePebbling):
        validate_blob_pebbling(g, parse_blob_moves(bad_white))
    assert refusal(g, bad_white, strict=True) == (
        BadInflation,
        "move 2: white pebble outside legal positions",
    )
    # blob {1,2} is not a chain (no path between the branches)
    assert refusal(g, "I 1\nF 0 1,2|0", strict=True) == (BadInflation, "move 2: blob not a chain")


def test_strict_shape_matches_set_definitions():
    """The bitmask test against is_chain and legal_pebble_positions on
    every disjoint (blob, whites) pair of some small graphs."""
    graphs = [diamond(), edge_graph(), build_family(FamilySpec.chain(4))]
    graphs += [build_family(FamilySpec.pyramid(1)), build_family(FamilySpec.binary_tree(1))]
    rng = random.Random(SEED)
    for _ in range(20):
        n = rng.randint(3, 6)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        graphs.append(Dag(n, edges))
    for g in graphs:
        full = (1 << g.n) - 1
        for blob_mask in range(1, full + 1):
            rest = full & ~blob_mask
            whites_mask = rest
            while True:
                blob = frozenset(v for v in range(g.n) if blob_mask >> v & 1)
                whites = frozenset(v for v in range(g.n) if whites_mask >> v & 1)
                if not is_chain(g, blob):
                    want = "blob not a chain"
                elif not whites <= legal_pebble_positions(g, blob):
                    want = "white pebble outside legal positions"
                else:
                    want = None
                assert _shape_problem(g, blob_mask, whites_mask) == want, (g, blob, whites)
                if not whites_mask:
                    break
                whites_mask = (whites_mask - 1) & rest


def test_legal_pebble_positions():
    g = build_family(FamilySpec.chain(4))
    # blob {1,3}: strict ancestors of 1 = {0}; between 1 and 3 = {2}
    assert legal_pebble_positions(g, frozenset({1, 3})) == frozenset({0, 2})


def test_chargeable_only_below_bottom():
    g = build_family(FamilySpec.chain(4))
    s = sub([2], [0, 1, 3])
    # bottom is 2: whites 0 and 1 are strict ancestors (chargeable), 3 is not
    assert chargeable_vertices(g, s) == frozenset({0, 1, 2})
    assert _charge(g.below, 0b100, 0b1011) == 0b111
    # The bitmask rule against the set definition, on every disjoint
    # (blob, whites) pair of a diamond and a pyramid.
    for g in (diamond(), build_family(FamilySpec.pyramid(2))):
        masks = range(1 << g.n)
        for blob, whites in ((b, w) for b in masks[1:] for w in masks if not b & w):
            s = sub(*([v for v in range(g.n) if m >> v & 1] for m in (blob, whites)))
            want = sum(1 << v for v in chargeable_vertices(g, s))
            assert _charge(g.below, blob, whites) == want, s


def test_inflation_can_reduce_chargeable_cost():
    # fattening the blob downward past its whites strips their charge
    g = build_family(FamilySpec.chain(5))
    a = sub([4], [1, 2, 3])
    b = sub([0, 4], [1, 2, 3])
    assert len(chargeable_vertices(g, a)) == 4  # bottom 4, whites 1,2,3 below it
    assert len(chargeable_vertices(g, b)) == 2  # bottom 0, no white below it
    # [4]<3> inflates to a, then to b, in strict play
    with pytest.raises(IncompletePebbling):
        validate_blob_pebbling(g, parse_blob_moves("I 4\nF 0 4|1,2,3\nF 1 0,4|1,2,3"), strict=True)


def test_validate_blob_trace_on_edge():
    g = edge_graph()
    moves = parse_blob_moves("I 1\nI 0\nM 1 0 0\nE 0\nE 1")
    trace = validate_blob_pebbling(g, moves)
    assert trace.cost == 2
    assert trace.naive_cost == 3
    assert [str(m) for m in trace.moves] == ["I 1", "I 0", "M 1 0 0", "E 0", "E 1"]
    assert trace.report() == {"cost": 2, "naive_cost": 3, "moves_total": 5}


def test_validate_chain_play_in_small_memory():
    """Blob costs read the graph's reachability table, O(n^2) bits, not a
    vertex set per vertex."""
    n = 1000
    g = build_family(FamilySpec.chain(n))
    # introduce 0; for each v introduce v, merge on v - 1, erase both operands
    moves = [IntroduceMove(0)]
    for v in range(1, n):
        done, intro = 2 * v - 2, 2 * v - 1
        moves += [IntroduceMove(v), MergeMove(done, intro, v - 1)]
        moves += [EraseMove(done), EraseMove(intro)]
    tracemalloc.start()
    try:
        trace = validate_blob_pebbling(g, moves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (trace.cost, trace.naive_cost) == (2, 3)
    assert peak < 2 * 2**20, peak


def test_validate_blob_trace_errors():
    g = edge_graph()
    with pytest.raises(IllegalMove) as exc:
        validate_blob_pebbling(g, parse_blob_moves("I 1\nM 0 0 0"))
    assert "move 2" in str(exc.value)
    with pytest.raises(IllegalMove):
        validate_blob_pebbling(g, parse_blob_moves("E 5"))
    with pytest.raises(IncompletePebbling) as exc:
        validate_blob_pebbling(g, parse_blob_moves("I 0\nE 0"))
    assert "target 1" in str(exc.value)


OUTSIDE = [("0,5|", 5), ("0|99", 99), ("0|-3", -3), ("-1,0|", -1), ("-3,2|", -3), ("2|0,3", 3)]


@pytest.mark.parametrize("target, v", OUTSIDE)
def test_inflation_target_outside_the_graph(target, v):
    # A vertex >= n or negative, in the blob or the whites; list indexing
    # would read -3 as vertex n - 3.  The least one is named, and in strict
    # play before the shape test: no vertex outside the graph reaches it.
    g = build_family(FamilySpec.chain(3))
    for strict in (False, True):
        with pytest.raises(BadInflation) as exc:
            validate_blob_pebbling(g, parse_blob_moves(f"I 0\nF 0 {target}"), strict=strict)
        assert exc.value.index == 1
        assert str(exc.value) == f"move 2: vertex {v} out of range"


def test_completion_needs_unconditional_target():
    g = edge_graph()
    # [1]<0> still has a white pebble: not an unconditional claim on the target
    with pytest.raises(IncompletePebbling):
        validate_blob_pebbling(g, parse_blob_moves("I 1"))


def test_labelled_validation_rejects_fat_blobs():
    g = build_family(FamilySpec.chain(2))
    # an incomplete but legal prefix: growing [0]<> into the two-vertex blob
    moves = parse_blob_moves("I 0\nF 0 0,1|")
    with pytest.raises(IncompletePebbling):
        validate_blob_pebbling(g, moves, labelled_only=False)
    with pytest.raises(IllegalMove) as exc:
        validate_blob_pebbling(g, moves, labelled_only=True)
    assert "singleton" in str(exc.value)


def test_strict_validation_rejects_bad_whites():
    # a complete strict run on the edge graph
    g = edge_graph()
    ok = parse_blob_moves("I 1\nI 0\nM 1 0 0\nE 0\nE 1")
    assert validate_blob_pebbling(g, ok, strict=True).cost == 2
    # a white pebble on a vertex unrelated to the blob breaks strict shape
    g5 = Dag(5, [(0, 1), (0, 2), (1, 3), (2, 3)], targets=[3, 4])
    bad = parse_blob_moves("I 3\nF 0 3|1,2,4")
    with pytest.raises(IllegalMove):
        validate_blob_pebbling(g5, bad, strict=True)


def test_strict_validation_rejects_a_merge_that_is_not_a_chain():
    # [0,1]<> merged on 0 into [2]<0> gives the blob {1, 2}, two children of 0
    g = Dag(3, [(0, 1), (0, 2)])
    moves = parse_blob_moves("I 0\nF 0 0,1|\nI 2\nM 1 2 0")
    with pytest.raises(IllegalMove) as exc:
        validate_blob_pebbling(g, moves, strict=True)
    assert type(exc.value) is IllegalMove
    assert str(exc.value) == "move 4: blob not a chain: [1,2]<>"


def test_strict_shape_error_forms():
    """A strict inflation's shape problem is a BadInflation that names no
    subconfiguration; an introduction's or a merger's is an IllegalMove
    that names it."""
    g = Dag(3, [(0, 1), (0, 2)])
    assert refusal(g, "I 0\nF 0 0,1,2|", strict=True) == (BadInflation, "move 2: blob not a chain")
    assert refusal(g, "I 0\nF 0 0,1|\nI 2\nM 1 2 0", strict=True) == (
        IllegalMove,
        "move 4: blob not a chain: [1,2]<>",
    )
    # An introduction has the shape a strict play allows.
    with pytest.raises(IncompletePebbling):
        validate_blob_pebbling(g, parse_blob_moves("I 0\nI 1\nI 2"), strict=True)


def test_unknown_move_object():
    g = edge_graph()
    with pytest.raises(IllegalMove) as exc:
        validate_blob_pebbling(g, [IntroduceMove(0), "X"])
    assert str(exc.value) == "move 2: unknown move 'X'"


def test_duplicate_and_unknown_ids():
    g = edge_graph()
    with pytest.raises(IllegalMove):
        validate_blob_pebbling(g, parse_blob_moves("I 0\nI 0"))
    with pytest.raises(IllegalMove):
        validate_blob_pebbling(g, parse_blob_moves("I 0\nM 0 3 0"))


def test_cost_is_peak_not_final():
    g = build_family(FamilySpec.chain(3))
    moves = parse_blob_moves("I 1\nI 2\nI 0\nM 2 0 0\nE 0\nE 2\nM 3 1 1\nE 1\nE 3")
    trace = validate_blob_pebbling(g, moves)
    # peak happens while all three introductions are alive; the survivor is [2]<>
    assert trace.cost == 3
    assert sub([2], []) in trace.final.subs


def test_format_round_trip():
    text = "I 3\nF 0 3|0,1\nM 0 0 1\nE 0\n"
    moves = parse_blob_moves(text)
    assert format_blob_moves(moves) == text
    empty_whites = parse_blob_moves("I 0\nF 0 0|\n")
    assert format_blob_moves(empty_whites) == "I 0\nF 0 0|\n"
    assert format_blob_moves(iter([])) == ""


def test_parse_rejects_junk():
    from pebble_bench import ParseError

    with pytest.raises(ParseError):
        parse_blob_moves("I x")
    with pytest.raises(ParseError):
        parse_blob_moves("Z 1 2")
    with pytest.raises(ParseError):
        parse_blob_moves("F 0 |1")  # empty blob
    with pytest.raises(ParseError, match="^line 2: bad vertex list '0,x'$"):
        parse_blob_moves("I 0\nF 0 0,x|")
    with pytest.raises(ParseError, match=r"^line 1: inflation needs blob\|whites$"):
        parse_blob_moves("F 0 0")
    assert parse_blob_moves("c comment\nI 0\n") == [IntroduceMove(0)]


def test_blob_config_str():
    assert str(BlobConfig(frozenset({sub([1], [0]), sub([0])}))) == "{[0]<>, [1]<0>}"


def test_fuzz_merge_properties():
    """Random merges: the mask rule follows the set algebra."""

    def mask(vs):
        return sum(1 << v for v in vs)

    rng = random.Random(SEED)
    verts = range(4)
    trials = 0
    for _ in range(500):
        b1 = frozenset(rng.sample(verts, rng.randint(1, 2)))
        w1 = frozenset(v for v in verts if v not in b1 and rng.random() < 0.4)
        b2 = frozenset(rng.sample(verts, rng.randint(1, 2)))
        w2 = frozenset(v for v in verts if v not in b2 and rng.random() < 0.4)
        s1, s2 = (mask(b1), mask(w1)), (mask(b2), mask(w2))
        for p in b1 & w2:
            trials += 1
            assert _merge(s1, s2, 1 << p) == (mask((b1 - {p}) | b2), mask(w1 | (w2 - {p})))
    assert trials > 50


# --- the reference: the validator that replayed BlobSubconfig objects ---------
#
# Copied verbatim, with the single-move helpers it called, from before the
# validator replayed (blob, whites) mask pairs; only the names of the
# validator, introduce and merge differ.  _shape_problem and _charge are the
# module's own.


def reference_introduce(g: Dag, v: int) -> BlobSubconfig:
    """Download the pebbling axiom for v: [v]<preds(v)>."""
    if not (0 <= v < g.n):
        raise IllegalMove(f"vertex {v} out of range")
    return BlobSubconfig(frozenset({v}), frozenset(g.preds[v]))


def reference_merge(s1: BlobSubconfig, s2: BlobSubconfig, pivot: int) -> BlobSubconfig:
    """Merge s1 (pivot in blob) with s2 (pivot white) on the pivot vertex.

    The result is [(B1 - pivot) | B2]<W1 | (W2 - pivot)>, the game image of
    resolving the two corresponding clauses.
    """
    if pivot not in s1.blob:
        raise BadMerge(f"pivot {pivot} not in first blob")
    if pivot not in s2.whites:
        raise BadMerge(f"pivot {pivot} not white in second subconfiguration")
    blob = (s1.blob - {pivot}) | s2.blob
    whites = s1.whites | (s2.whites - {pivot})
    if blob & whites:
        raise BadMerge("merge result not disjoint")
    return BlobSubconfig(blob, whites)


def inflate(
    s: BlobSubconfig,
    target: BlobSubconfig,
    g: Dag,
    strict: bool = False,
) -> BlobSubconfig:
    """Weaken s to target.  Both components may only grow, staying disjoint,
    and every vertex of target must be in g.

    With ``strict`` the inflated subconfiguration must also keep its blob a
    chain and its whites inside the blob's legal pebble positions; see
    ``check_strict_shape``.
    """
    for v in sorted(target.blob | target.whites):
        if not 0 <= v < g.n:
            raise BadInflation(f"vertex {v} out of range")
    if not s.blob <= target.blob:
        raise BadInflation("blob not superset")
    if not s.whites <= target.whites:
        raise BadInflation("whites not superset")
    if strict:
        problem = check_strict_shape(g, target)
        if problem:
            raise BadInflation(problem)
    return target


def check_strict_shape(g: Dag, s: BlobSubconfig) -> str | None:
    """Strict-variant side conditions; returns a problem string or None."""

    def mask(vs) -> int:  # bit n stands for every vertex outside the graph
        return sum(1 << v for v in {v if 0 <= v < g.n else g.n for v in vs})

    return _shape_problem(g, mask(s.blob), mask(s.whites))


def _masks(g: Dag, s: BlobSubconfig) -> tuple[int, int]:
    """The blob and whites of s as bitmasks; GraphError for a vertex
    outside the graph."""
    for v in sorted(s.blob | s.whites):
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    return sum(1 << v for v in s.blob), sum(1 << v for v in s.whites)


def blob_cost(g: Dag, cfg: BlobConfig) -> dict:
    """Naive and chargeable cost of a configuration."""
    blobs = whites = charged = 0
    for s in cfg.subs:
        blob, white = _masks(g, s)
        blobs |= blob
        whites |= white
        charged |= _charge(g.below, blob, white)
    return {"naive": blobs.bit_count() + whites.bit_count(), "chargeable": charged.bit_count()}


def _lookup(live: dict[int, BlobSubconfig], i: int) -> BlobSubconfig:
    if i not in live:
        raise IllegalMove(f"unknown subconfiguration {i}")
    return live[i]


def reference_validate_blob_pebbling(
    g: Dag,
    moves,
    labelled_only: bool = False,
    strict: bool = False,
) -> BlobTrace:
    """Replay a blob move list, check legality, and measure cost.

    ``labelled_only`` restricts play to singleton blobs (the labelled game).
    ``strict`` enforces chain blobs and legal white positions on every
    created subconfiguration.  Raises IllegalMove (with the move index) or
    IncompletePebbling.
    """
    moves = tuple(moves)
    live: dict[int, BlobSubconfig] = {}
    ids = count()
    cost = 0
    naive = 0
    for idx, mv in enumerate(moves):
        try:
            if isinstance(mv, EraseMove):
                _lookup(live, mv.i)
                del live[mv.i]
            else:
                if isinstance(mv, IntroduceMove):
                    s = reference_introduce(g, mv.v)
                elif isinstance(mv, MergeMove):
                    s = reference_merge(_lookup(live, mv.i), _lookup(live, mv.j), mv.pivot)
                elif isinstance(mv, InflateMove):
                    target = BlobSubconfig(mv.blob, mv.whites)
                    s = inflate(_lookup(live, mv.i), target, g, strict)
                else:
                    raise IllegalMove(f"unknown move {mv!r}")
                if s in live.values():
                    raise IllegalMove(f"duplicate subconfiguration {s}")
                if labelled_only and len(s.blob) != 1:
                    raise IllegalMove(f"blob not a singleton in labelled game: {s}")
                # inflate has tested an inflation's shape already.
                problem = strict and not isinstance(mv, InflateMove) and check_strict_shape(g, s)
                if problem:
                    raise IllegalMove(f"{problem}: {s}")
                live[next(ids)] = s
        except IllegalMove as e:
            raise type(e)(e.reason, index=idx) from None
        costs = blob_cost(g, BlobConfig(frozenset(live.values())))
        cost = max(cost, costs["chargeable"])
        naive = max(naive, costs["naive"])

    final = BlobConfig(frozenset(live.values()))
    for t in g.targets:
        if BlobSubconfig(frozenset({t})) not in final.subs:
            raise IncompletePebbling(f"no unconditional subconfiguration for target {t}")
    return BlobTrace(moves=moves, cost=cost, naive_cost=naive, final=final)


def stray_move(rng, n, made):
    """Any move, its vertices, pivot and ids possibly outside the graph or
    the ids made so far, or an object that is no move."""
    def vertex():
        return rng.randint(-2, n + 1)

    def ident():
        return rng.randint(-1, made + 1)

    def vertices(least):
        return frozenset(vertex() for _ in range(rng.randint(least, 3)))

    kind = rng.randrange(9)
    if kind == 0:
        return "X"
    if kind <= 2:
        return IntroduceMove(vertex())
    if kind <= 4:
        return MergeMove(ident(), ident(), vertex())
    if kind <= 6:
        return InflateMove(ident(), vertices(0 if rng.random() < 0.1 else 1), vertices(0))
    return EraseMove(ident())


def legal_biased_play(rng, g):
    """A complete plain blob pebbling, usually: each vertex in id order is
    introduced and merged with [u]<> of its predecessors u, with random
    inflations and erasures between, some of which break a rule."""
    moves = []
    live = {}  # id -> subconfiguration, while the play is legal
    unit = {}  # v -> the id of [v]<>
    ids = count()

    def make(mv, s):
        moves.append(mv)
        i = next(ids)
        live[i] = s
        return i

    for v in range(g.n):
        i = make(IntroduceMove(v), reference_introduce(g, v))
        for u in g.preds[v]:
            if u in unit and rng.random() < 0.9:
                old, i = i, make(MergeMove(unit[u], i, u), reference_merge(live[unit[u]], live[i], u))
                if rng.random() < 0.8:
                    moves.append(EraseMove(old))
                    del live[old]
        if not live[i].whites:
            unit[v] = i
        if rng.random() < 0.5:
            j = rng.choice(sorted(live))
            s = live[j]
            # most often vertices below the bottom, which a strict blob may take
            low = min(s.blob)
            pool = [u for u in range(low) if g.reaches(u, low)] or range(g.n)
            if rng.random() < 0.3:
                pool = range(g.n)
            grow = {rng.choice(pool) for _ in range(rng.randint(1, 2))}
            blob = s.blob | ({w for w in grow if rng.random() < 0.5} - s.whites)
            target = BlobSubconfig(blob, s.whites | (grow - blob))
            if target != s:
                make(InflateMove(j, target.blob, target.whites), target)
        u = rng.randrange(g.n)
        if rng.random() < 0.3 and reference_introduce(g, u) not in live.values():
            make(IntroduceMove(u), reference_introduce(g, u))
        pairs = [(a, b) for a in live for b in live if live[a].blob & live[b].whites]
        if pairs and rng.random() < 0.5:
            a, b = rng.choice(pairs)
            p = rng.choice(sorted(live[a].blob & live[b].whites))
            try:
                make(MergeMove(a, b, p), reference_merge(live[a], live[b], p))
            except BadMerge:
                moves.append(MergeMove(a, b, p))
        spare = [j for j in live if j not in unit.values()]
        if spare and rng.random() < 0.5:
            j = rng.choice(spare)
            moves.append(EraseMove(j))
            del live[j]
    return moves


def test_validator_matches_reference():
    """The mask replay against the BlobSubconfig replay, on random and
    legal-biased plays under every flag combination: the same trace for a
    valid play, the same error type, message and move index otherwise."""
    rng = random.Random(SEED)
    valid = 0
    kinds = set()
    for _ in range(2000):
        n = rng.randint(1, 6)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        targets = rng.sample(range(n), rng.randint(1, n)) if rng.random() < 0.3 else None
        g = Dag(n, edges, targets=targets)
        if rng.random() < 0.3:
            moves = [stray_move(rng, n, made) for made in range(rng.randint(0, 10))]
        else:
            moves = legal_biased_play(rng, g)
            for _ in range(rng.choice([0, 0, 1, 2])):
                at = rng.randint(0, len(moves))
                moves[at:at + rng.randint(0, 1)] = [stray_move(rng, n, at)]
        for labelled_only in (False, True):
            for strict in (False, True):
                flags = {"labelled_only": labelled_only, "strict": strict}
                got = outcome(validate_blob_pebbling, g, moves, **flags)
                assert got == outcome(reference_validate_blob_pebbling, g, moves, **flags), (
                    g,
                    [str(m) for m in moves],
                    flags,
                )
                if isinstance(got[0], int):
                    valid += 1
                else:
                    message = re.sub(r"-?\d+", "k", got[1])
                    kinds.add((got[0], re.sub(r"^move k: |:? \[.*", "", message)))
    assert valid > 1000, valid
    # Every refusal the validator makes, reached at least once.
    assert kinds == {
        (BadInflation, "blob not a chain"),
        (BadInflation, "blob not superset"),
        (BadInflation, "vertex k out of range"),
        (BadInflation, "white pebble outside legal positions"),
        (BadInflation, "whites not superset"),
        (BadMerge, "merge result not disjoint"),
        (BadMerge, "pivot k not in first blob"),
        (BadMerge, "pivot k not white in second subconfiguration"),
        (IllegalMove, "blob and whites overlap"),
        (IllegalMove, "blob empty"),
        (IllegalMove, "blob not a chain"),
        (IllegalMove, "blob not a singleton in labelled game"),
        (IllegalMove, "duplicate subconfiguration"),
        (IllegalMove, "unknown move 'X'"),
        (IllegalMove, "unknown subconfiguration k"),
        (IllegalMove, "vertex k out of range"),
        (IncompletePebbling, "no unconditional subconfiguration for target k"),
    }
