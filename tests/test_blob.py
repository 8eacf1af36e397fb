"""Tests for blob subconfigurations, moves, costs, and trace validation."""

import random
import tracemalloc

import pytest

from pebble_bench import blob as blobmod
from pebble_bench import (
    BadInflation,
    BadMerge,
    BlobSubconfig,
    Dag,
    EraseMove,
    FamilySpec,
    GraphError,
    IllegalMove,
    IncompletePebbling,
    IntroduceMove,
    MergeMove,
    blob_cost,
    build_family,
    format_blob_moves,
    inflate,
    introduce,
    merge,
    parse_blob_moves,
    sub,
    validate_blob_pebbling,
)
from pebble_bench.blob import (
    BlobConfig,
    _shape_problem,
    check_strict_shape,
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
    s = introduce(g, 3)
    assert s == sub([3], [1, 2])
    assert introduce(g, 0) == sub([0], [])


def test_merge_moves_pivot():
    g = edge_graph()
    s1 = introduce(g, 0)  # [0]<>
    s2 = introduce(g, 1)  # [1]<0>
    m = merge(s1, s2, 0)
    assert m == sub([1], [])


def test_merge_requires_pivot_in_blob_and_white():
    g = edge_graph()
    s1 = introduce(g, 0)
    s2 = introduce(g, 1)
    with pytest.raises(BadMerge):
        merge(s2, s1, 0)  # pivot not in first blob
    with pytest.raises(BadMerge):
        merge(s1, sub([1], []), 0)  # pivot not white in second


def test_merge_requires_disjoint_result():
    g = diamond()
    s1 = sub([1], [2])
    s2 = sub([2, 3], [1])
    # resolving on 1: blob (2,3) u () minus... and whites {2} stay -> overlap
    with pytest.raises(BadMerge):
        merge(s2, s1, 2)


def test_merge_unions_components():
    s1 = sub([2], [0])
    s2 = sub([3], [1, 2])
    m = merge(s1, s2, 2)
    assert m == sub([3], [0, 1])


def test_inflate_superset_rules():
    g = diamond()
    s = sub([3], [1])
    t = sub([2, 3], [0, 1])
    assert inflate(s, t, g) == t
    with pytest.raises(BadInflation):
        inflate(s, sub([3], []), g)  # dropped a white
    with pytest.raises(BadInflation):
        inflate(sub([2, 3], []), sub([3], [0]), g)  # dropped a blob vertex


def test_inflation_overlap_is_refused_by_the_target():
    # the target subconfiguration refuses the overlap before inflate runs
    g = build_family(FamilySpec.chain(3))
    with pytest.raises(IllegalMove) as exc:
        validate_blob_pebbling(g, parse_blob_moves("I 0\nF 0 0|0"))
    assert str(exc.value) == "move 2: blob and whites overlap"


def test_strict_inflation_shape():
    g = diamond()
    s = sub([3], [1])
    # growing the whites inside the blob's legal positions is fine
    assert inflate(s, sub([3], [0, 1]), g, strict=True) == sub([3], [0, 1])
    # blob [2,3] only admits whites above 2 or between 2 and 3, i.e. just 0;
    # the held white 1 falls outside, so strict mode rejects the inflation
    with pytest.raises(BadInflation):
        inflate(s, sub([2, 3], [0, 1]), g, strict=True)
    # blob {1,2} is not a chain (no path between the branches)
    assert check_strict_shape(g, sub([1, 2], [])) == "blob not a chain"
    with pytest.raises(BadInflation):
        inflate(sub([1], []), sub([1, 2], []), g, strict=True)


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
                assert check_strict_shape(g, sub(blob, whites)) == want, (g, blob, whites)
                assert _shape_problem(g, blob_mask, whites_mask) == want, (g, blob, whites)
                if not whites_mask:
                    break
                whites_mask = (whites_mask - 1) & rest


def test_strict_shape_outside_the_graph():
    g = build_family(FamilySpec.chain(3))
    # No vertex outside the graph is on a chain or a legal position; -3 is
    # not vertex 0.
    for blob in ([0, 99], [-1, 0], [-3, 2]):
        assert check_strict_shape(g, sub(blob, [])) == "blob not a chain"
    for whites in ([99], [-1], [0, 3]):
        assert check_strict_shape(g, sub([2], whites)) == "white pebble outside legal positions"


def test_legal_pebble_positions():
    g = build_family(FamilySpec.chain(4))
    # blob {1,3}: strict ancestors of 1 = {0}; between 1 and 3 = {2}
    assert legal_pebble_positions(g, frozenset({1, 3})) == frozenset({0, 2})


def test_chargeable_only_below_bottom():
    g = build_family(FamilySpec.chain(4))
    s = sub([2], [0, 1, 3])
    # bottom is 2: whites 0 and 1 are strict ancestors (chargeable), 3 is not
    assert chargeable_vertices(g, s) == frozenset({0, 1, 2})
    costs = blob_cost(g, BlobConfig(frozenset({s})))
    assert costs == {"naive": 4, "chargeable": 3}
    for outside in (sub([2], [-1]), sub([4], [0])):
        with pytest.raises(GraphError):
            blob_cost(g, BlobConfig(frozenset({outside})))
    # The bitmask rule against the set definition, on every disjoint
    # (blob, whites) pair of a diamond and a pyramid.
    for g in (diamond(), build_family(FamilySpec.pyramid(2))):
        masks = range(1 << g.n)
        for blob, whites in ((b, w) for b in masks[1:] for w in masks if not b & w):
            s = sub(*([v for v in range(g.n) if m >> v & 1] for m in (blob, whites)))
            want = len(chargeable_vertices(g, s))
            assert blob_cost(g, BlobConfig(frozenset({s})))["chargeable"] == want, s


def test_inflation_can_reduce_chargeable_cost():
    # fattening the blob downward past its whites strips their charge
    g = build_family(FamilySpec.chain(5))
    a = sub([4], [1, 2, 3])
    b = sub([0, 4], [1, 2, 3])
    assert len(chargeable_vertices(g, a)) == 4  # bottom 4, whites 1,2,3 below it
    assert len(chargeable_vertices(g, b)) == 2  # bottom 0, no white below it
    assert inflate(a, b, g, strict=True) == b


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


@pytest.mark.parametrize("target, v", [("0,5|", 5), ("0|99", 99), ("0|-3", -3)])
def test_inflation_target_outside_the_graph(target, v):
    # A blob vertex >= n, a white >= n and a negative white, which list
    # indexing would read as vertex n - 3.
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


def test_strict_inflation_shape_tested_once(monkeypatch):
    """An introduction's shape is tested by the validator, an inflation's by
    inflate alone."""
    tested = []

    def counted(g, s):
        tested.append(s)
        return check_strict_shape(g, s)

    monkeypatch.setattr(blobmod, "check_strict_shape", counted)
    g = build_family(FamilySpec.chain(3))
    with pytest.raises(IncompletePebbling):
        validate_blob_pebbling(g, parse_blob_moves("I 2\nF 0 2|0,1"), strict=True)
    assert tested == [sub([2], [1]), sub([2], [0, 1])]


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
    """Random merges: result components follow the set algebra when legal."""
    rng = random.Random(SEED)
    g = diamond()
    verts = range(g.n)
    trials = 0
    for _ in range(500):
        b1 = frozenset(rng.sample(verts, rng.randint(1, 2)))
        w1 = frozenset(v for v in verts if v not in b1 and rng.random() < 0.4)
        b2 = frozenset(rng.sample(verts, rng.randint(1, 2)))
        w2 = frozenset(v for v in verts if v not in b2 and rng.random() < 0.4)
        s1, s2 = BlobSubconfig(b1, w1), BlobSubconfig(b2, w2)
        for p in b1 & w2:
            try:
                m = merge(s1, s2, p)
            except BadMerge:
                continue
            trials += 1
            assert m.blob == (b1 - {p}) | b2
            assert m.whites == w1 | (w2 - {p})
            assert not m.blob & m.whites
    assert trials > 50
