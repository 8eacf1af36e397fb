"""Tests for hiding sets, level measures, potential, and the hider bound."""

import random

import pytest

from pebble_bench import (
    Dag,
    FamilySpec,
    GraphError,
    LayeredView,
    SizeBoundExceeded,
    build_family,
    check_lhc,
    hidden_vertices,
    klawe_measure,
    min_lhc_bound,
    potential,
)
from pebble_bench import measures
from pebble_bench.measures import LhcResult, LhcWitness, _hulls_and_measures

SEED = 777


def pyramid2():
    return build_family(FamilySpec.pyramid(2))


# --- layered view ---------------------------------------------------------------


def test_levels_longest_path():
    view = LayeredView.from_dag(pyramid2())
    assert view.levels == (0, 0, 0, 1, 1, 2)
    assert view.max_level == 2


def test_levels_chain():
    view = LayeredView.from_dag(build_family(FamilySpec.chain(4)))
    assert view.levels == (0, 1, 2, 3)


def test_custom_levels_must_climb():
    g = build_family(FamilySpec.chain(2))
    with pytest.raises(GraphError):
        LayeredView(g, (1, 0))
    with pytest.raises(GraphError):
        LayeredView(g, (0,))
    # gaps are fine as long as edges climb
    view = LayeredView(g, (0, 5))
    assert view.max_level == 5


# --- hiding -----------------------------------------------------------------


def test_hidden_below():
    g = pyramid2()
    assert hidden_vertices(g, {1}) == frozenset({1})
    assert hidden_vertices(g, {0, 1}) == frozenset({0, 1, 3})
    assert hidden_vertices(g, {3, 4}) == frozenset({3, 4, 5})
    assert hidden_vertices(g, {0, 1, 2}) == frozenset(range(6))
    assert hidden_vertices(g, ()) == frozenset()


def test_hidden_above():
    g = pyramid2()
    # every path upward from any vertex ends at the apex
    assert hidden_vertices(g, {5}, direction="above") == frozenset(range(6))
    assert hidden_vertices(g, {3}, direction="above") == frozenset({0, 3})


def test_hidden_validates_input():
    g = pyramid2()
    with pytest.raises(GraphError):
        hidden_vertices(g, {9})
    with pytest.raises(GraphError):
        hidden_vertices(g, {0}, direction="sideways")


# --- measure ------------------------------------------------------------------


def test_measure_apex():
    view = LayeredView.from_dag(pyramid2())
    m = klawe_measure(view, {5})
    assert m.value == 3
    assert m.partials == (1, 2, 3)


def test_measure_rows():
    view = LayeredView.from_dag(pyramid2())
    assert klawe_measure(view, {0, 1, 2}).value == 3
    assert klawe_measure(view, {0, 1, 2}).partials == (3, 0, 0)
    assert klawe_measure(view, {3, 4}).value == 3
    assert klawe_measure(view, ()).value == 0


def test_measure_counts_from_each_level():
    g = build_family(FamilySpec.chain(4))
    view = LayeredView.from_dag(g)
    # {1, 3}: j=0 -> 2, j=1 -> 3, j=2 -> 3, j=3 -> 4
    assert klawe_measure(view, {1, 3}).partials == (2, 3, 3, 4)
    assert klawe_measure(view, {1, 3}).value == 4


# --- potential ------------------------------------------------------------------


def test_potential_apex():
    g = pyramid2()
    assert potential(g, {5}) == 3
    assert potential(g, frozenset({5})) == 3


def test_potential_empty_and_source():
    g = pyramid2()
    assert potential(g, ()) == 0
    # a single source hides itself at measure 1
    assert potential(g, {0}) == 1


def test_potential_never_exceeds_own_measure():
    g = pyramid2()
    view = LayeredView.from_dag(g)
    for cfg in ({3, 4}, {0, 5}, {2, 3}):
        assert potential(g, cfg) <= klawe_measure(view, cfg).value


def test_potential_rejects_out_of_range_vertex():
    with pytest.raises(GraphError):
        potential(pyramid2(), {99})


def test_potential_size_guard():
    g = build_family(FamilySpec.pyramid(4))  # 15 vertices
    with pytest.raises(SizeBoundExceeded, match="^15 vertices exceeds potential bound 14$"):
        potential(g, {0})
    assert potential(build_family(FamilySpec.chain(14)), {0}) == 1


# --- bounded hiders --------------------------------------------------------------


def test_lhc_pyramid_bound():
    g = pyramid2()
    res = check_lhc(g, 3)
    assert res.holds and res.witness is None and res.bound == 3
    bad = check_lhc(g, 2)
    assert not bad.holds
    assert bad.witness.vertices == (0, 1, 2)
    assert bad.witness.measure == 3
    assert bad.witness.smallest_hider == 3


def test_min_lhc_bound_values():
    assert min_lhc_bound(pyramid2()) == 3
    assert min_lhc_bound(build_family(FamilySpec.chain(4))) == 1


def test_lhc_size_guard():
    g = build_family(FamilySpec.pyramid(4))
    with pytest.raises(SizeBoundExceeded):
        check_lhc(g, 2)
    with pytest.raises(SizeBoundExceeded):
        min_lhc_bound(g)


# --- fuzz ----------------------------------------------------------------------


def test_fuzz_hull_and_measure_laws():
    rng = random.Random(SEED)
    for _ in range(250):
        n = rng.randint(1, 10)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        g = Dag(n, edges)
        view = LayeredView.from_dag(g)
        direction = rng.choice(("below", "above"))
        small = frozenset(v for v in range(n) if rng.random() < 0.3)
        big = small | frozenset(v for v in range(n) if rng.random() < 0.2)

        hull_small = hidden_vertices(g, small, direction)
        hull_big = hidden_vertices(g, big, direction)
        assert small <= hull_small
        assert hull_small <= hull_big  # monotone
        assert hidden_vertices(g, hull_small, direction) == hull_small  # idempotent

        assert klawe_measure(view, ()).value == 0
        m_small = klawe_measure(view, small).value
        m_big = klawe_measure(view, big).value
        assert m_small <= m_big
        if small:
            assert m_small >= 1
        if n <= 8:
            assert potential(g, ()) == 0
            assert potential(g, small) <= m_small


def test_hull_and_measure_tables_match_set_functions():
    specs = [FamilySpec.chain(n) for n in (1, 5, 10)]
    specs += [FamilySpec.pyramid(h) for h in (1, 2, 3)]
    specs += [FamilySpec.binary_tree(h) for h in (1, 2)]
    specs += [FamilySpec.carlson_savage(c, 0) for c in (2, 3, 4)]
    graphs = [build_family(spec) for spec in specs]
    rng = random.Random(SEED)
    for _ in range(12):
        n = rng.randint(1, 9)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        graphs.append(Dag(n, edges))
    for g in graphs:
        view = LayeredView.from_dag(g)
        for direction in ("below", "above"):
            hull, meas, by_measure = _hulls_and_measures(g, direction)
            assert len(hull) == len(meas) == len(by_measure) == 1 << g.n
            # every subset once, by measure, ties by bitmask
            assert sorted(by_measure) == list(range(1 << g.n))
            assert all(
                (meas[a], a) < (meas[b], b) for a, b in zip(by_measure, by_measure[1:])
            )
            for mask in range(1 << g.n):
                U = [v for v in range(g.n) if mask >> v & 1]
                want = hidden_vertices(g, U, direction)
                assert hull[mask] == sum(1 << v for v in want), (g, direction, U)
                assert meas[mask] == klawe_measure(view, U).value, (g, U)


# --- one table per graph ---------------------------------------------------------


def random_dag(rng, n):
    edges = []
    for v in range(1, n):
        k = rng.randint(0, min(2, v))
        edges.extend((u, v) for u in rng.sample(range(v), k))
    return Dag(n, edges)


def table_from_scratch(g, direction):
    view = LayeredView.from_dag(g)
    hull, meas = [], []
    for mask in range(1 << g.n):
        U = [v for v in range(g.n) if mask >> v & 1]
        hull.append(sum(1 << v for v in hidden_vertices(g, U, direction)))
        meas.append(klawe_measure(view, U).value)
    return tuple(hull), tuple(meas)


def test_shared_tables_match_recomputation_across_evictions():
    rng = random.Random(SEED + 1)
    # Same n, different edges: a table keyed on the size alone would mix them.
    graphs = [Dag(4, [(0, 1), (1, 2), (2, 3)]), Dag(4, [(0, 2), (1, 2), (2, 3)])]
    graphs += [random_dag(rng, rng.randint(1, 7)) for _ in range(10)]
    calls = [(g, d) for g in graphs for d in ("below", "above")] * 3
    rng.shuffle(calls)
    assert len(set(calls)) > measures._hulls_and_measures.cache_info().maxsize
    want = {key: table_from_scratch(*key) for key in set(calls)}
    for key in calls:
        hull, meas, by_measure = _hulls_and_measures(*key)
        assert type(hull) is tuple and type(meas) is tuple
        assert (hull, meas) == want[key], key
        assert by_measure.typecode == "H"
        assert list(by_measure) == sorted(range(len(meas)), key=want[key][1].__getitem__)
    # Graphs equal as Dags share one table.
    twin = Dag(graphs[0].n, graphs[0].edges)
    assert _hulls_and_measures(twin, "below") is _hulls_and_measures(graphs[0], "below")


def reference_hulls_and_measures(g, direction):
    """The table builder before it was shared, verbatim."""
    level_masks = measures._level_masks(LayeredView.from_dag(g))
    subsets = range(1 << g.n)
    hull = [measures._hull(g, mask, direction) for mask in subsets]
    meas = [max(measures._partials(level_masks, mask), default=0) for mask in subsets]
    return hull, meas


def reference_potential(g, config, direction="below", bound=measures.POTENTIAL_BOUND):
    if g.n > bound:
        raise SizeBoundExceeded(f"{g.n} vertices exceeds potential bound {bound}")
    pebbled = measures._mask(g, config)
    if not pebbled:
        return 0
    hull, meas = reference_hulls_and_measures(g, direction)
    # The set of all vertices hides everything, so the minimum exists.
    return min(meas[m] for m in range(1 << g.n) if hull[m] & pebbled == pebbled)


def reference_in_scope_hiders(g, direction, max_n):
    if g.n > max_n:
        raise SizeBoundExceeded(f"{g.n} vertices exceeds hider-check bound {max_n}")
    hull, meas = reference_hulls_and_measures(g, direction)
    by_size = sorted(range(1 << g.n), key=int.bit_count)
    for mask in range(1, 1 << g.n):
        if not measures._tight(mask, hull) or not measures._connected(g, hull[mask]):
            continue
        smallest = next(
            c for c in by_size if hull[c] & mask == mask and meas[c] <= meas[mask]
        )
        yield mask, meas[mask], smallest.bit_count()


def reference_check_lhc(g, bound, direction="below", max_n=measures.LHC_BOUND):
    for mask, measure, needed in reference_in_scope_hiders(g, direction, max_n):
        if needed > bound:
            witness = LhcWitness(
                vertices=tuple(v for v in range(g.n) if mask >> v & 1),
                measure=measure,
                smallest_hider=needed,
            )
            return LhcResult(holds=False, bound=bound, witness=witness)
    return LhcResult(holds=True, bound=bound, witness=None)


def reference_min_lhc_bound(g, direction="below", max_n=measures.LHC_BOUND):
    return max((needed for _, _, needed in reference_in_scope_hiders(g, direction, max_n)), default=0)


def test_measure_sweeps_match_reference():
    rng = random.Random(SEED + 2)
    for _ in range(40):
        g = random_dag(rng, rng.randint(1, 10))
        for direction in ("below", "above"):
            for _ in range(3):
                config = [v for v in range(g.n) if rng.random() < 0.3]
                assert potential(g, config, direction) == reference_potential(g, config, direction)
            need = min_lhc_bound(g, direction)
            assert need == reference_min_lhc_bound(g, direction), (g, direction)
            for bound in (need - 1, need):
                got = check_lhc(g, bound, direction)
                assert got == reference_check_lhc(g, bound, direction), (g, direction, bound)


# --- the stored orders against exhaustive scans -------------------------------


def topological_boards(g):
    """The nonempty boards along a black pebbling that places vertices in id
    order and removes a pebble once every successor of it is placed (a
    sink's right away)."""
    waiting = [len(s) for s in g.succs]
    board = 0
    boards = []
    for v in range(g.n):
        board |= 1 << v
        boards.append(board)
        for p in g.preds[v]:
            waiting[p] -= 1
            if not waiting[p]:
                board &= ~(1 << p)
                boards.append(board)
        if not g.succs[v]:
            board &= ~(1 << v)
            boards.append(board)
    return [b for b in boards if b]


def test_potential_is_the_least_measure_of_a_hiding_set():
    """``potential`` stops at the first hiding set in ascending measure; it
    must give the minimum over all 2^n subsets.  The hider sweep reads a
    stored size order; it must agree with one sorted per call."""
    rng = random.Random(SEED + 3)
    graphs = [random_dag(rng, n) for n in range(1, measures.POTENTIAL_BOUND + 1) for _ in range(2)]
    assert max(g.n for g in graphs) == measures.POTENTIAL_BOUND
    boards_seen = 0
    for g in graphs:
        boards = topological_boards(g)
        for direction in ("below", "above"):
            hull, meas, _ = _hulls_and_measures(g, direction)
            for b in boards:
                config = [v for v in range(g.n) if b >> v & 1]
                want = min(meas[m] for m in range(1 << g.n) if hull[m] & b == b)
                assert potential(g, config, direction) == want, (g, direction, config)
            boards_seen += len(boards)
            if g.n > measures.LHC_BOUND:
                continue
            need = min_lhc_bound(g, direction)
            assert need == reference_min_lhc_bound(g, direction), (g, direction)
            for bound in (need - 1, need):
                got = check_lhc(g, bound, direction)
                assert got == reference_check_lhc(g, bound, direction), (g, direction, bound)
    assert boards_seen > 500
