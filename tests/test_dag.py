"""Tests for graph construction, validation, families, and the text format."""

import random
import re

import pytest

from pebble_bench import (
    Dag,
    FamilySpec,
    GraphError,
    ParseError,
    SizeBoundExceeded,
    UnsupportedFamily,
    black_strategy,
    build_family,
    read_graph,
    validate_dag,
    write_graph,
)
from pebble_bench import cli, dag
from pebble_bench.dag import MAX_VERTICES, carlson_savage_layout

SEED = 1234


def test_basic_construction():
    g = Dag(3, [(0, 2), (1, 2)], targets=[2])
    assert g.n == 3
    assert g.edges == ((0, 2), (1, 2))
    assert g.preds[2] == (0, 1)
    assert g.succs[0] == (2,)
    assert g.sources == (0, 1)
    assert g.sinks == (2,)
    assert g.targets == (2,)


def test_default_targets_are_sinks():
    g = Dag(4, [(0, 1), (0, 2)])
    assert g.targets == (1, 2, 3)


def test_duplicate_edges_collapse():
    g = Dag(2, [(0, 1), (0, 1)])
    assert g.edges == ((0, 1),)


def test_out_of_range_vertex_rejected():
    with pytest.raises(GraphError):
        Dag(2, [(0, 5)])
    with pytest.raises(GraphError):
        Dag(2, [(-1, 1)])
    with pytest.raises(GraphError, match=r"^target 2 out of range for 2 vertices$"):
        Dag(2, [(0, 1)], targets=[2])


def test_repr():
    assert repr(Dag(2, [(0, 1)])) == "Dag(n=2, edges=1, targets=(1,))"


def test_validate_flags_empty_graph_and_targets():
    # Dag itself refuses a graph with no vertex, which has no pebbling, and
    # one with no target, whose empty pebbling would pebble nothing
    for n in (0, -1):
        with pytest.raises(GraphError, match=f"^graph has {n} vertices, needs at least 1$"):
            Dag(n, [])
    with pytest.raises(GraphError, match="^graph has 0 targets, needs at least 1$"):
        Dag(2, [(0, 1)], targets=[])


def test_dag_refuses_backward_edge_and_self_loop():
    for u, v in [(1, 0), (0, 0)]:
        message = f"edge ({u}, {v}) does not go from a lower id to a higher one"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            Dag(2, [(0, 1), (u, v)])


def test_dag_refuses_reversed_pyramid():
    """pyramid(2) with vertex v renamed 5 - v: every edge goes backward.
    Dag took it once, and optimal_blob_price then answered 2, below the
    black price 4."""
    g = build_family(FamilySpec.pyramid(2))
    edges = [(5 - u, 5 - v) for u, v in g.edges]
    with pytest.raises(GraphError, match=r"^edge \(1, 0\) does not go from a lower id to a higher one$"):
        Dag(6, edges, targets=[0])


def test_validate_flags_fan_in():
    g = Dag(4, [(0, 3), (1, 3), (2, 3)])
    problems = validate_dag(g)
    assert any("fan-in" in p for p in problems)


def test_validate_flags_non_sink_target():
    g = Dag(2, [(0, 1)], targets=[0])
    problems = validate_dag(g)
    assert any("target" in p for p in problems)


def test_reaches_and_descendants():
    g = build_family(FamilySpec.pyramid(2))
    # apex is 5; bottom row 0,1,2
    assert g.reaches(0, 5)
    assert g.reaches(2, 5)
    assert not g.reaches(5, 0)
    assert 5 in descendants(g, 0)
    # descendants are reflexive by contract
    assert descendants(g, 5) == frozenset({5})


def descendants(g, v):
    """All vertices reachable from v, including v, read
    from ``Dag.below``; empty when v is outside the graph."""
    if not 0 <= v < g.n:
        return frozenset()
    return frozenset([v, *(w for w in range(v + 1, g.n) if g.below[w] >> v & 1)])


def forward_reach(g, u):
    """The vertices reachable from u, by depth-first search."""
    seen, stack = {u}, [u]
    while stack:
        for w in g.succs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def random_pairs_dag(rng):
    """A Dag on random vertex pairs, each edge from the lower id to the
    higher one."""
    n = rng.randint(1, 12)
    pairs = rng.randint(0, 2 * n) if n > 1 else 0
    return Dag(n, [sorted(rng.sample(range(n), 2)) for _ in range(pairs)])


def test_below_matches_depth_first_search():
    """Also the neighbour lists: each vertex's, in ascending order."""
    rng = random.Random(SEED)
    for _ in range(200):
        g = random_pairs_dag(rng)
        n = g.n
        for v in range(n):
            assert g.preds[v] == tuple(sorted(u for u, w in g.edges if w == v))
            assert g.succs[v] == tuple(sorted(w for u, w in g.edges if u == v))
        reach = [forward_reach(g, u) for u in range(n)]
        want = tuple(sum(1 << u for u in range(n) if u != v and v in reach[u]) for v in range(n))
        assert g.below == want, g
        for u in range(n):
            assert descendants(g, u) == reach[u]
            for v in range(n):
                assert g.reaches(u, v) == (v in reach[u])


def test_reaches_nothing_outside_the_graph():
    rng = random.Random(SEED)
    graphs = [build_family(FamilySpec.pyramid(2))] + [random_pairs_dag(rng) for _ in range(20)]
    for g in graphs:
        for out in (-1, g.n):
            assert descendants(g, out) == frozenset()
            for v in range(-1, g.n + 1):
                assert not g.reaches(out, v)
                assert not g.reaches(v, out)


# --- families ----------------------------------------------------------------


def test_chain_family():
    g = build_family(FamilySpec.chain(4))
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.targets == (3,)
    assert validate_dag(g) == []


def test_chain_of_one():
    g = build_family(FamilySpec.chain(1))
    assert g.n == 1
    assert g.edges == ()
    assert g.targets == (0,)


def test_pyramid_family():
    g = build_family(FamilySpec.pyramid(2))
    assert g.n == 6
    assert g.sources == (0, 1, 2)
    assert g.sinks == (5,)
    # middle row vertices see adjacent bottom vertices
    assert g.preds[3] == (0, 1)
    assert g.preds[4] == (1, 2)
    assert g.preds[5] == (3, 4)
    assert validate_dag(g) == []


def test_pyramid_sizes():
    for h in range(1, 5):
        g = build_family(FamilySpec.pyramid(h))
        assert g.n == (h + 1) * (h + 2) // 2
        assert len(g.sinks) == 1


def test_binary_tree_family():
    g = build_family(FamilySpec.binary_tree(2))
    assert g.n == 7
    assert g.sources == (0, 1, 2, 3)
    assert g.preds[4] == (0, 1)
    assert g.preds[5] == (2, 3)
    assert g.preds[6] == (4, 5)
    assert validate_dag(g) == []


def test_binary_tree_sizes():
    for h in range(1, 5):
        g = build_family(FamilySpec.binary_tree(h))
        assert g.n == 2 ** (h + 1) - 1


def test_carlson_savage_small_layout():
    g, layout = carlson_savage_layout(2, 1)
    assert g.n == 11
    assert layout.base == (0, 1)
    lvl = layout.levels[0]
    assert lvl.apex == 4
    assert lvl.spines == ((5, 6, 7), (8, 9, 10))
    assert lvl.sinks == (7, 10)
    assert g.targets == (7, 10)
    # spine wiring: start from (apex, base0), then previous vertex + next aux
    assert g.preds[5] == (0, 4)
    assert g.preds[6] == (4, 5)
    assert g.preds[7] == (1, 6)
    assert validate_dag(g) == []


def test_carlson_savage_two_levels():
    g, layout = carlson_savage_layout(2, 2)
    assert g.n == 23
    assert len(layout.levels) == 2
    # level-2 spines consume the level-1 spine ends
    lvl2 = layout.levels[1]
    assert set(layout.levels[0].sinks) <= {p for v in lvl2.spines for u in v for p in g.preds[u]}
    assert g.targets == lvl2.sinks
    assert validate_dag(g) == []


def test_carlson_savage_fan_in_two_everywhere():
    for c, r in [(2, 1), (2, 2), (3, 1)]:
        g = build_family(FamilySpec.carlson_savage(c, r))
        assert validate_dag(g) == []
        assert all(len(g.preds[v]) <= 2 for v in range(g.n))
        assert len(g.targets) == c


def test_family_labels():
    assert FamilySpec.pyramid(2).label() == "pyramid(2)"
    assert FamilySpec.carlson_savage(2, 1).params_label() == "2-1"


def test_bad_family_parameters():
    with pytest.raises(GraphError):
        build_family(FamilySpec.chain(0))
    with pytest.raises(GraphError):
        build_family(FamilySpec.pyramid(0))
    with pytest.raises(GraphError):
        build_family(FamilySpec.carlson_savage(1, 1))
    with pytest.raises(GraphError, match="^binary_tree needs h >= 1$"):
        build_family(FamilySpec.binary_tree(0))
    with pytest.raises(GraphError, match="^carlson_savage needs r >= 0$"):
        build_family(FamilySpec.carlson_savage(2, -1))
    with pytest.raises(UnsupportedFamily, match="^unknown family kind 'moebius'$"):
        build_family(FamilySpec("moebius", (2,)))
    # the spec itself refuses a value below its least, before any build
    for make, params, message in (
        (FamilySpec.chain, (0,), "chain needs n >= 1"),
        (FamilySpec.chain, (-5,), "chain needs n >= 1"),
        (FamilySpec.pyramid, (0,), "pyramid needs h >= 1"),
        (FamilySpec.binary_tree, (0,), "binary_tree needs h >= 1"),
        (FamilySpec.carlson_savage, (1, 1), "carlson_savage needs c >= 2"),
        (FamilySpec.carlson_savage, (2, -1), "carlson_savage needs r >= 0"),
        (FamilySpec.carlson_savage, (0, -1), "carlson_savage needs c >= 2"),
    ):
        kind = make.__name__
        for build in (lambda: make(*params), lambda: FamilySpec(kind, params)):
            with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
                build()
    with pytest.raises(GraphError, match="^carlson_savage needs r >= 0$"):
        carlson_savage_layout(2, -1)
    # the least values build
    least = (FamilySpec.chain(1), FamilySpec.pyramid(1), FamilySpec.binary_tree(1), FamilySpec.carlson_savage(2, 0))
    for spec in least:
        assert validate_dag(build_family(spec)) == [], spec
    # a wrong parameter count is a domain error, not a failed unpacking
    cases = [
        ("chain", (1, 2), "(n), got 2"),
        ("pyramid", (), "(h), got 0"),
        ("carlson_savage", (2,), "(c, r), got 1"),
    ]
    for kind, params, tail in cases:
        with pytest.raises(GraphError, match=f"^family {kind} takes parameters {re.escape(tail)}$"):
            build_family(FamilySpec(kind, params))
    with pytest.raises(GraphError, match="^family chain takes"):
        black_strategy(FamilySpec("chain", (1, 2)))
    # the command line reads the same family table
    assert cli._FAMILY_PARAMS is dag._FAMILY_PARAMS


def test_vertex_bound():
    """The bound is checked from the parameters, before any edge list exists,
    so far-out instances are refused at once; a graph of exactly the bound
    builds."""
    assert build_family(FamilySpec.chain(MAX_VERTICES)).n == MAX_VERTICES
    for spec in (
        FamilySpec.chain(MAX_VERTICES + 1),
        FamilySpec.pyramid(180),  # 16,471 vertices; pyramid(179) has 16,290
        FamilySpec.binary_tree(14),  # 32,767; binary_tree(13) has 16,383
        FamilySpec.binary_tree(10**9),
        FamilySpec.pyramid(10**9),
        FamilySpec.carlson_savage(91, 1),  # 16,565; (90, 1) has 16,203
        FamilySpec.carlson_savage(2, 10**6),
    ):
        with pytest.raises(SizeBoundExceeded) as exc:
            build_family(spec)
        assert str(exc.value) == f"{spec.label()} has more than {MAX_VERTICES} vertices"
    with pytest.raises(SizeBoundExceeded):
        carlson_savage_layout(2, 10**6)
    for text in (f"p dag {MAX_VERTICES + 1}\n", "p dag 1000000000\ne 0 1\n"):
        with pytest.raises(SizeBoundExceeded) as exc:
            read_graph(text)
        assert str(exc.value).startswith("graph has ")
    with pytest.raises(SizeBoundExceeded):
        Dag(MAX_VERTICES + 1, [])


def test_family_sizes_predicted_exactly(monkeypatch):
    """The counts the bound is checked on are the built vertex counts."""
    seen = []
    monkeypatch.setattr(dag, "_check_size", lambda spec, n: seen.append((spec, n)))
    specs = [FamilySpec.chain(n) for n in (1, 5)]
    specs += [FamilySpec.pyramid(h) for h in (1, 2, 7)]
    specs += [FamilySpec.binary_tree(h) for h in (1, 2, 7)]
    specs += [FamilySpec.carlson_savage(c, r) for c in (2, 3, 4) for r in (0, 1, 2, 3)]
    built = [build_family(spec).n for spec in specs]
    assert seen == list(zip(specs, built))


# --- text format ---------------------------------------------------------------


def test_write_then_read_round_trip():
    g = build_family(FamilySpec.pyramid(2))
    text = write_graph(g)
    assert text.startswith("p dag 6\n")
    assert text.endswith("\n")
    g2 = read_graph(text)
    assert g2 == g


def test_read_accepts_comments_and_blank_lines():
    g = read_graph("c a comment\n\np dag 2\ne 0 1\nt 1\n")
    assert g.n == 2
    assert g.targets == (1,)


def test_read_reports_line_numbers():
    with pytest.raises(ParseError) as exc:
        read_graph("p dag 2\ne 1 0\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        read_graph("p dag 2\ne 0 9\n")
    assert "line 2" in str(exc.value)


def test_read_rejects_garbage():
    with pytest.raises(ParseError):
        read_graph("")
    with pytest.raises(ParseError):
        read_graph("p dag 2\nq 0 1\n")
    with pytest.raises(ParseError):
        read_graph("p dag 2\np dag 3\n")
    with pytest.raises(ParseError, match="^line 1: e line before p line$"):
        read_graph("e 0 1\np dag 2\n")
    with pytest.raises(ParseError, match="^line 1: t line before p line$"):
        read_graph("t 0\np dag 2\n")
    with pytest.raises(ParseError, match="^invalid graph: fan-in exceeds 2 at vertex 3$"):
        read_graph("p dag 4\ne 0 3\ne 1 3\ne 2 3\n")


def test_round_trip_fuzz():
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        g = Dag(n, edges)
        if validate_dag(g):
            continue
        g2 = read_graph(write_graph(g))
        assert g2 == g
        assert write_graph(g2) == write_graph(g)
