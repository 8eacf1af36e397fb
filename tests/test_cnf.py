"""Tests for clause handling, formula generation, and the DIMACS format."""

import random

import pytest

from pebble_bench import (
    Cnf,
    Dag,
    FamilySpec,
    GraphError,
    ParseError,
    SizeBoundExceeded,
    build_family,
    compile_pebbling,
    pebbling_contradiction,
    read_dimacs,
    var_id,
    var_vertex,
    validate_pebbling,
    write_dimacs,
)
from pebble_bench.cnf import (
    MAX_CLAUSES,
    MAX_LITERALS,
    canon_clause,
    check_formula_size,
    is_tautology,
)
from pebble_bench.strategies import black_strategy

SEED = 271828


def test_canon_clause_sorts_and_dedups():
    assert canon_clause((3, -1, 3, 2)) == (-1, 2, 3)
    # within a variable the positive literal sorts first
    assert canon_clause((-2, 2)) == (2, -2)
    assert canon_clause(()) == ()


def test_is_tautology():
    assert is_tautology((-2, 2))
    assert not is_tautology((1, 2, -3))


# Reference copies of the first implementations, kept to pin the faster ones.


def ref_canon_clause(lits):
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l < 0)))


def ref_is_tautology(lits):
    s = set(lits)
    return any(-l in s for l in s)


def ref_first_bad_literal(num_vars, cl):
    for l in cl:
        if l == 0 or abs(l) > num_vars:
            return l
    return None


def random_lits(rng, zero=False):
    """A short literal list over few variables, so duplicates and
    complementary pairs are common; the empty list included."""
    lo = 0 if zero else 1
    return [rng.choice((1, -1)) * rng.randint(lo, 6) for _ in range(rng.randint(0, 9))]


def test_canon_and_tautology_match_reference():
    rng = random.Random(SEED)
    cases = [[], [3, 3], [2, -2], [-2, 2], [-5, 5, -5, 1, -1]]
    cases += [random_lits(rng) for _ in range(3000)]
    for lits in cases:
        assert canon_clause(lits) == ref_canon_clause(lits), lits
        assert canon_clause(iter(lits)) == ref_canon_clause(lits), lits
        assert is_tautology(lits) == ref_is_tautology(lits), lits


def distinct_lits(rng, zero=False):
    """A literal list over distinct variables (0 counts as one), so the
    clause takes Cnf's fast path."""
    lo = 0 if zero else 1
    k = rng.randint(0, 6)
    return [rng.choice((1, -1)) * v for v in rng.sample(range(lo, 7), k)]


def test_cnf_names_first_bad_literal():
    """Every outcome, from both the fast path (no repeated variable) and the
    canonicalising one, for tuple and list clauses; an error names the
    clause as given."""
    rng = random.Random(SEED)
    seen = set()
    for trial in range(4000):
        num_vars = rng.randint(0, 6)
        lits = (random_lits if trial % 2 else distinct_lits)(rng, zero=True)
        cl = rng.choice((tuple, list))(lits)
        bad = ref_first_bad_literal(num_vars, cl)
        repeated = len({abs(l) for l in cl}) < len(cl)
        if bad is not None:
            with pytest.raises(GraphError) as e:
                Cnf(num_vars, ((1,) if num_vars else (), cl))
            assert str(e.value) == f"literal {bad} out of range in clause {cl}"
            seen.add(("range", repeated, type(cl)))
        elif ref_is_tautology(cl):
            with pytest.raises(GraphError) as e:
                Cnf(num_vars, (cl,))
            assert str(e.value) == f"tautological clause {cl}"
            seen.add(("tautology", repeated, type(cl)))
        else:
            assert Cnf(num_vars, (cl,)).clauses == (ref_canon_clause(cl),)
            seen.add(("ok", repeated, type(cl)))
    # a tautology repeats a variable; every other outcome meets both paths
    assert seen == {
        (outcome, repeated, kind)
        for outcome in ("range", "tautology", "ok")
        for repeated in (False, True)
        for kind in (tuple, list)
        if repeated or outcome != "tautology"
    }


def test_cnf_rejects_bad_clauses():
    with pytest.raises(Exception):
        Cnf(2, ((1, -1),))  # tautology
    with pytest.raises(Exception):
        Cnf(1, ((2,),))  # out of range
    with pytest.raises(Exception):
        Cnf(1, ((0,),))  # zero literal


def test_variable_numbering_round_trip():
    d = 3
    for v in range(5):
        for i in range(1, d + 1):
            lit = var_id(v, i, d)
            assert var_vertex(lit, d) == (v, i)
    assert var_id(0, 1, 1) == 1  # variables are 1-based


def test_edge_graph_formula_d1():
    g = Dag(2, [(0, 1)], targets=[1])
    f = pebbling_contradiction(g, 1)
    assert f.num_vars == 2
    assert f.clauses == ((1,), (-1, 2), (-2,))


def test_edge_graph_formula_starred():
    g = Dag(2, [(0, 1)], targets=[1])
    f = pebbling_contradiction(g, 1, starred=True)
    assert f.clauses == ((1,), (-1, 2))


def test_pyramid1_formula_d2_counts():
    g = build_family(FamilySpec.pyramid(1))
    f = pebbling_contradiction(g, 2)
    assert f.num_vars == 6
    assert len(f.clauses) == 8
    # two source clauses, four propagation clauses, two target units
    assert f.clauses[0] == (1, 2)
    assert f.clauses[1] == (3, 4)
    assert (-5,) in f.clauses and (-6,) in f.clauses


def test_propagation_clause_shape():
    g = build_family(FamilySpec.pyramid(1))
    f = pebbling_contradiction(g, 2)
    # propagation: for each assignment (i, j) in [2]^2 of the two predecessors
    props = [c for c in f.clauses if len(c) == 4]
    assert len(props) == 4
    for c in props:
        negs = [l for l in c if l < 0]
        poss = [l for l in c if l > 0]
        assert len(negs) == 2 and poss == [5, 6]


def test_clause_count_formula():
    # clauses = #sources + sum over non-sources of d^indeg + d * #targets
    for spec in [FamilySpec.chain(4), FamilySpec.pyramid(2), FamilySpec.binary_tree(2)]:
        g = build_family(spec)
        for d in (1, 2, 3):
            f = pebbling_contradiction(g, d)
            expected = (
                len(g.sources)
                + sum(d ** len(g.preds[v]) for v in range(g.n) if g.preds[v])
                + d * len(g.targets)
            )
            assert len(f.clauses) == expected
            assert f.num_vars == d * g.n
            assert check_formula_size(g, d) == (expected, sum(map(len, f.clauses)))
            starred = pebbling_contradiction(g, d, starred=True)
            assert check_formula_size(g, d, starred=True) == (
                len(starred.clauses),
                sum(map(len, starred.clauses)),
            )


def test_clause_count_guard():
    spec = FamilySpec.pyramid(2)
    g = build_family(spec)
    trace = validate_pebbling(g, black_strategy(spec), game="black")
    # pyramid(2): 3 sources, 3 vertices of fan-in 2, one target.
    d = next(d for d in range(1, 1000) if 3 + 3 * d * d + d > MAX_CLAUSES)
    for starred in (False, True):
        # The clause bound is tested first, so a literal error at d - 1 means
        # the clauses are within their bound; d + 1 is above both bounds.
        with pytest.raises(SizeBoundExceeded, match="literals"):
            check_formula_size(g, d - 1, starred=starred)
        with pytest.raises(SizeBoundExceeded, match=f"clauses, above the bound {MAX_CLAUSES}$"):
            pebbling_contradiction(g, d + 1, starred=starred)
        with pytest.raises(SizeBoundExceeded, match=f"clauses, above the bound {MAX_CLAUSES}$"):
            compile_pebbling(g, d + 1, trace, starred=starred)


def test_literal_count_guard():
    spec = FamilySpec.pyramid(2)
    g = build_family(spec)
    trace = validate_pebbling(g, black_strategy(spec), game="black")
    # pyramid(2): 3 sources of d literals, 3 vertices of fan-in 2 with d^2
    # clauses of d + 2 literals, one target of d unit clauses.
    d = next(d for d in range(1, 1000) if 4 * d + 3 * d * d * (d + 2) > MAX_LITERALS)
    with pytest.raises(SizeBoundExceeded, match="literals"):  # only the literals are too many
        check_formula_size(g, d)
    assert check_formula_size(g, d - 1)[1] <= MAX_LITERALS
    for starred in (False, True):
        with pytest.raises(SizeBoundExceeded, match=f"literals, above the bound {MAX_LITERALS}"):
            pebbling_contradiction(g, d + 1, starred=starred)
        with pytest.raises(SizeBoundExceeded, match="literals"):
            compile_pebbling(g, d + 1, trace, starred=starred)


def test_d_must_be_positive():
    g = Dag(1, [], targets=[0])
    with pytest.raises(Exception):
        pebbling_contradiction(g, 0)


def test_dimacs_round_trip():
    g = build_family(FamilySpec.pyramid(2))
    for d in (1, 2):
        f = pebbling_contradiction(g, d)
        text = write_dimacs(f)
        assert text.splitlines()[0] == f"p cnf {f.num_vars} {len(f)}"
        f2 = read_dimacs(text)
        assert f2 == f


def test_dimacs_parse_errors():
    with pytest.raises(ParseError):
        read_dimacs("")
    with pytest.raises(ParseError):
        read_dimacs("p cnf 2 1\n1 2\n")  # missing terminating 0
    with pytest.raises(ParseError):
        read_dimacs("p cnf 2 2\n1 0\n")  # count mismatch
    with pytest.raises(ParseError):
        read_dimacs("p cnf 1 1\n5 0\n")  # literal out of range
    with pytest.raises(ParseError, match="^line 2: duplicate p line$"):
        read_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")
    with pytest.raises(ParseError, match="^line 1: bad header 'p cnf x 1'$"):
        read_dimacs("p cnf x 1\n1 0\n")
    with pytest.raises(ParseError, match="^line 1: clause before p line$"):
        read_dimacs("1 0\np cnf 1 1\n")


def test_dimacs_names_clause_as_written():
    with pytest.raises(ParseError) as exc:
        read_dimacs("p cnf 2 1\n3 -1 0\n")
    assert str(exc.value) == "literal 3 out of range in clause (3, -1)"
    with pytest.raises(ParseError) as exc:
        read_dimacs("p cnf 2 1\n2 -1 1 0\n")
    assert str(exc.value) == "tautological clause (2, -1, 1)"
    assert read_dimacs("p cnf 2 1\n2 -1 2 0\n").clauses == ((-1, 2),)


def test_dimacs_accepts_comments():
    f = read_dimacs("c hi\np cnf 2 1\nc mid\n-1 2 0\n")
    assert f.clauses == ((-1, 2),)


def test_formula_deterministic():
    g = build_family(FamilySpec.carlson_savage(2, 1))
    a = write_dimacs(pebbling_contradiction(g, 2))
    b = write_dimacs(pebbling_contradiction(g, 2))
    assert a == b


def test_fuzz_formula_invariants():
    rng = random.Random(SEED)
    for _ in range(100):
        n = rng.randint(1, 8)
        edges = []
        for v in range(1, n):
            k = rng.randint(0, min(2, v))
            edges.extend((u, v) for u in rng.sample(range(v), k))
        g = Dag(n, edges)
        d = rng.randint(1, 3)
        f = pebbling_contradiction(g, d)
        assert f.num_vars == d * n
        # sources give positive clauses of width d
        for s in g.sources:
            ws = tuple(var_id(s, i, d) for i in range(1, d + 1))
            assert ws in f.clauses
        # every clause mentions each vertex at most once per polarity set
        for c in f.clauses:
            assert len(set(c)) == len(c)
