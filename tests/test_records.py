"""The package's records: each is a named tuple or a ``__slots__`` class,
and each keeps the semantics it had as a frozen dataclass: its repr and
str, no assignment or deletion, equal values hashing equal, its validation
messages, and a move unequal to a move of another kind."""

import os
import re
import subprocess
import sys

import pytest

import pebble_bench
from pebble_bench import (
    Axiom,
    BlobConfig,
    BlobSubconfig,
    BlobTrace,
    Cnf,
    Dag,
    Erase,
    EraseMove,
    FamilySpec,
    GraphError,
    IllegalMove,
    Infer,
    InflateMove,
    IntroduceMove,
    LayeredView,
    LhcResult,
    MeasureValue,
    MergeMove,
    Move,
    PebblingTrace,
    ProofMetrics,
    ResolutionTrace,
    parse_blob_moves,
    sub,
)
from pebble_bench.dag import CsLayout, CsLevel
from pebble_bench.measures import LhcWitness

CHAIN2 = Dag(2, [(0, 1)])
WITNESS = "LhcWitness(vertices=(1, 2), measure=3, smallest_hider=None)"

# (make a record, the field assigned to, its repr, its str)
RECORDS = [
    (lambda: Move("PB", 1), "kind", "Move(kind='PB', v=1)", "PB 1"),
    (
        lambda: PebblingTrace("black", (Move("PB", 0), Move("RB", 0)), 1, 1),
        "time",
        "PebblingTrace(game='black', moves=(Move(kind='PB', v=0), Move(kind='RB', v=0)), "
        "time=1, space=1)",
        None,
    ),
    (
        lambda: sub([1], [0]),
        "blob",
        "BlobSubconfig(blob=frozenset({1}), whites=frozenset({0}))",
        "[1]<0>",
    ),
    (
        lambda: BlobSubconfig(frozenset({2})),
        "whites",
        "BlobSubconfig(blob=frozenset({2}), whites=frozenset())",
        "[2]<>",
    ),
    (
        lambda: BlobConfig(frozenset({sub([1], [0])})),
        "subs",
        "BlobConfig(subs=frozenset({BlobSubconfig(blob=frozenset({1}), whites=frozenset({0}))}))",
        "{[1]<0>}",
    ),
    (lambda: BlobConfig(), "subs", "BlobConfig(subs=frozenset())", "{}"),
    (lambda: IntroduceMove(0), "v", "IntroduceMove(v=0)", "I 0"),
    (lambda: MergeMove(0, 1, 2), "pivot", "MergeMove(i=0, j=1, pivot=2)", "M 0 1 2"),
    (
        lambda: InflateMove(0, frozenset({3, 1}), frozenset()),
        "blob",
        "InflateMove(i=0, blob=frozenset({1, 3}), whites=frozenset())",
        "F 0 1,3|",
    ),
    (lambda: EraseMove(3), "i", "EraseMove(i=3)", "E 3"),
    (
        lambda: BlobTrace((IntroduceMove(1),), 2, 2, BlobConfig(frozenset({sub([1], [0])}))),
        "cost",
        "BlobTrace(moves=(IntroduceMove(v=1),), cost=2, naive_cost=2, final=BlobConfig(subs="
        "frozenset({BlobSubconfig(blob=frozenset({1}), whites=frozenset({0}))})))",
        None,
    ),
    (lambda: Cnf(2, [(2, 1), (-1,)]), "clauses", "Cnf(num_vars=2, clauses=((1, 2), (-1,)))", None),
    (
        lambda: ResolutionTrace((Axiom((1,)), Axiom((-1,)), Infer(1, 2, 1, ()), Erase(1))),
        "events",
        "ResolutionTrace(events=(Axiom(clause=(1,)), Axiom(clause=(-1,)), "
        "Infer(left=1, right=2, pivot=1, clause=()), Erase(id=1)))",
        None,
    ),
    (
        lambda: ProofMetrics(3, 1, 2),
        "width",
        "ProofMetrics(length=3, width=1, clause_space=2)",
        None,
    ),
    (lambda: FamilySpec.pyramid(3), "params", "FamilySpec(kind='pyramid', params=(3,))", None),
    (
        lambda: CsLevel(4, (0, 1), (4, 0, 4, 1), ((5, 6, 7), (8, 9, 10)), (7, 10)),
        "apex",
        "CsLevel(apex=4, prev_sinks=(0, 1), aux_seq=(4, 0, 4, 1), "
        "spines=((5, 6, 7), (8, 9, 10)), sinks=(7, 10))",
        None,
    ),
    (lambda: CsLayout(2, 0, (0, 1)), "levels", "CsLayout(c=2, r=0, base=(0, 1), levels=())", None),
    (
        lambda: LayeredView(CHAIN2, (0, 1)),
        "levels",
        "LayeredView(g=Dag(n=2, edges=1, targets=(1,)), levels=(0, 1))",
        None,
    ),
    (lambda: MeasureValue(2, (2, 0)), "value", "MeasureValue(value=2, partials=(2, 0))", None),
    (lambda: LhcWitness((1, 2), 3, None), "measure", WITNESS, None),
    (
        lambda: LhcResult(False, 2, LhcWitness((1, 2), 3, None)),
        "holds",
        f"LhcResult(holds=False, bound=2, witness={WITNESS})",
        None,
    ),
]


@pytest.mark.parametrize("make, field, text, shown", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_repr_str_immutability_and_hash(make, field, text, shown):
    rec = make()
    assert repr(rec) == text
    assert str(rec) == (text if shown is None else shown)
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    twin = make()
    assert twin is not rec and twin == rec and not twin != rec and hash(twin) == hash(rec)


def test_every_record_is_pinned():
    assert {type(make()).__name__ for make, *_ in RECORDS} == {
        "Move", "PebblingTrace", "BlobSubconfig", "BlobConfig", "IntroduceMove", "MergeMove",
        "InflateMove", "EraseMove", "BlobTrace", "Cnf", "ResolutionTrace", "ProofMetrics",
        "FamilySpec", "CsLevel", "CsLayout", "LayeredView", "MeasureValue", "LhcWitness",
        "LhcResult",
    }


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Move("XB", 1), IllegalMove, "unknown move kind 'XB'"),
        (lambda: Move(kind="pb", v=1), IllegalMove, "unknown move kind 'pb'"),
        (lambda: sub([]), IllegalMove, "blob empty"),
        (lambda: sub([1, 2], [2]), IllegalMove, "blob and whites overlap"),
        (lambda: FamilySpec("pyramid", (1, 2)), GraphError, "family pyramid takes parameters (h), got 2"),
        (lambda: FamilySpec("carlson_savage", (2,)), GraphError,
         "family carlson_savage takes parameters (c, r), got 1"),
        (lambda: FamilySpec.chain(0), GraphError, "chain needs n >= 1"),
        (lambda: FamilySpec.carlson_savage(1, 0), GraphError, "carlson_savage needs c >= 2"),
        (lambda: FamilySpec.carlson_savage(2, -1), GraphError, "carlson_savage needs r >= 0"),
        (lambda: LayeredView(CHAIN2, (0,)), GraphError, "level map size mismatch"),
        (lambda: LayeredView(CHAIN2, (1, 1)), GraphError, "graph not layered: edge (0, 1)"),
        (lambda: Cnf(2, [(1, 3)]), GraphError, "literal 3 out of range in clause (1, 3)"),
        (lambda: Cnf(2, [[2, 0]]), GraphError, "literal 0 out of range in clause [2, 0]"),
        (lambda: Cnf(2, [(1, -2, 2)]), GraphError, "tautological clause (1, -2, 2)"),
    ],
)
def test_record_validation_messages(make, error, message):
    with pytest.raises(error) as got:
        make()
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize(
    "rec, change, message",
    [
        (Move("PB", 1), {"kind": "XX"}, "unknown move kind 'XX'"),
        (sub([1]), {"blob": frozenset()}, "blob empty"),
        (FamilySpec.pyramid(2), {"params": (0,)}, "pyramid needs h >= 1"),
        (LayeredView(CHAIN2, (0, 1)), {"levels": (1, 1)}, "graph not layered: edge (0, 1)"),
    ],
)
def test_replace_checks_as_construction_does(rec, change, message):
    with pytest.raises((IllegalMove, GraphError), match=f"^{re.escape(message)}$"):
        rec._replace(**change)
    with pytest.raises((IllegalMove, GraphError), match=f"^{re.escape(message)}$"):
        type(rec)._make({**rec._asdict(), **change}.values())
    assert rec._replace() == rec and type(rec._replace()) is type(rec)


def test_lengths_count_clauses_and_events():
    assert len(Cnf(3, [(1, 2), (-1,), (3,)])) == 3
    assert len(Cnf(0, [])) == 0
    trace = ResolutionTrace((Axiom((1,)), Axiom((-1,)), Infer(1, 2, 1, ()), Erase(1), Erase(2)))
    assert len(trace) == 5


def test_moves_of_different_kinds_differ():
    """Two moves are equal only if they are of one kind, even when their
    fields agree, so a move list compares move for move."""
    moves = [IntroduceMove(0), EraseMove(0), MergeMove(0, 1, 2), InflateMove(0, 1, 2)]
    for i, a in enumerate(moves):
        for j, b in enumerate(moves):
            assert (a == b) == (i == j) and (a != b) == (i != j), (a, b)
    assert IntroduceMove(0) != (0,) and not (0,) == IntroduceMove(0)
    assert parse_blob_moves("I 0\n") == [IntroduceMove(0)]
    assert parse_blob_moves("I 0\n") != [EraseMove(0)]
    assert parse_blob_moves("E 0\n") != [IntroduceMove(0)]
    assert len({IntroduceMove(0), EraseMove(0), IntroduceMove(0)}) == 2


def test_cli_import_leaves_out_dataclasses():
    """No module of the package builds a class from generated code, so a
    command-line start does not import ``dataclasses``."""
    src = os.path.dirname(os.path.dirname(pebble_bench.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, pebble_bench.cli; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
