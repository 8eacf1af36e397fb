"""End-to-end tests for the command line interface."""

import csv
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
import weakref

import pytest

import pebble_bench
from pebble_bench import (
    FamilySpec,
    black_strategy,
    build_family,
    check_refutation,
    compile_pebbling,
    format_moves,
    format_trace,
    optimal_price,
    parse_trace,
    pebbling_contradiction,
    read_dimacs,
    tradeoff_frontier,
    validate_pebbling,
    parse_moves,
    write_dimacs,
    write_graph,
)
from pebble_bench import cli, dag, search, strategies
from pebble_bench.cnf import MAX_CLAUSES, MAX_LITERALS
from pebble_bench.cli import run_command, tradeoff_report


def run(capsys, *argv):
    code = run_command(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- gen-graph ----------------------------------------------------------------


def test_gen_graph_stdout(capsys):
    code, out, err = run(capsys, "gen-graph", "--family", "chain", "--n", "3")
    assert code == 0 and err == ""
    assert out == write_graph(build_family(FamilySpec.chain(3)))


def test_gen_graph_to_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, out, _ = run(capsys, "gen-graph", "--family", "pyramid", "--h", "2", "-o", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == write_graph(build_family(FamilySpec.pyramid(2)))


def test_oversized_graph_exits_1_at_once(tmp_path, capsys):
    """The vertex bound is checked before the graph is built: binary_tree(16)
    would take 5 s and 2.3 GiB, and a huge p line would allocate n lists."""
    big = tmp_path / "big.graph"
    big.write_text("p dag 1000000000\n")
    for argv, message in (
        (["gen-graph", "--family", "binary_tree", "--h", "16"], "binary_tree(16) has more"),
        (["gen-graph", "--family", "binary_tree", "--h", "40"], "binary_tree(40) has more"),
        (["price", "--graph", str(big)], "graph has 1000000000 vertices"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_gen_graph_missing_param(capsys):
    code, _, err = run(capsys, "gen-graph", "--family", "pyramid")
    assert code == 2
    assert "usage error" in err and "--h" in err


def test_bad_command_line_is_one_usage_line(capsys):
    for argv, message in (
        (["price", "--family", "pyramid", "--h", "x"], "argument --h: invalid int value: 'x'"),
        (
            ["frontier", "--family", "chain", "--n", "3"],
            "the following arguments are required: --space-cap",
        ),
        ([], "the following arguments are required: command"),
        (
            ["frontier", "--family", "chain", "--n", "3", "--space-cap", "-1"],
            "argument --space-cap: bad space cap '-1'",
        ),
        (
            ["price", "--family", "chain", "--n", "3", "--bound", "20"],
            "unrecognized arguments: --bound 20",
        ),
    ):
        assert run(capsys, *argv) == (2, "", f"usage error: {message}\n"), argv


def test_bad_family_value_exits_1(capsys):
    code, _, err = run(capsys, "gen-graph", "--family", "pyramid", "--h", "0")
    assert code == 1
    assert "error:" in err


def test_family_flags_come_from_the_table(capsys):
    """Every family parameter is one flag, in table order, on every command
    that takes a family."""
    for command in ("gen-graph", "gen-cnf", "price", "frontier", "strategy", "compile", "measure"):
        with pytest.raises(SystemExit):
            run_command([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "[--family {binary_tree,carlson_savage,chain,pyramid}] [--n N] [--h H] [--c C] [--r R]" in out


def test_strategy_usage_errors_come_before_the_family_check(capsys):
    """A misused --budget is a usage error even when a parameter is out of
    range, and a missing --family is named before a misused --budget."""
    assert run(capsys, "strategy", "--budget", "3") == (2, "", "usage error: a --family is required\n")
    assert run(capsys, "strategy", "--family", "chain", "--n", "0", "--budget", "3") == (
        2, "", "usage error: --budget only applies to carlson_savage\n",
    )
    assert run(capsys, "strategy", "--family", "chain", "--n", "0") == (1, "", "error: chain needs n >= 1\n")


# --- gen-cnf ------------------------------------------------------------------


def test_gen_cnf_matches_library(capsys):
    code, out, _ = run(capsys, "gen-cnf", "--family", "pyramid", "--h", "1", "--d", "2")
    assert code == 0
    f = read_dimacs(out)
    want = pebbling_contradiction(build_family(FamilySpec.pyramid(1)), 2)
    assert f.num_vars == want.num_vars and f.clauses == want.clauses


def test_gen_cnf_starred(capsys):
    code, out, _ = run(capsys, "gen-cnf", "--family", "chain", "--n", "2", "--starred")
    assert code == 0
    assert (-2,) not in read_dimacs(out).clauses


def test_gen_cnf_from_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_graph(build_family(FamilySpec.chain(3))))
    code, out, _ = run(capsys, "gen-cnf", "--graph", str(path))
    assert code == 0
    assert read_dimacs(out).clauses == pebbling_contradiction(
        build_family(FamilySpec.chain(3)), 1
    ).clauses


def test_graph_and_family_conflict(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_graph(build_family(FamilySpec.chain(2))))
    code, _, err = run(capsys, "gen-cnf", "--graph", str(path), "--family", "chain", "--n", "2")
    assert code == 2 and "not both" in err


# --- price / frontier -----------------------------------------------------------


def test_price_black_and_bw(capsys):
    assert run(capsys, "price", "--family", "chain", "--n", "4") == (0, "2\n", "")
    code, out, _ = run(capsys, "price", "--family", "pyramid", "--h", "2", "--game", "bw")
    assert (code, out) == (0, "3\n")


def stats_record(err):
    """The JSON line --stats writes, read back, and the stderr after it."""
    line, rest = err.split("\n", 1)
    record = json.loads(line)
    assert list(record) == ["budgets", "generated", "expanded", "table", "seconds", "stop"]
    for b in record["budgets"]:
        assert list(b) == ["space", "generated", "expanded", "seconds"]
    return record, rest


def test_price_bound_exceeded(capsys, monkeypatch):
    """A search past its limit is one error line naming the work."""
    # pyramid(2) black stores 14 and 14 states at budgets 3-4, from its
    # price floor, at 128 B plus 12 bits each.
    monkeypatch.setattr(search, "MAX_STORED_BYTES", 20 * 129)
    err = "error: black search at space budget 4 stored 22 states, above the limit 20\n"
    assert run(capsys, "price", "--family", "pyramid", "--h", "2") == (1, "", err)
    frontier = ["frontier", "--family", "pyramid", "--h", "2", "--space-cap", "6"]
    assert run(capsys, *frontier) == (1, "", err)
    # With --stats the record comes first, ending with the budget refused.
    for argv in (["price", "--family", "pyramid", "--h", "2"], frontier):
        code, out, stats_err = run(capsys, *argv, "--stats")
        assert (code, out) == (1, "")
        record, rest = stats_record(stats_err)
        assert rest == err
        assert [(b["space"], b["generated"]) for b in record["budgets"]] == [(3, 14), (4, 8)]
        assert record["stop"] == "states"


def test_stats_line(capsys):
    """--stats on price and frontier writes the SearchStats record as one
    JSON line on stderr, with the library's counts; stdout is unchanged."""
    g = build_family(FamilySpec.pyramid(2))
    for argv, call in (
        (["price", "--family", "pyramid", "--h", "2"], lambda stats: optimal_price(g, stats=stats)),
        (
            ["frontier", "--family", "pyramid", "--h", "2", "--space-cap", "6"],
            lambda stats: tradeoff_frontier(g, space_cap=6, stats=stats),
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        code, stats_out, err = run(capsys, *argv, "--stats")
        assert (code, stats_out) == (0, out)
        record, rest = stats_record(err)
        assert rest == ""
        want = search.SearchStats()
        call(want)
        got = [(b["space"], b["generated"], b["expanded"]) for b in record["budgets"]]
        assert got == [(b.space, b.generated, b.expanded) for b in want.budgets]
        assert [record[k] for k in ("generated", "expanded", "table", "stop")] == [
            want.generated, want.expanded, want.table, want.stop,
        ]
        assert record["seconds"] == pytest.approx(sum(b["seconds"] for b in record["budgets"]))


def test_frontier_csv(capsys):
    code, out, _ = run(
        capsys, "frontier", "--family", "chain", "--n", "4", "--space-cap", "4"
    )
    assert code == 0
    assert out == "family,params,game,space,min_time\nchain,4,black,2,4\n"


def test_frontier_from_file_labels(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text(write_graph(build_family(FamilySpec.chain(2))))
    code, out, _ = run(capsys, "frontier", "--graph", str(path), "--space-cap", "3")
    assert code == 0
    assert out.splitlines()[1] == "file,edge.txt,black,2,2"
    # A file name holding a comma, a quote, a newline or a carriage return
    # is quoted, one field, on every Python version.
    for name in ("a,b.graph", 'a"b.graph', "a\nb.graph", "a\rb.graph", "a\r\nb.graph"):
        path = tmp_path / name
        path.write_text(write_graph(build_family(FamilySpec.chain(2))))
        code, out, _ = run(capsys, "frontier", "--graph", str(path), "--space-cap", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["family", "params", "game", "space", "min_time"], ["file", name, "black", "2", "2"]]


# --- strategy -------------------------------------------------------------------


def test_strategy_pyramid_validates(capsys):
    code, out, _ = run(capsys, "strategy", "--family", "pyramid", "--h", "2")
    assert code == 0
    g = build_family(FamilySpec.pyramid(2))
    trace = validate_pebbling(g, parse_moves(out), game="black")
    assert trace.time == 6 and trace.space == 4


def test_strategy_to_file_prints_report(tmp_path, capsys):
    path = tmp_path / "moves.txt"
    code, out, _ = run(
        capsys, "strategy", "--family", "carlson_savage", "--c", "2", "--r", "1",
        "--budget", "3", "-o", str(path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["time"] == 16 and report["space"] == 3
    g = build_family(FamilySpec.carlson_savage(2, 1))
    validate_pebbling(g, parse_moves(path.read_text()), game="black")


def test_strategy_budget_misuse(capsys):
    code, _, err = run(capsys, "strategy", "--family", "chain", "--n", "3", "--budget", "2")
    assert code == 2 and "carlson_savage" in err
    code, _, err = run(
        capsys, "strategy", "--family", "carlson_savage", "--c", "2", "--r", "1",
        "--budget", "2",
    )
    assert code == 1 and "error:" in err


def test_strategy_longest_chain(tmp_path, capsys):
    """A chain of MAX_VERTICES vertices is pebbled without recursion."""
    path = tmp_path / "moves.txt"
    code, out, err = run(
        capsys, "strategy", "--family", "chain", "--n", "16384", "-o", str(path)
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"time": 16384, "space": 2, "moves_total": 32768}
    g = build_family(FamilySpec.chain(16384))
    trace = validate_pebbling(g, parse_moves(path.read_text()), game="black")
    assert (trace.time, trace.space) == (16384, 2)


def test_strategy_errors_exit_1_at_once(capsys):
    """Emission stops past strategies.MAX_MOVES moves (carlson_savage(2, 12)
    and (2, 30) build in milliseconds but emit exponentially many), and a
    carlson_savage level count out of range is refused, not recursed on."""
    too_long = "strategy has more than 262144 moves"
    for argv, message in (
        (["--family", "carlson_savage", "--c", "2", "--r", "12"], too_long),
        (["--family", "carlson_savage", "--c", "2", "--r", "30"], too_long),
        (["--family", "carlson_savage", "--c", "2", "--r", "-1"], "carlson_savage needs r >= 0"),
        (["--family", "carlson_savage", "--c", "2", "--r", "2000"], "carlson_savage(2,2000) has"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "strategy", *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


# --- compile / check --------------------------------------------------------------


def test_compile_then_check_files(tmp_path, capsys):
    moves = tmp_path / "moves.txt"
    cnf = tmp_path / "f.cnf"
    proof = tmp_path / "proof.txt"
    code, out, _ = run(capsys, "strategy", "--family", "chain", "--n", "3")
    assert code == 0
    moves.write_text(out)
    assert run_command(["gen-cnf", "--family", "chain", "--n", "3", "-o", str(cnf)]) == 0
    capsys.readouterr()
    code = run_command(
        ["compile", "--family", "chain", "--n", "3", "--moves", str(moves), "-o", str(proof)]
    )
    assert code == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "check", "--cnf", str(cnf), "--proof", str(proof))
    assert code == 0
    metrics = json.loads(out)
    assert metrics["width"] == 2 and metrics["length"] >= 5


def test_compile_blob_moves(tmp_path, capsys):
    moves = tmp_path / "blob.txt"
    moves.write_text("I 1\nI 0\nM 1 0 0\nE 0\nE 1\n")
    path = tmp_path / "edge.txt"
    path.write_text(write_graph(build_family(FamilySpec.chain(2))))
    code, out, _ = run(
        capsys, "compile", "--graph", str(path), "--moves", str(moves), "--blob"
    )
    assert code == 0
    f = pebbling_contradiction(build_family(FamilySpec.chain(2)), 1)
    assert check_refutation(f, parse_trace(out)).length == 5


def test_compile_blob_inflation_outside_the_graph(tmp_path, capsys):
    moves = tmp_path / "blob.txt"
    moves.write_text("I 0\nF 0 0|99\n")
    argv = ["compile", "--family", "chain", "--n", "3", "--blob", "--moves", str(moves)]
    assert run(capsys, *argv) == (1, "", "error: move 2: vertex 99 out of range\n")


@pytest.mark.parametrize("d", ["0", "-1"])
def test_compile_rejects_d_below_1(tmp_path, capsys, d):
    moves = tmp_path / "moves.txt"
    moves.write_text("PB 0\nPB 1\nRB 0\nRB 1\n")
    argv = ["compile", "--family", "chain", "--n", "2", "--d", d, "--moves", str(moves)]
    assert run(capsys, *argv) == (1, "", "error: d must be >= 1\n")
    assert run(capsys, "gen-cnf", "--family", "chain", "--n", "2", "--d", d)[0] == 1


def test_oversized_formula_exits_1(tmp_path, capsys):
    # pyramid(2) at d has 3 + 3d^2 + d clauses
    d = next(d for d in range(1, 1000) if 3 + 3 * d * d + d > MAX_CLAUSES)
    moves = tmp_path / "moves.txt"
    moves.write_text(format_moves(black_strategy(FamilySpec.pyramid(2))))
    graph = ["--family", "pyramid", "--h", "2", "--d", str(d)]
    for argv in (["gen-cnf", *graph], ["compile", *graph, "--moves", str(moves)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == (
            f"error: degree-{d} pebbling contradiction has {3 + 3 * d * d + d} clauses, "
            f"above the bound {MAX_CLAUSES}\n"
        )
    # d = 180 is inside the clause bound but has 17,691,120 literals.
    graph = ["--family", "pyramid", "--h", "2", "--d", "180"]
    for argv in (["gen-cnf", *graph], ["compile", *graph, "--moves", str(moves)]):
        assert run(capsys, *argv) == (
            1,
            "",
            "error: degree-180 pebbling contradiction has 17691120 literals, "
            f"above the bound {MAX_LITERALS}\n",
        )


def test_check_rejects_corrupt_proof(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    proof = tmp_path / "proof.txt"
    assert run_command(["gen-cnf", "--family", "chain", "--n", "2", "-o", str(cnf)]) == 0
    proof.write_text("a 2 0\n")  # not an axiom of the formula
    capsys.readouterr()
    code, _, err = run(capsys, "check", "--cnf", str(cnf), "--proof", str(proof))
    assert code == 1 and "error:" in err


def test_check_reports_the_first_fault(tmp_path, capsys):
    """check reads and verifies a trace in one pass and stops at its first
    fault in line order: a failed event is reported whatever malformed line
    follows it, and a malformed line before it is reported in its place.
    Both exit 1."""
    spec, d = FamilySpec.pyramid(2), 2
    g = build_family(spec)
    cnf, proof = tmp_path / "f.cnf", tmp_path / "proof.txt"
    cnf.write_text(write_dimacs(pebbling_contradiction(g, d)))
    ptrace = validate_pebbling(g, black_strategy(spec), game="black")
    lines = format_trace(compile_pebbling(g, d, ptrace)).splitlines()
    assert len(lines) > 40 and lines[1].startswith("a ")
    lines[1] = "a 99 0"  # event 2: not an axiom of the formula
    for malformed in (None, 39):
        if malformed is not None:
            lines[malformed] = "r 1 x 0"
        proof.write_text("\n".join(lines) + "\n")
        wrong = run(capsys, "check", "--cnf", str(cnf), "--proof", str(proof))
        assert wrong == (1, "", "error: event 2: axiom (99,) not in formula\n"), malformed
    lines[0] = "r 1 x 0"
    proof.write_text("\n".join(lines) + "\n")
    assert run(capsys, "check", "--cnf", str(cnf), "--proof", str(proof)) == (
        1,
        "",
        f"error: {proof}: line 1: bad integer in 'r 1 x 0'\n",
    )


@pytest.fixture(scope="module")
def tree7_proof(tmp_path_factory):
    """binary_tree(7)'s pebbling, its formula at d = 8 and the compiled
    proof (34,828 lines, 1.25 MiB), as files, with the family flags."""
    spec, d = FamilySpec.binary_tree(7), 8
    g = build_family(spec)
    ptrace = validate_pebbling(g, black_strategy(spec), game="black")
    root = tmp_path_factory.mktemp("tree7")
    files = {"moves": format_moves(ptrace.moves), "cnf": write_dimacs(pebbling_contradiction(g, d))}
    files["proof"] = format_trace(compile_pebbling(g, d, ptrace))
    for name, text in files.items():
        (root / name).write_text(text)
    return ["--family", "binary_tree", "--h", "7", "--d", str(d)], root


def peak_mib(argv) -> float:
    """The tracemalloc peak of one successful in-process command, in MiB."""
    tracemalloc.start()
    try:
        assert run_command(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_compile_writes_its_trace_a_line_at_a_time(tree7_proof, capsys):
    """compile holds the events, 5.3 MiB here, but not the whole trace text
    as well.  In a fresh process it peaked at 5.8 MiB, and at 11.4 MiB when
    it wrote the text in one piece; after other commands have run, free
    lists hand it some objects untraced, and it read 4.5 MiB.  The 8 MiB
    bound leaves 2.2 MiB above the fresh peak and 3.4 MiB below the old.
    """
    family, root = tree7_proof
    out = root / "compiled"
    assert peak_mib(["compile", *family, "--moves", str(root / "moves"), "-o", str(out)]) < 8
    assert out.read_text() == (root / "proof").read_text()


def test_check_reads_its_trace_a_chunk_at_a_time(tree7_proof, capsys):
    """check holds the trace text and the formula, but not a string per line
    of the trace.  In a fresh process it peaked at 4.1 MiB, and at 9.0 MiB
    when it split the whole text at once; after other commands, 3.9 MiB.
    The 6 MiB bound leaves 1.9 MiB above the fresh peak and 3 MiB below
    the old."""
    _, root = tree7_proof
    assert peak_mib(["check", "--cnf", str(root / "cnf"), "--proof", str(root / "proof")]) < 6
    assert json.loads(capsys.readouterr().out) == {"length": 17416, "width": 16, "clause_space": 12}


# --- measure -------------------------------------------------------------------


def test_measure_json(capsys):
    code, out, _ = run(
        capsys, "measure", "--family", "pyramid", "--h", "2", "--set", "3,4", "--black", "5"
    )
    assert code == 0
    got = json.loads(out)
    assert got == {"hidden": [3, 4, 5], "measure": 3, "partials": [2, 3, 0], "potential": 3}


def test_measure_no_potential_without_pebbles(capsys):
    code, out, _ = run(capsys, "measure", "--family", "chain", "--n", "3", "--set", "1")
    assert code == 0
    assert "potential" not in json.loads(out)


def test_measure_bad_set(capsys):
    code, _, err = run(capsys, "measure", "--family", "chain", "--n", "3", "--set", "1,x")
    assert code == 2 and "usage error" in err


def test_measure_out_of_range_pebble_exits_1(capsys):
    argv = ["measure", "--family", "pyramid", "--h", "2", "--set", "3", "--black", "99"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: vertex 99 out of range\n"


# --- file arguments ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["price", "--graph", "{missing}"],
        ["price", "--graph", "{binary}"],
        ["gen-cnf", "--graph", "{missing}"],
        ["measure", "--graph", "{binary}", "--set", "0"],
        ["compile", "--family", "chain", "--n", "2", "--moves", "{missing}"],
        ["compile", "--family", "chain", "--n", "2", "--moves", "{binary}"],
        ["check", "--cnf", "{missing}", "--proof", "{missing}"],
        ["check", "--cnf", "{binary}", "--proof", "{missing}"],
        ["gen-graph", "--family", "chain", "--n", "2", "-o", "{missing}/x"],
        ["gen-cnf", "--family", "chain", "--n", "2", "-o", "{dir}"],
        ["tradeoff-report", "--spec", "{binary}"],
    ],
)
def test_unusable_file_exits_1(tmp_path, capsys, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00p dag 2\n")
    paths = {"missing": tmp_path / "missing", "binary": binary, "dir": tmp_path}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # the first file argument is the one read (or written) first
    bad = next(a.format(**paths) for a in argv if "{" in a)
    assert bad in err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("pebbling_contradiction", ["gen-cnf", "--family", "chain", "--n", "2"]),
        ("build_family", ["gen-graph", "--family", "chain", "--n", "2"]),
    ],
)
def test_out_of_memory_is_one_line(capsys, monkeypatch, name, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, name, exhausted)
    assert run(capsys, *argv) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize(
    "argv, bad, text, message",
    [
        (
            ["check", "--cnf", "{bad}", "--proof", "{proof}"],
            "f.cnf",
            "p cnf 2 1\n1 x 0\n",
            "line 2: bad clause line '1 x 0'",
        ),
        (
            ["check", "--cnf", "{cnf}", "--proof", "{bad}"],
            "p.proof",
            "a 1\n",
            "line 1: axiom line missing trailing 0",
        ),
        (
            ["gen-cnf", "--graph", "{bad}"],
            "g.graph",
            "p dag 2\ne 0 x\n",
            "line 2: expected integer, got 'x'",
        ),
        (
            ["compile", "--family", "chain", "--n", "2", "--moves", "{bad}"],
            "m.moves",
            "PB 0\nPB\n",
            "line 2: bad move line 'PB'",
        ),
        (
            ["compile", "--family", "chain", "--n", "2", "--blob", "--moves", "{bad}"],
            "b.moves",
            "I 1\nM 1\n",
            "line 2: ",
        ),
    ],
)
def test_parse_error_names_file(tmp_path, capsys, argv, bad, text, message):
    cnf, proof = tmp_path / "ok.cnf", tmp_path / "ok.proof"
    assert run_command(["gen-cnf", "--family", "chain", "--n", "2", "-o", str(cnf)]) == 0
    proof.write_text("a 1 0\n")
    path = tmp_path / bad
    path.write_text(text)
    argv = [a.format(bad=path, cnf=cnf, proof=proof) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


def test_undecodable_file_name_written_as_stdout_writes_it(tmp_path, monkeypatch):
    """A file name byte that does not decode reaches argv as a surrogate.
    ``-o`` writes it back as that byte, the bytes stdout gets."""
    graph = tmp_path / "x\udcff.graph"
    graph.write_text(write_graph(build_family(FamilySpec.chain(2))))
    argv = ["frontier", "--graph", str(graph), "--space-cap", "3"]
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert run_command(argv) == 0
    out = tmp_path / "out.csv"
    assert run_command([*argv, "-o", str(out)]) == 0
    assert out.read_bytes() == sys.stdout.getvalue().encode("utf-8", "surrogateescape")
    assert out.read_bytes().splitlines()[1] == b"file,x\xff.graph,black,2,2"


def test_unencodable_output_is_one_line(tmp_path, capsys, monkeypatch):
    """Text that the stream written to cannot encode is an error line."""
    graph = tmp_path / "pl\u00e4in.graph"
    graph.write_text(write_graph(build_family(FamilySpec.chain(2))))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    assert run_command(["frontier", "--graph", str(graph), "--space-cap", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'ascii' codec can't encode character") and err.count("\n") == 1


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    """Under the C locale without UTF-8 mode, a graph whose comment holds
    UTF-8 is read, and a name that argv holds as surrogates is written to
    a file as the bytes stdout gets."""
    src = os.path.dirname(os.path.dirname(pebble_bench.__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    name = "pl\u00e4in.graph"
    (tmp_path / name).write_bytes(f"c gr\u00fc\u00dfe\n{write_graph(build_family(FamilySpec.chain(2)))}".encode())

    def cli_run(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "pebble_bench.cli", *argv], cwd=tmp_path, env=env, capture_output=True
        )
        assert (done.returncode, done.stderr) == (0, b"")
        return done.stdout

    assert cli_run("price", "--graph", name) == b"2\n"
    out = cli_run("frontier", "--graph", name, "--space-cap", "3")
    assert out.splitlines()[1] == f"file,{name},black,2,2".encode()
    assert cli_run("frontier", "--graph", name, "--space-cap", "3", "-o", "out.csv") == b""
    assert (tmp_path / "out.csv").read_bytes() == out


def test_spec_file_names_are_utf8_under_an_ascii_locale(tmp_path):
    """Under the C locale without UTF-8 mode, a spec, read as UTF-8, names
    its output files by their UTF-8 bytes, not in the locale's encoding,
    which cannot encode them."""
    src = os.path.dirname(os.path.dirname(pebble_bench.__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    spec = "[experiment]\nout_csv = r\u00e9sum\u00e9.csv\nplot_prefix = pl\u00e4-\n[family:chain]\nn = 2\n"
    (tmp_path / "spec.ini").write_bytes(spec.encode())
    done = subprocess.run(
        [sys.executable, "-m", "pebble_bench.cli", "tradeoff-report", "--spec", "spec.ini"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    names = {"r\u00e9sum\u00e9.csv", "pl\u00e4-chain-2.csv", "spec.ini"}
    assert set(os.listdir(os.fsencode(tmp_path))) == {name.encode() for name in names}
    report = (tmp_path / "r\u00e9sum\u00e9.csv").read_bytes()
    assert report == b"family,params,game,space,min_time,strategy_time\nchain,2,black,2,2,2\n"


# --- seeded fuzz of the command line and its input files ----------------------


def mutate(rng, text):
    """One random corruption: a dropped token, a non-integer, a 0 inside a
    line, an out-of-range id, or truncation."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    kind = rng.choice(("drop", "word", "zero", "range", "truncate"))
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    j = rng.randrange(len(tokens))
    if kind == "drop":
        del tokens[j]
    elif kind == "word":
        tokens[j] = rng.choice(("x", "1.5", "", "--"))
    elif kind == "zero":
        tokens.insert(j, "0")
    else:
        tokens[j] = str(rng.choice((-1, -7, 7, 99, 10**6)))
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_fuzz_proof_inputs(tmp_path, capsys):
    """Mutated DIMACS, trace, graph and moves files fed to gen-cnf, compile
    and check exit 0, 1 or 2; no other exception escapes run_command."""
    rng = random.Random(20261018)
    spec, d = FamilySpec.pyramid(2), 2
    g = build_family(spec)
    ptrace = validate_pebbling(g, black_strategy(spec), game="black")
    good = {
        "graph": write_graph(g),
        "moves": format_moves(black_strategy(spec)),
        "blob": "I 0\nI 1\nI 2\nI 3\nM 0 3 0\nM 1 4 1\n"
        "I 4\nM 1 6 1\nM 2 7 2\nI 5\nM 5 9 3\nM 8 10 4\n",
        "cnf": write_dimacs(pebbling_contradiction(g, d)),
        "proof": format_trace(compile_pebbling(g, d, ptrace)),
    }
    commands = {
        "graph": [["gen-cnf", "--graph", "{graph}", "--d", "2"]],
        "moves": [["compile", "--graph", "{graph}", "--d", "2", "--moves", "{moves}"]],
        "blob": [["compile", "--graph", "{graph}", "--blob", "--moves", "{blob}"]],
        "cnf": [["check", "--cnf", "{cnf}", "--proof", "{proof}"]],
        "proof": [["check", "--cnf", "{cnf}", "--proof", "{proof}"]],
    }
    commands["graph"] += commands["moves"] + commands["blob"]
    paths = {key: tmp_path / key for key in good}

    def write(mutated=None):
        for key, text in good.items():
            paths[key].write_text(mutate(rng, text) if key == mutated else text)

    write()
    for argvs in commands.values():  # the unmutated files all go through
        assert run(capsys, *(a.format(**paths) for a in argvs[0]))[0] == 0
    codes = []
    for _ in range(60):
        for name, argvs in commands.items():
            write(name)
            for argv in argvs:
                code, _, err = run(capsys, *(a.format(**paths) for a in argv))
                assert code in (0, 1, 2), (name, argv, err)
                assert code == 0 or err.count("\n") == 1, err
                codes.append(code)
    assert codes.count(0) > 0 and codes.count(1) > len(codes) // 2


FUZZ_VALUES = ("x", "", "-1", "0", "1.5", "3", "5", "1,2", "2..3", "--", "bw", "pyramid", "%", "%(x)s")


def mutate_argv(rng, argv):
    """One random corruption of a command line: a value replaced, a token
    dropped, or a token repeated."""
    argv = list(argv)
    kind = rng.choice(("value", "value", "drop", "repeat"))
    j = rng.randrange(1, len(argv))
    if kind == "value":
        argv[j] = rng.choice(FUZZ_VALUES)
    elif kind == "drop":
        del argv[j]
    else:
        argv.insert(j, argv[j])
    return argv


def mutate_spec(rng, text):
    """One random corruption of an INI spec: a value replaced, a line
    dropped, repeated or stripped of its '=', a section renamed, or
    truncation."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.choice(("value", "value", "drop", "repeat", "no-eq", "section", "truncate"))
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    if kind == "value" and "=" in lines[i]:
        key = lines[i].split("=")[0]
        lines[i] = f"{key}= {rng.choice(FUZZ_VALUES + ('+1', '+x', '+-1', '3..1', '1..', '1,,2'))}"
    elif kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "no-eq":
        lines[i] = lines[i].replace("=", " ")
    elif kind == "section":
        lines[i] = rng.choice(("[family:nope]", "[experiment]", "[family:chain]", "[other]", "["))
    return "\n".join(lines) + "\n"


def test_fuzz_search_inputs(tmp_path, capsys, monkeypatch):
    """Mutated command lines of price, frontier, measure and strategy,
    mutated graph files, and mutated tradeoff-report specs exit 0, 1 or 2
    with a one-line error; no other exception escapes run_command.  The
    stored-state limit is small, so that a mutation such as --h 5 makes a
    search that stops at once."""
    monkeypatch.chdir(tmp_path)  # specs write their (mutated) output paths here
    # 400 states of 130 B: the unmutated inputs store at most 325, the BW
    # frontier of pyramid(2) at space cap 5.
    monkeypatch.setattr(search, "MAX_STORED_BYTES", 400 * 130)
    rng = random.Random(20261019)
    graph = tmp_path / "g.txt"
    good_graph = write_graph(build_family(FamilySpec.pyramid(2)))
    argvs = [
        ["price", "--family", "pyramid", "--h", "2", "--game", "bw"],
        ["price", "--family", "chain", "--n", "4"],
        ["frontier", "--family", "carlson_savage", "--c", "2", "--r", "1", "--space-cap", "5"],
        ["frontier", "--family", "binary_tree", "--h", "2", "--space-cap", "4", "--game", "bw"],
        ["measure", "--family", "pyramid", "--h", "2", "--set", "3,4", "--black", "5"],
        ["measure", "--family", "chain", "--n", "4", "--set", "1", "--white", "2",
         "--direction", "above"],
        ["strategy", "--family", "carlson_savage", "--c", "2", "--r", "1", "--budget", "4"],
        ["strategy", "--family", "pyramid", "--h", "2"],
    ]
    graph_argvs = [
        ["price", "--graph", str(graph)],
        ["frontier", "--graph", str(graph), "--space-cap", "5", "--game", "bw"],
        ["measure", "--graph", str(graph), "--set", "3", "--black", "4,5"],
    ]
    good_spec = (
        "[experiment]\ngame = black\nbound = 12\nout_csv = report.csv\nplot_prefix = plot-\n\n"
        "[family:chain]\nn = 2..4\nspace_cap = +1\n\n"
        "[family:pyramid]\nh = 1..2\nspace_cap = 5\n\n"
        "[family:carlson_savage]\nc = 2\nr = 1\nspace_cap = +0\n"
    )
    spec = tmp_path / "exp.ini"
    spec.write_text(good_spec)
    graph.write_text(good_graph)
    for argv in argvs + graph_argvs + [["tradeoff-report", "--spec", str(spec)]]:
        assert run(capsys, *argv)[::2] == (0, ""), argv  # the unmutated inputs go through

    def runs():
        for _ in range(60):
            for argv in argvs + graph_argvs:
                graph.write_text(good_graph)
                yield mutate_argv(rng, argv)
            for argv in graph_argvs:
                graph.write_text(mutate(rng, good_graph))
                yield argv
            graph.write_text(good_graph)
            spec.write_text(mutate_spec(rng, good_spec))
            yield ["tradeoff-report", "--spec", str(spec)]

    codes = []
    for argv in runs():
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), (argv, err)
        assert code == 0 or err.count("\n") == 1, (argv, err)
        codes.append(code)
    assert set(codes) == {0, 1, 2}


# --- tradeoff-report -----------------------------------------------------------


def write_spec(tmp_path, body):
    path = tmp_path / "exp.ini"
    path.write_text(body)
    return str(path)


def test_report_csv_and_plots(tmp_path, capsys):
    out_csv = tmp_path / "report%.csv"  # '%' is written '%%' in a spec
    spec = write_spec(
        tmp_path,
        "[experiment]\n"
        "game = black\n"
        f"out_csv = {tmp_path}/report%%.csv\n"
        f"plot_prefix = {tmp_path}/plot-\n"
        "[family:chain]\n"
        "n = 2..4\n"
        "space_cap = +2\n",
    )
    code, out, err = run(capsys, "tradeoff-report", "--spec", spec)
    assert code == 0 and out == "" and err == ""
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "family,params,game,space,min_time,strategy_time"
    assert lines[1:] == ["chain,2,black,2,2,2", "chain,3,black,2,3,3", "chain,4,black,2,4,4"]
    assert (tmp_path / "plot-chain-3.csv").read_text() == "space,time\n2,3\n"


def test_report_skips_oversized_instances(tmp_path, capsys, monkeypatch):
    # pyramid(1) stores 5 states, pyramid(2) passes 20 at budget 4.
    monkeypatch.setattr(search, "MAX_STORED_BYTES", 20 * 129)
    spec = write_spec(tmp_path, "[experiment]\n[family:pyramid]\nh = 1,2\n")
    code, out, err = run(capsys, "tradeoff-report", "--spec", spec)
    assert code == 0
    assert err == (
        "warning: skipped pyramid(2): black search at space budget 4 stored 22 states, "
        "above the limit 20\n"
    )
    assert "pyramid,2" not in out and "pyramid,1" in out


def test_report_ignores_an_old_bound(tmp_path, capsys):
    """Older specs set a vertex bound; it is ignored, with nothing on stderr."""
    body = "[experiment]\ngame = bw\n[family:pyramid]\nh = 1..4\nspace_cap = +0\n"
    want = run(capsys, "tradeoff-report", "--spec", write_spec(tmp_path, body))
    assert want[0] == 0 and want[2] == "" and "pyramid,4,bw,4," in want[1]
    for bound in ("23", "5", "x", "-1"):
        spec = write_spec(tmp_path, body.replace("game = bw", f"game = bw\nbound = {bound}"))
        assert run(capsys, "tradeoff-report", "--spec", spec) == want, bound


def test_report_usage_errors(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before reading the whole spec")

    monkeypatch.setattr(cli, "tradeoff_frontier", no_search)
    assert run(capsys, "tradeoff-report", "--spec", str(tmp_path / "nope.ini"))[0] == 2
    spec = write_spec(tmp_path, "[experiment]\ngame = black\n")
    assert run(capsys, "tradeoff-report", "--spec", spec)[0] == 2
    spec = write_spec(tmp_path, "[family:moebius]\nn = 2\n")
    assert run(capsys, "tradeoff-report", "--spec", spec)[0] == 2
    spec = write_spec(tmp_path, "[family:chain]\nm = 2\n")
    assert run(capsys, "tradeoff-report", "--spec", spec)[0] == 2
    spec = write_spec(tmp_path, "no section header\n")
    assert run(capsys, "tradeoff-report", "--spec", spec)[0] == 2
    for body in (
        "[family:chain]\nn = 2\nspace_cap = +x\n",
        "[family:chain]\nn = 2\nspace_cap = x\n",
        "[family:chain]\nn = 2\nspace_cap = -1\n",
        "[family:chain]\nn = 2\nspace_cap = +-1\n",
        "[family:chain]\nn = 2\nspace_cap = %(foo)s\n",
        "[experiment]\ngame = %(x)s\n[family:chain]\nn = 2\n",
        "[experiment]\nout_csv = 50%.csv\n[family:chain]\nn = 2\n",
        "[experiment]\nplot_prefix = p%\n[family:chain]\nn = 2\n",
        "[experiment]\nout_csv = a\0b.csv\n[family:chain]\nn = 2\n",
        "[experiment]\nplot_prefix = p\0\n[family:chain]\nn = 2\n",
    ):
        code, out, err = run(capsys, "tradeoff-report", "--spec", write_spec(tmp_path, body))
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
    code, _, err = run(capsys, "tradeoff-report", "--spec", write_spec(tmp_path, "[experiment]\ngame = red\n[family:chain]\nn = 2\n"))
    assert (code, err) == (2, "usage error: unknown game 'red'\n")
    # A reversed range names no instance: refused, not a family dropped.
    body = "[family:pyramid]\nh = 3..1\n[family:chain]\nn = 2\n"
    assert run(capsys, "tradeoff-report", "--spec", write_spec(tmp_path, body)) == (
        2, "", "usage error: bad parameter ranges in [family:pyramid]: empty range '3..1'\n",
    )
    # A usage error in a later section comes before an out-of-range value
    # in an earlier one.
    body = "[family:pyramid]\nh = 0\n[family:chain]\nn = 2\nspace_cap = x\n"
    assert run(capsys, "tradeoff-report", "--spec", write_spec(tmp_path, body)) == (
        2, "", "usage error: bad space_cap 'x' in [family:chain]\n",
    )


def test_report_refuses_an_out_of_range_value_before_any_search(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the whole spec")

    monkeypatch.setattr(cli, "tradeoff_frontier", no_search)
    for body, message in (
        ("[family:chain]\nn = 2\n[family:pyramid]\nh = 0..2\n", "pyramid needs h >= 1"),
        ("[family:carlson_savage]\nc = 2\nr = 3\nspace_cap = +0\n[family:chain]\nn = 0\n", "chain needs n >= 1"),
        ("[family:binary_tree]\nh = 1\n[family:carlson_savage]\nc = 1..2\nr = 1\n", "carlson_savage needs c >= 2"),
        ("[family:carlson_savage]\nc = 2\nr = -1,1\n", "carlson_savage needs r >= 0"),
    ):
        spec = write_spec(tmp_path, body)
        assert run(capsys, "tradeoff-report", "--spec", spec) == (1, "", f"error: {message}\n"), body


def test_report_skips_overlong_strategy(tmp_path, monkeypatch):
    # pyramid(1) has 6 moves, pyramid(2) 12: its 6 placements fall within the
    # first 10 moves, so only the bound on removals refuses it.
    monkeypatch.setattr(strategies, "MAX_MOVES", 10)
    spec = write_spec(tmp_path, "[experiment]\ngame = black\n[family:pyramid]\nh = 1..2\n")
    csv_text, plots, warnings = tradeoff_report(spec)
    assert warnings == ["skipped pyramid(2): strategy has more than 10 moves"]
    assert list(plots) == ["pyramid-1.csv"]
    assert {line.split(",")[1] for line in csv_text.splitlines()[1:]} == {"1"}


def test_report_pyramid_strategy_time_is_exact(tmp_path):
    """The pyramid strategy is exact at the price: one frontier point per
    pyramid, and the strategy's time is its time."""
    spec = write_spec(
        tmp_path, "[experiment]\ngame = black\n[family:pyramid]\nh = 1..4\nspace_cap = +3\n"
    )
    csv_text, _, _ = tradeoff_report(spec)
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    assert [(r[1], r[3]) for r in rows] == [("1", "3"), ("2", "4"), ("3", "5"), ("4", "6")]
    assert all(r[5] == r[4] for r in rows), rows


def test_report_deterministic_across_threads(tmp_path):
    spec = write_spec(
        tmp_path,
        "[experiment]\ngame = black\n[family:chain]\nn = 2..5\n[family:pyramid]\nh = 1..2\n",
    )
    csv1, plots1, warn1 = tradeoff_report(spec)
    csv2, plots2, warn2 = tradeoff_report(spec)
    assert csv1 == csv2 and plots1 == plots2 and warn1 == warn2 == []
    csv3, _, _ = tradeoff_report(spec)
    assert csv3 == csv1


def test_report_carlson_savage_strategy_column(tmp_path):
    spec = write_spec(
        tmp_path,
        "[experiment]\ngame = black\n[family:carlson_savage]\nc = 2\nr = 1\nspace_cap = +1\n",
    )
    csv_text, plots, _ = tradeoff_report(spec)
    lines = csv_text.splitlines()
    assert lines[1] == "carlson_savage,2-1,black,3,16,16"
    assert lines[2] == "carlson_savage,2-1,black,4,11,13"
    assert plots["carlson_savage-2-1.csv"] == "space,time\n3,16\n4,11\n"


def test_report_builds_each_graph_once(tmp_path, monkeypatch):
    """One graph per instance, whatever the number of frontier points: a
    carlson_savage graph with its layout, every other family by
    build_family, and the strategy column emitted from that graph."""
    built = []

    def counted_family(spec):
        built.append(spec.label())
        return build_family(spec)

    def counted_layout(c, r):
        built.append(f"layout({c},{r})")
        return carlson_savage_layout(c, r)

    build_family, carlson_savage_layout = dag.build_family, dag.carlson_savage_layout
    for module in (dag, cli, strategies):
        monkeypatch.setattr(module, "build_family", counted_family, raising=False)
        monkeypatch.setattr(module, "carlson_savage_layout", counted_layout, raising=False)
    spec = write_spec(
        tmp_path,
        "[experiment]\ngame = black\n"
        "[family:chain]\nn = 2\n[family:pyramid]\nh = 2\n[family:binary_tree]\nh = 1..2\n"
        "[family:carlson_savage]\nc = 2\nr = 0..1\nspace_cap = +1\n",
    )
    csv_text, _, _ = tradeoff_report(spec)
    assert csv_text.splitlines()[1:] == [
        "chain,2,black,2,2,2",
        "pyramid,2,black,4,6,6",
        "binary_tree,1,black,3,3,3",
        "binary_tree,2,black,4,7,7",
        "carlson_savage,2-0,black,1,2,2",
        "carlson_savage,2-1,black,3,16,16",
        "carlson_savage,2-1,black,4,11,13",
    ]
    assert built == [
        "chain(2)", "pyramid(2)", "binary_tree(1)", "binary_tree(2)", "layout(2,0)", "layout(2,1)",
    ]


def test_report_command_runs_tradeoff_report(tmp_path, capsys, monkeypatch):
    calls = []

    def traced(spec_path):
        calls.append(spec_path)
        return tradeoff_report(spec_path)

    monkeypatch.setattr(cli, "tradeoff_report", traced)
    spec = write_spec(tmp_path, "[experiment]\ngame = black\n[family:chain]\nn = 2\n")
    code, out, _ = run(capsys, "tradeoff-report", "--spec", spec)
    assert code == 0 and calls == [spec]
    assert out == tradeoff_report(spec)[0]


def test_report_reads_its_spec_once(tmp_path, capsys, monkeypatch):
    reads = []

    def counted(path):
        reads.append(path)
        return read_text(path)

    read_text = cli._read_text
    monkeypatch.setattr(cli, "_read_text", counted)
    out_csv = tmp_path / "report.csv"
    spec = write_spec(tmp_path, f"[experiment]\nout_csv = {out_csv}\n[family:chain]\nn = 2\n")
    assert run(capsys, "tradeoff-report", "--spec", spec) == (0, "", "")
    assert reads == [spec]
    assert out_csv.read_text().splitlines()[1] == "chain,2,black,2,2,2"


def test_report_strategy_column_below_schedule_minimum(tmp_path, monkeypatch):
    """A budget the schedule refuses leaves strategy_time empty.  The real
    case is carlson_savage(3,2), black price 5 and schedule minimum 6, whose
    price search alone takes 34 s on one core of a 2-core machine; here the
    minimum of (2,1) is raised from its price 3 to 4."""
    monkeypatch.setattr(strategies, "cs_min_budget", lambda c, r: 4)
    spec = write_spec(
        tmp_path,
        "[experiment]\ngame = black\n[family:carlson_savage]\nc = 2\nr = 1\nspace_cap = +1\n",
    )
    csv_text, _, _ = tradeoff_report(spec)
    assert csv_text.splitlines()[1:] == ["carlson_savage,2-1,black,3,16,", "carlson_savage,2-1,black,4,11,16"]


def test_report_drops_its_spec_parser_before_the_searches(tmp_path, capsys, monkeypatch):
    """A ConfigParser is a reference cycle, so one kept through the searches
    would be freed only by a full garbage collection."""
    parsers = []

    def tracked(path):
        cp = read_spec(path)
        parsers.append(weakref.ref(cp))
        return cp

    def frontier(*args, **kwargs):
        gc.collect()
        assert parsers and parsers[0]() is None, "the spec parser outlived its reading"
        return tradeoff_frontier(*args, **kwargs)

    read_spec = cli._read_spec
    monkeypatch.setattr(cli, "_read_spec", tracked)
    monkeypatch.setattr(cli, "tradeoff_frontier", frontier)
    out_csv = tmp_path / "report.csv"
    spec = write_spec(
        tmp_path,
        f"[experiment]\nout_csv = {out_csv}\nplot_prefix = {tmp_path}/plot-\n[family:chain]\nn = 2..3\n",
    )
    assert run(capsys, "tradeoff-report", "--spec", spec) == (0, "", "")
    assert out_csv.read_text().splitlines()[1:] == ["chain,2,black,2,2,2", "chain,3,black,2,3,3"]
    assert (tmp_path / "plot-chain-3.csv").read_text() == "space,time\n2,3\n"
