"""End-to-end tests for the command line interface."""

import json
import os
import random
import time

import pytest

from pebble_bench import (
    FamilySpec,
    black_strategy,
    build_family,
    check_refutation,
    compile_pebbling,
    format_moves,
    format_trace,
    parse_trace,
    pebbling_contradiction,
    read_dimacs,
    validate_pebbling,
    parse_moves,
    write_dimacs,
    write_graph,
)
from pebble_bench import cli, strategies
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
            "argument --space-cap: bad bound '-1'",
        ),
        (
            ["frontier", "--family", "chain", "--n", "3", "--space-cap", "3", "--bound", "-1"],
            "argument --bound: bad bound '-1'",
        ),
        (
            ["price", "--family", "chain", "--n", "3", "--bound", "-2"],
            "argument --bound: bad bound '-2'",
        ),
    ):
        assert run(capsys, *argv) == (2, "", f"usage error: {message}\n"), argv


def test_bad_family_value_exits_1(capsys):
    code, _, err = run(capsys, "gen-graph", "--family", "pyramid", "--h", "0")
    assert code == 1
    assert "error:" in err


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


def test_price_bound_exceeded(capsys):
    code, _, err = run(capsys, "price", "--family", "chain", "--n", "9", "--bound", "5")
    assert code == 1
    assert "error:" in err and "bound" in err


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


# --- strategy -------------------------------------------------------------------


def test_strategy_pyramid_validates(capsys):
    code, out, _ = run(capsys, "strategy", "--family", "pyramid", "--h", "2")
    assert code == 0
    g = build_family(FamilySpec.pyramid(2))
    trace = validate_pebbling(g, parse_moves(out), game="black")
    assert trace.time == 7 and trace.space == 4


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
    """Emission stops past strategies.MAX_MOVES moves (pyramid(30) and
    carlson_savage(2, 30) build in milliseconds but emit exponentially many),
    and a carlson_savage level count out of range is refused, not recursed on."""
    too_long = "strategy has more than 262144 moves"
    for argv, message in (
        (["--family", "pyramid", "--h", "30"], too_long),
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


def test_check_reports_malformed_line_before_earlier_failure(tmp_path, capsys):
    """check reads and verifies a trace in one pass, yet a malformed line is
    still reported ahead of a verification failure at an earlier event, as
    when the whole trace was parsed before it was checked."""
    spec, d = FamilySpec.pyramid(2), 2
    g = build_family(spec)
    cnf, proof = tmp_path / "f.cnf", tmp_path / "proof.txt"
    cnf.write_text(write_dimacs(pebbling_contradiction(g, d)))
    ptrace = validate_pebbling(g, black_strategy(spec), game="black")
    lines = format_trace(compile_pebbling(g, d, ptrace)).splitlines()
    assert len(lines) > 40 and lines[1].startswith("a ")
    lines[1] = "a 99 0"  # event 2: not an axiom of the formula
    proof.write_text("\n".join(lines) + "\n")
    wrong = run(capsys, "check", "--cnf", str(cnf), "--proof", str(proof))
    assert wrong == (1, "", "error: event 2: axiom (99,) not in formula\n")
    lines[39] = "r 1 x 0"
    proof.write_text("\n".join(lines) + "\n")
    assert run(capsys, "check", "--cnf", str(cnf), "--proof", str(proof)) == (
        1,
        "",
        f"error: {proof}: line 40: bad integer in 'r 1 x 0'\n",
    )


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


FUZZ_VALUES = ("x", "", "-1", "0", "1.5", "3", "5", "1,2", "2..3", "--", "bw", "pyramid")


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
    with a one-line error; no other exception escapes run_command."""
    monkeypatch.chdir(tmp_path)  # specs write their (mutated) output paths here
    rng = random.Random(20261019)
    graph = tmp_path / "g.txt"
    good_graph = write_graph(build_family(FamilySpec.pyramid(2)))
    argvs = [
        ["price", "--family", "pyramid", "--h", "2", "--game", "bw"],
        ["price", "--family", "chain", "--n", "4", "--bound", "6"],
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
    out_csv = tmp_path / "report.csv"
    spec = write_spec(
        tmp_path,
        "[experiment]\n"
        "game = black\n"
        f"out_csv = {out_csv}\n"
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


def test_report_skips_oversized_instances(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "[experiment]\nbound = 5\n[family:chain]\nn = 4..6\n",
    )
    code, out, err = run(capsys, "tradeoff-report", "--spec", spec)
    assert code == 0
    assert "warning" in err and "chain(6)" in err
    assert "chain,6" not in out and "chain,5" in out


def test_report_usage_errors(tmp_path, capsys):
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
        "[experiment]\nbound = x\n[family:chain]\nn = 2\n",
        "[experiment]\nbound = -1\n[family:chain]\nn = 2\n",
        "[family:chain]\nn = 2\nspace_cap = +x\n",
        "[family:chain]\nn = 2\nspace_cap = x\n",
        "[family:chain]\nn = 2\nspace_cap = -1\n",
        "[family:chain]\nn = 2\nspace_cap = +-1\n",
    ):
        code, out, err = run(capsys, "tradeoff-report", "--spec", write_spec(tmp_path, body))
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
    code, _, err = run(capsys, "tradeoff-report", "--spec", write_spec(tmp_path, "[experiment]\ngame = red\n[family:chain]\nn = 2\n"))
    assert (code, err) == (2, "usage error: unknown game 'red'\n")


def test_report_skips_overlong_strategy(tmp_path, monkeypatch):
    monkeypatch.setattr(strategies, "MAX_MOVES", 10)  # pyramid(1) has 6 moves, pyramid(2) 14
    spec = write_spec(tmp_path, "[experiment]\ngame = black\n[family:pyramid]\nh = 1..2\n")
    csv_text, plots, warnings = tradeoff_report(spec)
    assert warnings == ["skipped pyramid(2): strategy has more than 10 moves"]
    assert list(plots) == ["pyramid-1.csv"]
    assert {line.split(",")[1] for line in csv_text.splitlines()[1:]} == {"1"}


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
