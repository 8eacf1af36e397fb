"""Golden bytes of the proof path on the benchmark's three family graphs.

A change to the proof path counts as faster only if its outputs are
byte-identical.  These digests were taken before the DIMACS reader, the
trace reader and the checker were last optimised, and before the black
compiler wrote each clause from its derivation step instead of resolving
it: the DIMACS text of the pebbling contradiction, the trace text compiled
from the family's black strategy, and the metrics the checker reports for
that trace.  pyramid(9)'s digests are of its depth-first pebbling, which
the reference emitter of ``test_strategies`` writes; a fourth row pins the
trace of the row-by-row pebbling that ``black_strategy`` emits.  The blob
compiler's digests, of the blob play that replays chain(6)'s starred
proof, plain and starred, were taken before it wrote each clause from a
subconfiguration instead of resolving it.  The ``tradeoff-report`` CSVs
of the benchmark's two frontier specs were taken before the price and
frontier sweeps shared one loop; the benchmark's own pins skip their
``strategy_time`` column, and these digests cover it.
"""

import hashlib

import pytest

from pebble_bench import (
    FamilySpec,
    build_family,
    check_trace_text,
    compile_pebbling,
    format_trace,
    parse_blob_moves,
    pebbling_contradiction,
    validate_blob_pebbling,
    validate_pebbling,
    write_dimacs,
)
from pebble_bench.cli import tradeoff_report
from pebble_bench.strategies import black_strategy
from test_strategies import reference_recursive_strategy


def depth_first(spec):
    return reference_recursive_strategy(build_family(spec))


GOLDEN = [
    (
        FamilySpec.pyramid(9),
        depth_first,
        4,
        "d10c0706f16f45086c0aed9b438b2bf1de710681aa8a59eaced9d15bd5452cd0",
        "b285843382691419ade6427d14f1c2aa291596741964dab41cddc0b4e3b9cc9a",
        {"length": 18916, "width": 8, "clause_space": 14},
    ),
    (
        FamilySpec.binary_tree(7),
        black_strategy,
        8,
        "b5d5e8072c776fa297404f26424547146d67a993a706d17077c9446fa16bf8ed",
        "82872a3409348e6cd11a65da833805238a0a0471662ec64ac331edf000b46f20",
        {"length": 17416, "width": 16, "clause_space": 12},
    ),
    (
        FamilySpec.carlson_savage(2, 3),
        black_strategy,
        4,
        "70fe554332fa88125650f06d72cda4b499a111775d2ff252fac2aef9d4f1c4af",
        "41558b0d77e996062578f58b9b90a7785c0ab95cf0d87d1d31d19b499c57e312",
        {"length": 1408, "width": 8, "clause_space": 8},
    ),
    (
        FamilySpec.pyramid(9),
        black_strategy,
        4,
        "d10c0706f16f45086c0aed9b438b2bf1de710681aa8a59eaced9d15bd5452cd0",
        "86b18bc0635c72890050ff382d940cc8292215b1b995ac55156d39d75c32effc",
        {"length": 1638, "width": 8, "clause_space": 14},
    ),
]
GOLDEN_IDS = ["pyramid(9)", "binary_tree(7)", "carlson_savage(2,3)", "pyramid(9)-row-by-row"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec, strategy, d, cnf_sha, trace_sha, report", GOLDEN, ids=GOLDEN_IDS)
def test_proof_path_bytes(spec, strategy, d, cnf_sha, trace_sha, report):
    g = build_family(spec)
    f = pebbling_contradiction(g, d)
    assert sha256(write_dimacs(f)) == cnf_sha
    ptrace = validate_pebbling(g, strategy(spec), game="black")
    trace = format_trace(compile_pebbling(g, d, ptrace))
    assert sha256(trace) == trace_sha
    assert check_trace_text(f, trace).report() == report


# The blob play the proof benchmark makes by inducing a configuration after
# each event of chain(6)'s starred proof and explaining each transition.
CHAIN6_REPLAY = (
    "I 0\nI 1\nM 0 1 0\nE 1\nE 0\nI 2\nM 2 3 1\nE 3\nE 2\nI 3\nM 4 5 2\nE 5\nE 4\n"
    "I 4\nM 6 7 3\nE 7\nE 6\nI 5\nM 8 9 4\nE 9\n"
)


@pytest.mark.parametrize(
    "starred, trace_sha",
    [
        (False, "b73302ed49d1d02b419de4c9edc76e130b381c3e7b22ec3fb68bf2783229bfdf"),
        (True, "1830923a5ee294ed04753192a83364f13ececaa0eb44b424c72b6d0b3b193396"),
    ],
    ids=["plain", "starred"],
)
def test_blob_compile_bytes(starred, trace_sha):
    g = build_family(FamilySpec.chain(6))
    btrace = validate_blob_pebbling(g, parse_blob_moves(CHAIN6_REPLAY))
    assert sha256(format_trace(compile_pebbling(g, 1, btrace, starred=starred))) == trace_sha


# The frontier specs of the benchmark's frontier-black and frontier-bw
# workloads: (family, parameter ranges, space cap) per section.
FRONTIER_SPECS = {
    "black": (
        ("chain", "n = 2..8", "+3"),
        ("pyramid", "h = 1..4", "+3"),
        ("binary_tree", "h = 1..3", "+3"),
        ("carlson_savage", "c = 2\nr = 1..2", "+2"),
    ),
    "bw": (
        ("chain", "n = 2..8", "+2"),
        ("pyramid", "h = 1..3", "+2"),
        ("binary_tree", "h = 1..3", "+1"),
        ("carlson_savage", "c = 2\nr = 1", "+2"),
    ),
}


@pytest.mark.parametrize(
    "game, csv_sha, blank",
    [
        ("black", "b165c58cf45391c78cc96f1cf1468c46c5082faa11774020ff34c7165cdb8041", 0),
        ("bw", "11a5de0be843b0767b399bbc7a4d1daae422b30f8430b8dc2f2ced825e9df984", 4),
    ],
)
def test_tradeoff_report_bytes(tmp_path, capsys, game, csv_sha, blank):
    text = ["[experiment]", f"game = {game}"]
    for family, params, cap in FRONTIER_SPECS[game]:
        text += ["", f"[family:{family}]", params, f"space_cap = {cap}"]
    spec = tmp_path / f"{game}.ini"
    spec.write_text("\n".join(text) + "\n")
    csv_text, _, warnings = tradeoff_report(str(spec))
    assert capsys.readouterr().out == csv_text
    assert warnings == []
    assert csv_text.count(",\n") == blank  # rows whose strategy_time is blank
    assert sha256(csv_text) == csv_sha
