"""The four workloads: their inputs, job lists and answer checks.

Each workload's ``setup`` builds the inputs from the seed, writes the files
the jobs read, and returns the job list.  A job raises ``WrongAnswer`` (or
any other exception) when the program's output is wrong.  Jobs reach the
program only through attributes of the loaded ``pebble_bench`` modules,
looked up at call time, so the tracer's wrappers see every call.

Answers of fixed instances are pinned in ``pins.json``.  Answers of seeded
inputs are pinned for the pinned seed only; for any other seed the checks
that hold for every correct answer apply (and they apply to the pinned seed
too).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple


class WrongAnswer(Exception):
    pass


class Lib(NamedTuple):
    """The loaded program: the package and its command line module."""

    pb: ModuleType
    cli: ModuleType


class Job(NamedTuple):
    name: str
    run: Callable[[], None]


class Pins:
    """Pinned answers: ``fixed`` always, ``seeded`` only for the pinned seed."""

    def __init__(self, pins: dict, seed: int):
        self.fixed = pins["fixed"]
        self.seeded = pins["seeded"] if seed == pins["seed"] else None

    def _table(self, key: str, seeded: bool) -> dict | None:
        table = self.seeded if seeded else self.fixed
        if table is not None and key not in table:
            raise LookupError(f"no pinned answer for {key}")
        return table

    def expect(self, key: str, got, seeded: bool = False) -> None:
        table = self._table(key, seeded)
        got = json.loads(json.dumps(got))
        if table is not None and got != table[key]:
            raise WrongAnswer(f"{key}: got {got}, pinned {table[key]}")

    def matches(self, key: str, got) -> bool:
        return json.loads(json.dumps(got)) == self._table(key, False)[key]

    def pinned(self, key: str):
        return self._table(key, False)[key]


def check(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def run_cli(lib: Lib, *argv: str, code: int = 0) -> tuple[str, str]:
    """Run one CLI command in-process; returns (stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            got = lib.cli.run_command(list(argv))
        except SystemExit as e:
            got = e.code
    check(got == code, f"{' '.join(argv)}: exit {got}, expected {code}: {err.getvalue().strip()}")
    return out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def random_dag(lib: Lib, rng: random.Random, n: int, sources: int, window: int, targets=None):
    """A DAG whose non-sources each have exactly two predecessors.

    Predecessors are drawn from the ``window`` vertices just below, so depth
    grows with n.  In-degree is fixed, so the clause count and the compiled
    proof length barely depend on the seed; only the edges do.
    """
    edges = []
    for v in range(sources, n):
        edges += [(u, v) for u in rng.sample(range(max(0, v - window), v), 2)]
    return lib.pb.Dag(n, edges, targets=targets)


def topological_pebbling(lib: Lib, g) -> list:
    """Place vertices in id order; remove a pebble once every successor of
    it is placed (a sink's right away).  A complete black pebbling."""
    Move = lib.pb.Move
    waiting = [len(s) for s in g.succs]
    moves = []
    for v in range(g.n):
        moves.append(Move("PB", v))
        for p in g.preds[v]:
            waiting[p] -= 1
            if waiting[p] == 0:
                moves.append(Move("RB", p))
        if not g.succs[v]:
            moves.append(Move("RB", v))
    return moves


def configurations(moves) -> list[list[int]]:
    """The nonempty boards along a black pebbling, after each move."""
    board: set[int] = set()
    out = []
    for mv in moves:
        if mv.kind == "PB":
            board.add(mv.v)
        else:
            board.discard(mv.v)
        if board:
            out.append(sorted(board))
    return out


# ---------------------------------------------------------------------------
# frontier-black and frontier-bw: tradeoff-report on a fixed spec
# ---------------------------------------------------------------------------

# (family, parameter ranges, space cap) per spec section.  carlson_savage(2,2)
# is capped at +2 rather than +3 and the BW binary trees at +1 rather than
# +2: the larger caps add one search of 6-8 s each, which would leave too
# few passes per run for a steady median.  Both caps still reach one budget
# past the time floor, where frontier pruning has a search to skip.
FRONTIER_SPECS = {
    "black": (
        23,
        (
            ("chain", "n = 2..8", "+3"),
            ("pyramid", "h = 1..4", "+3"),
            ("binary_tree", "h = 1..3", "+3"),
            ("carlson_savage", "c = 2\nr = 1..2", "+2"),
        ),
    ),
    "bw": (
        15,
        (
            ("chain", "n = 2..8", "+2"),
            ("pyramid", "h = 1..3", "+2"),
            ("binary_tree", "h = 1..3", "+1"),
            ("carlson_savage", "c = 2\nr = 1", "+2"),
        ),
    ),
}
SMOKE_FRONTIER = (("chain", "n = 2", "+3"),)


def frontier_setup(game: str):
    def setup(lib: Lib, seed: int, workdir: Path, pins: Pins, smoke: bool) -> list[Job]:
        bound, sections = FRONTIER_SPECS[game]
        if smoke:
            sections = SMOKE_FRONTIER
        out_csv = workdir / f"{game}.csv"
        text = [
            "[experiment]",
            f"game = {game}",
            f"bound = {bound}",
            "out_csv = " + str(out_csv).replace("%", "%%"),
        ]
        for family, params, cap in sections:
            text += ["", f"[family:{family}]", params, f"space_cap = {cap}"]
        spec = workdir / f"{game}.ini"
        spec.write_text("\n".join(text) + "\n")
        key = f"{game}.report" + (".smoke" if smoke else "")

        def report():
            out_csv.unlink(missing_ok=True)
            _, err = run_cli(lib, "tradeoff-report", "--spec", str(spec))
            check(err == "", f"tradeoff-report warned: {err.strip()}")
            lines = out_csv.read_text().splitlines()
            check(lines[0] == "family,params,game,space,min_time,strategy_time", "bad header")
            rows = [line.split(",") for line in lines[1:]]
            for row in rows:
                check(len(row) == 6, f"bad row {row}")
                st = row[5]
                # strategy_time is only checked for validity: a better
                # emitter may lower it, never below the exact minimum.
                check(st == "" or int(st) >= int(row[4]), f"strategy beats the optimum: {row}")
            pins.expect(key, [r[:3] + [int(r[3]), int(r[4])] for r in rows])

        return [Job("report", report)]

    return setup


# ---------------------------------------------------------------------------
# probe: blob prices and the 2^n measure sweeps, by library calls
# ---------------------------------------------------------------------------


def probe_setup(lib: Lib, seed: int, workdir: Path, pins: Pins, smoke: bool) -> list[Job]:
    pb = lib.pb
    rng = random.Random(seed)
    # 12 vertices for the potential sweep, not 13: each call visits 2^n
    # subsets, and 13 would double the sweep and leave too few passes per
    # run for a steady median.
    g_pot = random_dag(lib, rng, 12, sources=3, window=4)
    g_hider = random_dag(lib, rng, 12, sources=3, window=4)
    boards = configurations(topological_pebbling(lib, g_pot))

    def family(kind: str, *params: int):
        return pb.build_family(pb.FamilySpec(kind, params))

    def blob(key: str, kind: str, h: int, strict: bool):
        def job():
            pins.expect(key, pb.optimal_blob_price(family(kind, h), strict=strict))

        return Job(key, job)

    def potentials():
        view = pb.LayeredView.from_dag(g_pot)
        got = []
        for board in boards:
            p = pb.potential(g_pot, board)
            # The board hides itself, so its own measure bounds the least one.
            cap = pb.klawe_measure(view, board).value
            check(1 <= p <= cap, f"potential {p} of {board} outside [1, {cap}]")
            got.append(p)
        pins.expect("potential.random12", got, seeded=True)

    def min_lhc_pyramid3():
        pins.expect("hider.min.pyramid3", pb.min_lhc_bound(family("pyramid", 3)))

    def min_lhc_random12():
        b = pb.min_lhc_bound(g_hider)
        check(1 <= b <= g_hider.n, f"hider bound {b} outside [1, {g_hider.n}]")
        pins.expect("hider.min.random12", b, seeded=True)

    def lhc_pyramid2():
        g = family("pyramid", 2)
        got = []
        for bound in (2, 3):
            r = pb.check_lhc(g, bound)
            w = r.witness
            got.append([r.holds, None if w is None else [list(w.vertices), w.measure, w.smallest_hider]])
        pins.expect("hider.check.pyramid2", got)

    jobs = [
        blob("blob.pyramid2", "pyramid", 2, strict=False),
        blob("blob.pyramid2.strict", "pyramid", 2, strict=True),
        blob("blob.binary_tree2.strict", "binary_tree", 2, strict=True),
        Job("potential.random12", potentials),
        Job("hider.min.pyramid3", min_lhc_pyramid3),
        Job("hider.min.random12", min_lhc_random12),
        Job("hider.check.pyramid2", lhc_pyramid2),
    ]
    if smoke:
        smoke_jobs = {"blob.pyramid2.strict", "hider.min.pyramid3", "hider.check.pyramid2"}
        jobs = [j for j in jobs if j.name in smoke_jobs]
    return jobs


# ---------------------------------------------------------------------------
# proof: gen-cnf / strategy / compile / check through files
# ---------------------------------------------------------------------------


def corrupt(trace_text: str) -> str:
    """Misstate the resolvent of the middle inference of a trace."""
    lines = trace_text.splitlines()
    infers = [i for i, line in enumerate(lines) if line.startswith("r ")]
    i = infers[len(infers) // 2]
    parts = lines[i].split()  # r left right pivot lits... 0
    lits = parts[4:-1]
    lits = lits[:-1] if lits else [parts[3]]
    lines[i] = " ".join(parts[:4] + lits + ["0"])
    return "\n".join(lines) + "\n"


def check_proof(lib: Lib, workdir: Path, name: str, graph_args: list[str], moves: Path, d: int, blob: bool = False) -> dict:
    """gen-cnf, compile and check one pebbling; a corrupted copy must fail."""
    cnf, proof, bad = (workdir / f"{name}.{ext}" for ext in ("cnf", "proof", "bad"))
    run_cli(lib, "gen-cnf", *graph_args, "--d", str(d), "-o", str(cnf))
    flags = ["--blob"] if blob else []
    run_cli(lib, "compile", *graph_args, "--d", str(d), "--moves", str(moves), *flags, "-o", str(proof))
    out, _ = run_cli(lib, "check", "--cnf", str(cnf), "--proof", str(proof))
    metrics = json.loads(out)
    check(all(metrics[k] >= 1 for k in ("length", "width", "clause_space")), f"bad metrics {metrics}")
    bad.write_text(corrupt(proof.read_text()))
    _, err = run_cli(lib, "check", "--cnf", str(cnf), "--proof", str(bad), code=1)
    check(err.startswith("error:"), f"corrupted trace not rejected cleanly: {err.strip()}")
    return metrics


PROOF_FAMILIES = (
    ("pyramid9", ["--family", "pyramid", "--h", "9"], 4),
    ("binary_tree7", ["--family", "binary_tree", "--h", "7"], 8),
    ("carlson_savage2-3", ["--family", "carlson_savage", "--c", "2", "--r", "3"], 4),
)


def proof_setup(lib: Lib, seed: int, workdir: Path, pins: Pins, smoke: bool) -> list[Job]:
    pb = lib.pb
    rng = random.Random(seed)
    # One target, the last vertex: a refutation ends at the first target
    # pebbled, so with every sink a target the proof would stop early.
    g60 = random_dag(lib, rng, 60, sources=6, window=8, targets=[59])
    graph_file, moves_file = workdir / "random60.graph", workdir / "random60.moves"
    graph_file.write_text(pb.write_graph(g60))
    moves_file.write_text(pb.format_moves(topological_pebbling(lib, g60)))

    def family_job(name: str, graph_args: list[str], d: int) -> Job:
        moves = workdir / f"{name}.moves"

        def job():
            out, _ = run_cli(lib, "strategy", *graph_args, "-o", str(moves))
            strategy = json.loads(out)
            metrics = check_proof(lib, workdir, name, graph_args, moves, d)
            # The proof is pinned for the seed commit's pebbling.  A changed
            # emitter (a valid pebbling, as the CLI checked) only has to keep
            # the standard space and yield a proof that checks.
            if pins.matches(f"{name}.strategy", strategy):
                pins.expect(f"{name}.proof", metrics)
            else:
                space = pins.pinned(f"{name}.strategy")["space"]
                check(strategy["space"] <= space, f"strategy space {strategy['space']} > {space}")

        return Job(name, job)

    def random_job():
        metrics = check_proof(lib, workdir, "random60", ["--graph", str(graph_file)], moves_file, 4)
        pins.expect("random60.proof", metrics, seeded=True)

    def replay_job():
        """Replay chain(6)'s starred proof as a blob pebbling, then compile
        and check the replay."""
        spec = pb.FamilySpec("chain", (6,))
        g = pb.build_family(spec)
        trace = pb.validate_pebbling(g, pb.black_strategy(spec))
        starred = pb.compile_pebbling(g, 1, trace, starred=True)
        builder = pb.BlobScriptBuilder(g)
        live: dict[int, tuple] = {}
        next_id = 1  # axioms and inferences get ids 1, 2, ... in order
        for ev in starred.events:
            if isinstance(ev, pb.Erase):
                del live[ev.id]
            else:
                live[next_id] = ev.clause
                next_id += 1
            pb.explain_transition(g, builder, pb.induce_configuration(g, 1, list(live.values())))
        replay = pb.validate_blob_pebbling(g, builder.moves)
        want = pb.BlobSubconfig(frozenset(g.targets))
        check(want in replay.final.subs, "replay does not end with the target blob")
        moves = workdir / "chain6.blob"
        moves.write_text(pb.format_blob_moves(builder.moves))
        metrics = check_proof(lib, workdir, "chain6", ["--family", "chain", "--n", "6"], moves, 1, blob=True)
        pins.expect("chain6.replay", {"blob": replay.report(), "proof": metrics})

    jobs = [family_job(*f) for f in PROOF_FAMILIES]
    jobs += [Job("random60", random_job), Job("chain6.replay", replay_job)]
    if smoke:
        jobs = [j for j in jobs if j.name == "carlson_savage2-3"]
    return jobs


WORKLOADS = {
    "frontier-black": frontier_setup("black"),
    "frontier-bw": frontier_setup("bw"),
    "probe": probe_setup,
    "proof": proof_setup,
}
