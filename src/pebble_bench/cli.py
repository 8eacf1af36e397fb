"""Command line interface.

Subcommands: gen-graph, gen-cnf, price, frontier, strategy, compile, check,
measure, tradeoff-report.  Exit codes: 0 success, 1 domain error (illegal
input, failed verification, size bounds), 2 usage error.  All outputs are
deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from configparser import ConfigParser, Error as ConfigError
from itertools import product

from . import blob as blobmod
from . import simulation
from .cnf import pebbling_contradiction, read_dimacs, write_dimacs
from .dag import Dag, FamilySpec, build_family, read_graph, write_graph
from .errors import BudgetTooSmall, ParseError, PebbleBenchError, SizeBoundExceeded
from .measures import hidden_vertices, klawe_measure, potential, LayeredView
from .pebbling import format_moves, parse_moves, validate_pebbling
from .resolution import check_trace_text, format_trace
from .search import optimal_price, tradeoff_frontier
from .strategies import _strategy, black_strategy, cs_tradeoff_strategy

__all__ = ["main", "run_command"]


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``usage error:`` line (exit 2)
    instead of printing the usage block and raising SystemExit."""

    def error(self, message):
        raise _Usage(message)


# --- shared helpers ---------------------------------------------------------

_FAMILY_PARAMS = {
    "chain": ("n",),
    "pyramid": ("h",),
    "binary_tree": ("h",),
    "carlson_savage": ("c", "r"),
}


def _add_graph_args(p: argparse.ArgumentParser, family_only: bool = False):
    p.add_argument("--family", choices=sorted(_FAMILY_PARAMS))
    p.add_argument("--n", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--r", type=int)
    if not family_only:
        p.add_argument("--graph", metavar="FILE", help="read the graph from a file")


def _spec_from_args(args) -> FamilySpec:
    if not args.family:
        raise _Usage("a --family is required")
    names = _FAMILY_PARAMS[args.family]
    vals = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise _Usage(f"family {args.family} needs --{name}")
        vals.append(v)
    return FamilySpec(args.family, tuple(vals))


def _limit(text: str) -> int:
    """argparse type of --bound and --space-cap: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"bad bound {text!r}")
    return value


def _read_text(path: str) -> str:
    """The text of a file argument; a file that does not decode is a
    ParseError naming the path (OSError messages already name it)."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {e}") from None


def _parse_file(path: str, parse):
    """``parse`` applied to a file argument's text; a ParseError names the
    path, as a decode error does."""
    text = _read_text(path)
    try:
        return parse(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def _graph_from_args(args) -> Dag:
    if getattr(args, "graph", None):
        if args.family:
            raise _Usage("give either --family or --graph, not both")
        return _parse_file(args.graph, read_graph)
    return build_family(_spec_from_args(args))


def _write_out(path: str | None, text: str):
    """Write ``text`` to the file ``path``, or to stdout without one."""
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ------------------------------------------------------------


def _cmd_gen_graph(args) -> int:
    g = build_family(_spec_from_args(args))
    _write_out(args.output, write_graph(g))
    return 0


def _cmd_gen_cnf(args) -> int:
    g = _graph_from_args(args)
    f = pebbling_contradiction(g, args.d, starred=args.starred)
    _write_out(args.output, write_dimacs(f))
    return 0


def _cmd_price(args) -> int:
    g = _graph_from_args(args)
    price = optimal_price(g, game=args.game, bound=args.bound)
    _write_out(args.output, f"{price}\n")
    return 0


def _frontier_rows(label_family: str, label_params: str, game: str, frontier) -> str:
    lines = ["family,params,game,space,min_time"]
    for s, t in frontier.points:
        lines.append(f"{label_family},{label_params},{game},{s},{t}")
    return "\n".join(lines) + "\n"


def _cmd_frontier(args) -> int:
    g = _graph_from_args(args)
    fr = tradeoff_frontier(g, game=args.game, space_cap=args.space_cap, bound=args.bound)
    if args.family:
        spec = _spec_from_args(args)
        fam, par = spec.kind, spec.params_label()
    else:
        fam, par = "file", os.path.basename(args.graph)
    _write_out(args.output, _frontier_rows(fam, par, args.game, fr))
    return 0


def _cmd_strategy(args) -> int:
    spec = _spec_from_args(args)
    if spec.kind != "carlson_savage" and args.budget is not None:
        raise _Usage("--budget only applies to carlson_savage")
    g, moves = _strategy(spec, args.budget)
    trace = validate_pebbling(g, moves, game="black")
    _write_out(args.output, format_moves(moves))
    if args.output:
        sys.stdout.write(json.dumps(trace.report()) + "\n")
    return 0


def _cmd_compile(args) -> int:
    g = _graph_from_args(args)
    if args.blob:
        moves = _parse_file(args.moves, blobmod.parse_blob_moves)
        trace = blobmod.validate_blob_pebbling(g, moves)
    else:
        trace = validate_pebbling(g, _parse_file(args.moves, parse_moves), game="black")
    rtrace = simulation.compile_pebbling(g, args.d, trace, starred=args.starred)
    _write_out(args.output, format_trace(rtrace))
    return 0


def _cmd_check(args) -> int:
    f = _parse_file(args.cnf, read_dimacs)
    metrics = _parse_file(args.proof, functools.partial(check_trace_text, f))
    sys.stdout.write(json.dumps(metrics.report()) + "\n")
    return 0


def _parse_vertex_set(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        return frozenset(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise _Usage(f"bad vertex list {text!r}") from None


def _cmd_measure(args) -> int:
    g = _graph_from_args(args)
    U = _parse_vertex_set(args.set)
    hull = hidden_vertices(g, U, direction=args.direction)
    mv = klawe_measure(LayeredView.from_dag(g), U)
    report = {"hidden": sorted(hull), "measure": mv.value, "partials": list(mv.partials)}
    config = _parse_vertex_set(args.black) | _parse_vertex_set(args.white)
    if config:
        report["potential"] = potential(g, config, direction=args.direction)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


# --- tradeoff-report --------------------------------------------------------


def _parse_range(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in text:
        return [int(t) for t in text.split(",")]
    return [int(text)]


def _experiment_instances(cp: ConfigParser):
    """(spec, cap) pairs in file order, params in cross-product order; cap is
    the space-cap keyword for ``tradeoff_frontier`` (``+k``: above_price)."""
    out = []
    for section in cp.sections():
        if not section.startswith("family:"):
            continue
        kind = section.split(":", 1)[1]
        if kind not in _FAMILY_PARAMS:
            raise _Usage(f"unknown family {kind!r} in spec")
        names = _FAMILY_PARAMS[kind]
        try:
            ranges = [_parse_range(cp.get(section, name)) for name in names]
        except (ValueError, ConfigError) as e:
            raise _Usage(f"bad parameter ranges in [{section}]: {e}") from None
        cap = cp.get(section, "space_cap", fallback="+2")
        key = "above_price" if cap.startswith("+") else "space_cap"
        try:
            cap_kw = {key: int(cap.removeprefix("+"))}
            if cap_kw[key] < 0:
                raise ValueError
        except ValueError:
            raise _Usage(f"bad space_cap {cap!r} in [{section}]") from None
        for combo in product(*ranges):
            out.append((FamilySpec(kind, combo), cap_kw))
    return out


def _instance_rows(spec: FamilySpec, cap_kw: dict[str, int], game: str, bound: int | None):
    """Frontier and strategy comparison rows for one instance."""
    g = build_family(spec)
    frontier = tradeoff_frontier(g, game=game, bound=bound, **cap_kw)
    if spec.kind == "carlson_savage":

        def strategy_time(s):
            try:
                return validate_pebbling(g, cs_tradeoff_strategy(*spec.params, s), game="black").time
            except BudgetTooSmall:
                return ""

    else:
        base = validate_pebbling(g, black_strategy(spec), game="black")

        def strategy_time(s):
            return base.time if base.space <= s else ""

    rows = [(spec.kind, spec.params_label(), game, s, t, strategy_time(s)) for s, t in frontier.points]
    return rows, frontier


def _read_spec(spec_path: str) -> ConfigParser:
    try:
        text = _read_text(spec_path)
    except OSError:
        raise _Usage(f"cannot read spec {spec_path!r}") from None
    cp = ConfigParser()
    try:
        cp.read_string(text, source=spec_path)
    except ConfigError as e:
        raise _Usage(f"bad spec {spec_path!r}: {str(e).splitlines()[0]}") from None
    return cp


def tradeoff_report(spec_path: str) -> tuple[str, dict[str, str], list[str]]:
    """Run the experiment file; returns (csv text, plot files, warnings).

    This is what the ``tradeoff-report`` command runs; the command then
    writes the csv and plot files where the spec's ``out_csv`` and
    ``plot_prefix`` say.
    """
    cp = _read_spec(spec_path)
    game = cp.get("experiment", "game", fallback="black")
    if game not in ("black", "bw"):
        raise _Usage(f"unknown game {game!r}")
    try:
        bound = cp.getint("experiment", "bound", fallback=None)
        if bound is not None and bound < 0:
            raise ValueError
    except ValueError:
        raise _Usage(f"bad bound {cp.get('experiment', 'bound')!r} in [experiment]") from None
    instances = _experiment_instances(cp)
    if not instances:
        raise _Usage("empty family range: no instances to run")

    lines = ["family,params,game,space,min_time,strategy_time"]
    plots: dict[str, str] = {}
    warnings: list[str] = []
    for spec, cap_kw in instances:
        try:
            rows, frontier = _instance_rows(spec, cap_kw, game, bound)
        except SizeBoundExceeded as e:
            warnings.append(f"skipped {spec.label()}: {e}")
            continue
        for row in rows:
            lines.append(",".join(str(x) for x in row))
        plot = "space,time\n" + "".join(f"{s},{t}\n" for s, t in frontier.points)
        plots[f"{spec.kind}-{spec.params_label()}.csv"] = plot
    return "\n".join(lines) + "\n", plots, warnings


def _cmd_tradeoff_report(args) -> int:
    csv_text, plots, warnings = tradeoff_report(args.spec)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    cp = _read_spec(args.spec)
    _write_out(cp.get("experiment", "out_csv", fallback=None), csv_text)
    prefix = cp.get("experiment", "plot_prefix", fallback=None)
    if prefix:
        for name, text in plots.items():
            _write_out(prefix + name, text)
    return 0


# --- parser -----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: in-process callers of run_command run many
    # commands, and each discarded parser is a reference cycle that lingers
    # until a full garbage collection.
    top = _Parser(prog="pebble-bench")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="write a family instance as graph text")
    _add_graph_args(p, family_only=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("gen-cnf", help="write a pebbling contradiction as DIMACS")
    _add_graph_args(p)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--starred", action="store_true", help="omit target clauses")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen_cnf)

    p = sub.add_parser("price", help="exact pebbling price")
    _add_graph_args(p)
    p.add_argument("--game", choices=("black", "bw"), default="black")
    p.add_argument("--bound", type=_limit)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("frontier", help="time-space Pareto frontier as CSV")
    _add_graph_args(p)
    p.add_argument("--game", choices=("black", "bw"), default="black")
    p.add_argument("--space-cap", type=_limit, required=True)
    p.add_argument("--bound", type=_limit)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("strategy", help="emit an explicit pebbling move list")
    _add_graph_args(p, family_only=True)
    p.add_argument("--budget", type=int, help="space budget (carlson_savage only)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_strategy)

    p = sub.add_parser("compile", help="compile a pebbling into a resolution trace")
    _add_graph_args(p)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--moves", required=True)
    p.add_argument("--blob", action="store_true", help="moves file is a blob trace")
    p.add_argument("--starred", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("check", help="verify a resolution refutation")
    p.add_argument("--cnf", required=True)
    p.add_argument("--proof", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("measure", help="hiding hull, measure, and potential")
    _add_graph_args(p)
    p.add_argument("--set", required=True, help="comma list of vertices")
    p.add_argument("--black", help="black pebbles for the potential")
    p.add_argument("--white", help="white pebbles for the potential")
    p.add_argument("--direction", choices=("below", "above"), default="below")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("tradeoff-report", help="run an experiment spec file")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_tradeoff_report)

    return top


def run_command(argv) -> int:
    """Parse and run one command; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (PebbleBenchError, OSError) as e:
        # OSError: a file that cannot be opened, read or written.
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover - run as a script
    main()
