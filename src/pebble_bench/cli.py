"""Command line interface.

Subcommands: gen-graph, gen-cnf, price, frontier, strategy, compile, check,
measure, tradeoff-report.  Exit codes: 0 success, 1 domain error (illegal
input, failed verification, size bounds), 2 usage error.  All outputs are
deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from configparser import ConfigParser, Error as ConfigError
from contextlib import contextmanager
from itertools import product
from types import SimpleNamespace

from . import blob as blobmod
from . import simulation
from .cnf import _dimacs_lines, pebbling_contradiction, read_dimacs
from .dag import _FAMILY_PARAMS, Dag, FamilySpec, build_family, read_graph, write_graph
from .errors import BudgetTooSmall, ParseError, PebbleBenchError, SizeBoundExceeded
from .measures import hidden_vertices, klawe_measure, potential, LayeredView
from .pebbling import _move_lines, parse_moves, validate_pebbling
from .resolution import _trace_lines, check_trace_text
from .search import SearchStats, optimal_price, tradeoff_frontier
from .strategies import _schedules

__all__ = ["main", "run_command"]


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``usage error:`` line (exit 2)
    instead of printing the usage block and raising SystemExit."""

    def error(self, message):
        raise _Usage(message)


# --- shared helpers ---------------------------------------------------------

def _add_graph_args(p: argparse.ArgumentParser, family_only: bool = False):
    p.add_argument("--family", choices=sorted(_FAMILY_PARAMS))
    for name in dict.fromkeys(name for least in _FAMILY_PARAMS.values() for name in least):
        p.add_argument(f"--{name}", type=int)
    if not family_only:
        p.add_argument("--graph", metavar="FILE", help="read the graph from a file")


def _spec_from_args(args) -> FamilySpec:
    """The family the flags name.  Every usage error, ``strategy``'s
    ``--budget`` on another family among them, is raised before the spec
    checks its parameter values."""
    if not args.family:
        raise _Usage("a --family is required")
    vals = []
    for name in _FAMILY_PARAMS[args.family]:
        v = getattr(args, name)
        if v is None:
            raise _Usage(f"family {args.family} needs --{name}")
        vals.append(v)
    if getattr(args, "budget", None) is not None and args.family != "carlson_savage":
        raise _Usage("--budget only applies to carlson_savage")
    return FamilySpec(args.family, tuple(vals))


def _limit(text: str) -> int:
    """argparse type of --space-cap: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"bad space cap {text!r}")
    return value


def _read_text(path: str) -> str:
    """The UTF-8 text of a file argument; a file that does not decode is a
    ParseError naming the path (OSError messages already name it)."""
    try:
        with open(path, encoding="utf-8") as fh:
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


@contextmanager
def _search_stats(args):
    """A SearchStats for the command's search.  With ``--stats`` it is
    written as one JSON line on stderr when the search ends, and so before
    the error line of a refused search; stdout is unchanged."""
    stats = SearchStats()
    try:
        yield stats
    finally:
        if args.stats:
            print(json.dumps(stats.report()), file=sys.stderr)


def _write_out(path: str | None, pieces):
    """Write ``pieces``, an iterable of strings, to the file ``path`` as
    UTF-8, or to stdout without one: the writer of every command's output.
    It writes a piece at a time, so a text made as it is written is never
    held whole; a caller holding one string passes a one-element tuple.
    The file is opened by the name's UTF-8 bytes, the encoding a spec is
    read in, and a surrogate from an undecodable argument byte goes back to
    that byte, as stdout writes it; so a name opens alike under any
    locale."""
    if path:
        name = path.encode("utf-8", "surrogateescape")
        with open(name, "w", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# --- subcommands ------------------------------------------------------------


def _cmd_gen_graph(args) -> int:
    g = build_family(_spec_from_args(args))
    _write_out(args.output, (write_graph(g),))
    return 0


def _cmd_gen_cnf(args) -> int:
    g = _graph_from_args(args)
    f = pebbling_contradiction(g, args.d, starred=args.starred)
    _write_out(args.output, _dimacs_lines(f))
    return 0


def _cmd_price(args) -> int:
    g = _graph_from_args(args)
    with _search_stats(args) as stats:
        price = optimal_price(g, game=args.game, stats=stats)
    _write_out(args.output, (f"{price}\n",))
    return 0


def _csv(rows) -> str:
    """Rows as CSV text, one LF-ended line each, the writer of every CSV
    output.  A field holding a comma, quote, CR or LF is quoted.  The
    writer ends its lines with CRLF, so that it quotes a CR on every
    Python version (before 3.13 it quotes only its terminator's
    characters), and each line's CRLF is cut to LF."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def _cmd_frontier(args) -> int:
    g = _graph_from_args(args)
    with _search_stats(args) as stats:
        fr = tradeoff_frontier(g, game=args.game, space_cap=args.space_cap, stats=stats)
    if args.family:
        spec = _spec_from_args(args)
        fam, par = spec.kind, spec.params_label()
    else:
        fam, par = "file", os.path.basename(args.graph)
    header = ("family", "params", "game", "space", "min_time")
    _write_out(args.output, (_csv([header, *((fam, par, args.game, s, t) for s, t in fr)]),))
    return 0


def _cmd_strategy(args) -> int:
    g, schedule = _schedules(_spec_from_args(args))
    moves = schedule(args.budget)
    trace = validate_pebbling(g, moves, game="black")
    _write_out(args.output, _move_lines(moves))
    if args.output:
        _write_out(None, (json.dumps(trace.report()) + "\n",))
    return 0


def _cmd_compile(args) -> int:
    g = _graph_from_args(args)
    if args.blob:
        moves = _parse_file(args.moves, blobmod.parse_blob_moves)
        trace = blobmod.validate_blob_pebbling(g, moves)
    else:
        trace = validate_pebbling(g, _parse_file(args.moves, parse_moves), game="black")
    _write_out(args.output, _trace_lines(simulation._events(g, args.d, trace, args.starred)))
    return 0


def _cmd_check(args) -> int:
    f = _parse_file(args.cnf, read_dimacs)
    metrics = _parse_file(args.proof, functools.partial(check_trace_text, f))
    _write_out(None, (json.dumps(metrics.report()) + "\n",))
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
    _write_out(None, (json.dumps(report) + "\n",))
    return 0


# --- tradeoff-report --------------------------------------------------------


def _parse_range(text: str) -> list[int]:
    """The values of ``a..b``, ``a,b,...`` or ``a``; a reversed range names no
    value, so it is refused rather than dropping its family."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    if "," in text:
        return [int(t) for t in text.split(",")]
    return [int(text)]


def _experiment_instances(sections: dict[str, dict[str, str]]):
    """(spec, cap) pairs in file order, params in cross-product order; cap is
    the space-cap keyword for ``tradeoff_frontier`` (``+k``: above_price).
    The specs, which refuse a value below its least, are built once every
    section has parsed, so a usage error anywhere in the file comes first."""
    found = []
    for section, values in sections.items():
        if not section.startswith("family:"):
            continue
        kind = section.split(":", 1)[1]
        if kind not in _FAMILY_PARAMS:
            raise _Usage(f"unknown family {kind!r} in spec")
        try:
            ranges = []
            for name in _FAMILY_PARAMS[kind]:
                if name not in values:  # configparser's NoOptionError text
                    raise ValueError(f"No option {name!r} in section: {section!r}")
                ranges.append(_parse_range(values[name]))
        except ValueError as e:
            raise _Usage(f"bad parameter ranges in [{section}]: {e}") from None
        cap = values.get("space_cap", "+2")
        key = "above_price" if cap.startswith("+") else "space_cap"
        try:
            cap_kw = {key: int(cap.removeprefix("+"))}
            if cap_kw[key] < 0:
                raise ValueError
        except ValueError:
            raise _Usage(f"bad space_cap {cap!r} in [{section}]") from None
        found.append((kind, product(*ranges), cap_kw))
    return [(FamilySpec(kind, combo), cap_kw) for kind, combos, cap_kw in found for combo in combos]


def _instance_rows(spec: FamilySpec, cap_kw: dict[str, int], game: str):
    """Frontier and strategy comparison rows for one instance.  Its graph
    is built once; a carlson_savage graph with its layout, from which every
    point's schedule is emitted."""
    g, schedule = _schedules(spec)
    frontier = tradeoff_frontier(g, game=game, **cap_kw)
    if spec.kind == "carlson_savage":

        def strategy_time(s):
            try:
                return validate_pebbling(g, schedule(s), game="black").time
            except BudgetTooSmall:
                return ""

    else:
        base = validate_pebbling(g, schedule(None), game="black")

        def strategy_time(s):
            return base.time if base.space <= s else ""

    rows = [(spec.kind, spec.params_label(), game, s, t, strategy_time(s)) for s, t in frontier]
    return rows, frontier


def _read_spec(spec_path: str) -> dict[str, dict[str, str]]:
    """The spec as plain values: each section, in file order, mapped to its
    options' interpolated values, the DEFAULT section's among them.  A spec
    that cannot be read or parsed, that holds a NUL byte or a value that
    does not interpolate is a usage error.  The parser, a reference cycle,
    lives only while the text is read."""
    try:
        text = _read_text(spec_path)
    except OSError:
        raise _Usage(f"cannot read spec {spec_path!r}") from None
    if "\0" in text:
        raise _Usage(f"bad spec {spec_path!r}: it holds a NUL byte")
    cp = ConfigParser()
    try:
        cp.read_string(text, source=spec_path)
        return {section: dict(cp.items(section)) for section in cp.sections()}
    except ConfigError as e:
        raise _Usage(f"bad spec {spec_path!r}: {str(e).splitlines()[0]}") from None


def tradeoff_report(spec_path: str) -> tuple[str, dict[str, str], list[str]]:
    """Run the experiment file; returns (csv text, plot files, warnings).

    This is what the ``tradeoff-report`` command runs.  It prints each
    warning to stderr, then writes the csv and plot files where the spec's
    ``out_csv`` (stdout without one) and ``plot_prefix`` say.  The spec is
    read once into plain values, so a pipe such as ``--spec /dev/stdin``
    works, and checked whole before any search.  A ``bound`` key, which
    older specs set, is ignored: the searches are bounded by what they
    store.
    """
    sections = _read_spec(spec_path)
    experiment = sections.get("experiment", {})
    game = experiment.get("game", "black")
    if game not in ("black", "bw"):
        raise _Usage(f"unknown game {game!r}")
    out_csv = experiment.get("out_csv")
    prefix = experiment.get("plot_prefix")
    instances = _experiment_instances(sections)
    if not instances:
        raise _Usage("empty family range: no instances to run")

    rows = [("family", "params", "game", "space", "min_time", "strategy_time")]
    plots: dict[str, str] = {}
    warnings: list[str] = []
    for spec, cap_kw in instances:
        try:
            instance_rows, frontier = _instance_rows(spec, cap_kw, game)
        except SizeBoundExceeded as e:
            warnings.append(f"skipped {spec.label()}: {e}")
            continue
        rows += instance_rows
        plots[f"{spec.kind}-{spec.params_label()}.csv"] = _csv([("space", "time"), *frontier])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    csv_text = _csv(rows)
    _write_out(out_csv, (csv_text,))
    if prefix:
        for name, text in plots.items():
            _write_out(prefix + name, (text,))
    return csv_text, plots, warnings


def _cmd_tradeoff_report(args) -> int:
    tradeoff_report(args.spec)
    return 0


# --- parser -----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: in-process callers of run_command run many
    # commands, and each discarded parser is a reference cycle that lingers
    # until a full garbage collection.
    top = _Parser(prog="pebble-bench")
    stats_help = "write the search's work counters as one JSON line on stderr"
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
    p.add_argument("--stats", action="store_true", help=stats_help)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("frontier", help="time-space Pareto frontier as CSV")
    _add_graph_args(p)
    p.add_argument("--game", choices=("black", "bw"), default="black")
    p.add_argument("--space-cap", type=_limit, required=True)
    p.add_argument("--stats", action="store_true", help=stats_help)
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
    except (PebbleBenchError, OSError, UnicodeEncodeError) as e:
        # OSError: a file that cannot be opened, read or written.
        # UnicodeEncodeError: text that the stream written to cannot encode.
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover - run as a script
    main()
