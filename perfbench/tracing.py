"""Spans around calls into pebble_bench's public functions, for traced runs.

A traced run replaces each function named in ``LAYERS`` with a wrapper, in
every loaded ``pebble_bench`` module that binds that same function object
(``cli`` imports names directly, so patching the defining module alone would
miss its calls).  The wrapper records a span and the layer's work counts.
A layer's self time is its span's duration minus the duration of the spans
opened inside it, so the self times of all layers plus the harness's own
span add up to the traced wall time.

Nothing under ``src/`` is touched: spans sit at the boundary between the
benchmark and the program's public functions.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _one(args, result) -> int:
    return 1


def _subsets(args, result) -> int:
    # Computed, not measured: the measure sweeps visit every vertex subset.
    return 1 << args["g"].n


@dataclass(frozen=True)
class Layer:
    """One wrapped public function.

    ``span`` names the span; its self time is reported as ``<span>_s``.
    ``counts`` maps a metric name to a function of the bound arguments and
    the result.  Both names may use ``{argument}`` fields.
    """

    module: str
    function: str
    span: str
    counts: tuple[tuple[str, Callable], ...] = ()


LAYERS = (
    Layer("dag", "build_family", "dag.build_family"),
    Layer("search", "optimal_price", "search.{game}_price", (("search.{game}_price_calls", _one),)),
    Layer(
        "search",
        "tradeoff_frontier",
        "search.{game}_frontier",
        (("search.{game}_frontier_budgets", lambda a, r: a["space_cap"]),),
    ),
    Layer("search", "optimal_blob_price", "search.blob_price", (("search.blob_price_calls", _one),)),
    Layer(
        "measures",
        "potential",
        "measures.potential",
        (("measures.potential_calls", _one), ("measures.subsets", _subsets)),
    ),
    Layer(
        "measures",
        "check_lhc",
        "measures.hider",
        (("measures.hider_calls", _one), ("measures.subsets", _subsets)),
    ),
    Layer(
        "measures",
        "min_lhc_bound",
        "measures.hider",
        (("measures.hider_calls", _one), ("measures.subsets", _subsets)),
    ),
    Layer("cnf", "pebbling_contradiction", "cnf.generate", (("cnf.clauses", lambda a, r: len(r)),)),
    Layer("cnf", "write_dimacs", "cnf.dimacs_write"),
    Layer("cnf", "read_dimacs", "cnf.dimacs_read"),
    Layer(
        "simulation",
        "compile_pebbling",
        "simulation.compile",
        (("simulation.events", lambda a, r: len(r.events)),),
    ),
    Layer(
        "simulation",
        "induce_configuration",
        "simulation.induce",
        (("simulation.induce_calls", _one),),
    ),
    Layer("simulation", "explain_transition", "simulation.explain"),
    Layer(
        "resolution",
        "check_refutation",
        "resolution.check",
        (("resolution.steps", lambda a, r: len(a["trace"].events)),),
    ),
    Layer(
        "resolution",
        "format_trace",
        "resolution.trace_write",
        (("resolution.trace_bytes", lambda a, r: len(r)),),
    ),
    Layer(
        "resolution",
        "parse_trace",
        "resolution.trace_read",
        (("resolution.trace_bytes", lambda a, r: len(a["text"])),),
    ),
    Layer("blob", "validate_blob_pebbling", "blob.validate", (("blob.moves", lambda a, r: len(r.moves)),)),
    Layer("strategies", "black_strategy", "strategies.emit", (("strategies.moves", lambda a, r: len(r)),)),
    Layer(
        "strategies",
        "cs_tradeoff_strategy",
        "strategies.emit",
        (("strategies.moves", lambda a, r: len(r)),),
    ),
    Layer(
        "pebbling",
        "validate_pebbling",
        "pebbling.validate",
        (("pebbling.moves", lambda a, r: len(r.moves)),),
    ),
    Layer("cli", "run_command", "cli.self"),
    Layer(
        "cli",
        "tradeoff_report",
        "cli.self",
        (("cli.skipped_instances", lambda a, r: len(r[2])),),
    ),
)


class _Frame:
    __slots__ = ("name", "start", "child", "counts")

    def __init__(self, name: str, counts: frozenset[str]):
        self.name = name
        self.counts = counts
        self.child = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Collects self time per span name and work counts per metric name.

    A count is recorded only by the outermost span that records it, so a
    public function calling another one (``black_strategy`` emitting through
    ``cs_tradeoff_strategy``) counts its work once.  Counts of a call that
    raised are dropped; its time is kept.
    """

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []

    def _open(self, name: str, counts=frozenset()) -> _Frame:
        frame = _Frame(name, counts)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        self.totals[frame.name + "_s"] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            counts = [(metric.format(**a), count) for metric, count in layer.counts]
            shadowed = {m for f in self._stack for m in f.counts}
            frame = self._open(layer.span.format(**a), frozenset(m for m, _ in counts))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            for metric, count in counts:
                if metric not in shadowed:
                    self.totals[metric] += count(a, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a pebble_bench module binds it.

        Raises LookupError when a named function is missing, so a renamed
        public function stops the traced run instead of going unmeasured.
        """
        loaded = [
            m for name, m in sys.modules.items() if name == "pebble_bench" or name.startswith("pebble_bench.")
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"pebble_bench.{layer.module}")
            fn = getattr(module, layer.function, None)
            if not callable(fn):
                raise LookupError(f"pebble_bench.{layer.module}.{layer.function} is missing")
            traced = self._wrap(layer, fn)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, traced)
