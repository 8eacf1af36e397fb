"""Benchmark of pebble-bench: one closed-loop client per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs one workload: it sets up several times (import,
input generation, file writing) and keeps the last set-up's job list, then
runs the whole job list back to back, single-threaded, until ``--seconds``
is used up, and checks every answer.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
named in BENCHMARK.json: one pass's wall and CPU time and one set-up's
time, as medians scaled by a reference kernel (see ``scaled_pass``), and
the peak RSS.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the last line holds the
per-layer metrics, each per pass, plus the tracing overhead.  The line
before it is a run record (machine, commit, seed, samples, fail ratio).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Lib, Pins

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7  # set-ups per run; setup_s is their median
MIN_PASSES = 3
MAX_SECONDS = 120  # start no pass after this, whatever the minimum says
REFERENCE_S = 0.011  # reported times are scaled to a reference kernel of this length
REFERENCE_SHARE = 0.05  # the kernel runs for this share of the job before it, or once
# Under contention the jobs slowed as about this power of the kernel's
# slowdown (the value that gave the least spread over 40 runs of the four
# workloads on a shared 2-vCPU VM; 1.0 over-corrected).
REFERENCE_POWER = 0.85


def load_program() -> Lib:
    """Import pebble_bench afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "pebble_bench" or n.startswith("pebble_bench.")]:
        del sys.modules[name]
    pb = importlib.import_module("pebble_bench")
    if not Path(pb.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"pebble_bench loaded from {pb.__file__}, not from this checkout")
    return Lib(pb, importlib.import_module("pebble_bench.cli"))


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        got = subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return got.stdout.strip()


def _reference_kernel() -> None:
    dist = {0: 0}
    queue = deque([0])
    while queue:
        state = queue.popleft()
        for v in range(15):
            nxt = state ^ (1 << v)
            if nxt not in dist and bin(nxt).count("1") <= 4:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    {frozenset((i, i * 3 % 17, i % 5)) for i in range(3000)}
    text = "\n".join(f"r {i} {i + 1} {i % 7} -{i} {2 * i} 0" for i in range(2500))
    sum(int(t) for line in text.splitlines() for t in line.split()[1:])


def reference_seconds(at_least: float) -> float:
    """The machine's speed right now: seconds per run of a fixed kernel.

    The kernel mixes what the program spends its time on: a BFS over
    bitmask states in a dict and a deque (the searches), hashing small
    frozensets (the blob and measure code), and formatting and parsing
    lines of integers (DIMACS and trace I/O).  It does not call the program,
    so no change to the program changes it.  The collector is off while it
    runs, so the program's heap does not change its time either.  It runs
    at least once and until ``at_least`` seconds have passed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        runs = 0
        while runs == 0 or time.perf_counter() - start < at_least:
            _reference_kernel()
            runs += 1
        return (time.perf_counter() - start) / runs
    finally:
        if enabled:
            gc.enable()


class Loop:
    """Runs the job list in passes, timing each job and counting failures."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.reported: set[str] = set()  # jobs whose traceback was printed

    def run(self, seconds: float, tracer: Tracer | None = None) -> dict[str, list[tuple[float, float, float]]]:
        """Passes until ``seconds`` would be exceeded.

        Returns (wall, cpu, reference) per job run, where reference is the
        mean of the reference kernel's times just before and just after it.
        """
        samples: dict[str, list[tuple[float, float, float]]] = {job.name: [] for job in self.jobs}
        start = time.perf_counter()
        passes = 0
        before = reference_seconds(0)
        while True:
            pass_start = time.perf_counter()
            for job in self.jobs:
                self.attempted += 1
                wall0, cpu0 = time.perf_counter(), cpu_seconds()
                try:
                    if tracer is None:
                        job.run()
                    else:
                        with tracer.span("harness.self"):
                            job.run()
                except Exception:  # a wrong or crashing job is counted, not fatal
                    self.failed += 1
                    if job.name not in self.reported:
                        self.reported.add(job.name)
                        print(f"job {job.name} failed:", file=sys.stderr)
                        traceback.print_exc()
                wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
                after = reference_seconds(REFERENCE_SHARE * wall)
                samples[job.name].append((wall, cpu, (before + after) / 2))
                before = after
            passes += 1
            now = time.perf_counter()
            elapsed = now - start
            if elapsed + (now - pass_start) > seconds and (passes >= MIN_PASSES or elapsed > MAX_SECONDS):
                return samples


def scaled(seconds: float, reference: float) -> float:
    """A time as it would read where the reference kernel takes REFERENCE_S.

    Other tenants of the machine slow it down by up to 2x for seconds to
    minutes, and slow the kernel timed around each unit alike, so the
    scaled time holds still where the raw time does not.
    """
    return seconds * (REFERENCE_S / reference) ** REFERENCE_POWER


def scaled_pass(samples: dict[str, list[tuple[float, float, float]]], field: int) -> float:
    """One pass's time: the sum over jobs of each job's median scaled time.

    ``field`` 0 is wall time, 1 is CPU time.
    """
    return sum(statistics.median(scaled(s[field], s[2]) for s in runs) for runs in samples.values())


def raw_pass(samples, field: int) -> float:
    return sum(statistics.median(s[field] for s in runs) for runs in samples.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest instance of each workload")
    args = ap.parse_args(argv)

    if "PEBBLE_BENCH_THREADS" in os.environ:
        print("PEBBLE_BENCH_THREADS is set; the benchmark measures the default", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "pebble_bench" / "__init__.py").is_file():
        print(f"no pebble_bench sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = Pins(json.loads((HERE / "pins.json").read_text()), args.seed)
    setup = WORKLOADS[args.workload]

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_scaled = [], []
        before = reference_seconds(0)
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            lib = load_program()
            jobs = setup(lib, args.seed, workdir, pins, args.smoke)
            setup_times.append(time.perf_counter() - t0)
            after = reference_seconds(0)
            setup_scaled.append(scaled(setup_times[-1], (before + after) / 2))
            before = after
        loop = Loop(jobs)
        if args.trace:
            plain = loop.run(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            traced = loop.run(args.seconds / 2, tracer)
        else:
            plain = loop.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    job_s = scaled_pass(plain, 0)
    if args.trace:
        n = len(next(iter(traced.values())))
        values = {name: total / n for name, total in tracer.totals.items()}
        values["trace.job_s"] = sum(s[0] for runs in traced.values() for s in runs) / n
        values["trace.overhead"] = scaled_pass(traced, 0) / job_s
        specs = bench["per_layer"]
    else:
        values = {
            "job_s": job_s,
            "job_cpu_s": scaled_pass(plain, 1),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = bench["end_to_end"]
    unknown = set(values) - {m["name"] for m in specs}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "PEBBLE_BENCH_THREADS": None,
        "jobs": [j.name for j in jobs],
        "passes": len(next(iter(plain.values()))),
        "raw_job_s": raw_pass(plain, 0),
        "raw_job_cpu_s": raw_pass(plain, 1),
        "reference_s": statistics.median(s[2] for runs in plain.values() for s in runs),
        "job_wall_s": {name: [s[0] for s in runs] for name, runs in plain.items()},
        "job_reference_s": {name: [s[2] for s in runs] for name, runs in plain.items()},
        "setup_wall_s": setup_times,
        "fail_ratio": loop.failed / loop.attempted,
    }
    if args.trace:
        record["traced_job_wall_s"] = {name: [s[0] for s in runs] for name, runs in traced.items()}
    print(json.dumps({"record": record}))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
