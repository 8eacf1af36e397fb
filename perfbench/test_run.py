"""Tests of the benchmark harness, on the smallest instance of each workload.

    python3 -m pytest perfbench/test_run.py

Not part of the repository's test suite (pyproject's ``testpaths`` is
``tests``): it checks the benchmark, not the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import Pins, WrongAnswer, corrupt  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.splitlines()
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_ratio"] == 0
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # Layer self times plus the harness's own share make up the pass.
        accounted = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
        assert accounted == pytest.approx(metrics["trace.job_s"], rel=0.05)
    else:
        assert all(v > 0 for v in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", "proof", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_pins_reject_a_wrong_answer():
    pins = Pins({"seed": 1, "fixed": {"a": [1, 2]}, "seeded": {"b": 3}}, seed=1)
    pins.expect("a", (1, 2))
    pins.expect("b", 3, seeded=True)
    with pytest.raises(WrongAnswer):
        pins.expect("a", [2, 1])
    with pytest.raises(WrongAnswer):
        pins.expect("b", 4, seeded=True)
    other_seed = Pins({"seed": 1, "fixed": {"a": 1}, "seeded": {"b": 3}}, seed=2)
    other_seed.expect("b", 4, seeded=True)  # seeded pins hold for the pinned seed only
    with pytest.raises(LookupError):
        other_seed.expect("c", 1)


def test_corrupt_misstates_one_resolvent():
    text = "a 1 0\na -1 2 0\nr 1 2 1 2 0\na -2 0\nr 3 4 2 0\n"
    bad = corrupt(text).splitlines()
    good = text.splitlines()
    assert [i for i in range(len(good)) if bad[i] != good[i]] == [4]
    assert bad[4] == "r 3 4 2 2 0"
