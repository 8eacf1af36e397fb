"""Check that the tests kill a fixed table of mutants of ``src/pebble_bench``.

Usage, from the repository root (extra arguments go to pytest)::

    python tests/mutation_check.py [-q ...]

Each row of ``MUTANTS`` names a file under ``src/``, an exact text in it, the
text that replaces it, and the tests that must fail with that edit in place.
First the named tests run once on ``src/`` as it is, where they must all
pass.  Then, for each row, ``src/`` is copied to a temporary directory, the
edit is applied there, and the row's tests run against that copy in a fresh
interpreter.  The script prints one line per row and exits 1 if an old text
is not found exactly once (a stale row), if an edit does not compile, if a
named test is not collected, or if a named test passes on its mutant (the
mutant survives).  A change that rewrites a rule the table covers updates
its rows.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECK = "pebble_bench/resolution.py"
RES = "tests/test_resolution.py::"

# (file under src/, exact old text, new text, tests that must fail)
MUTANTS = [
    (  # an erase is checked against the ids issued, not the ids live
        CHECK,
        """            if cid not in live:
                raise VerificationError(f"erased id {cid} not live", index=idx)
            del live[cid]""",
        """            if not 0 < cid < next_id:
                raise VerificationError(f"erased id {cid} not live", index=idx)
            live.pop(cid, None)""",
        [RES + "test_check_trace_text_matches_parse_then_check"],
    ),
    (  # an axiom is canonicalised but never looked up in the formula
        CHECK,
        """                cl = canon_clause(cl)
                if cl not in axioms:
                    raise VerificationError(f"axiom {cl} not in formula", index=idx)""",
        """                cl = canon_clause(cl)""",
        [RES + "test_check_rejects_foreign_axiom", RES + "test_check_trace_text_matches_parse_then_check"],
    ),
    (  # a premise that is not live reads as the empty clause
        CHECK,
        """                c1 = live[left]
                c2 = live[right]""",
        """                c1 = live.get(left, ())
                c2 = live.get(right, ())""",
        [RES + "test_check_rejects_dead_premise", RES + "test_check_trace_text_matches_parse_then_check"],
    ),
    (  # the pivot need only occur with both signs, in either premise
        CHECK,
        "good = pivot > 0 and pivot in c1 and -pivot in c2",
        "good = {pivot, -pivot} <= {*c1, *c2}",
        [RES + "test_check_trace_text_matches_parse_then_check"],
    ),
    (  # a tautological resolvent goes live
        CHECK,
        "if not good or not lits.isdisjoint(map(neg, lits)):",
        "if not good:",
        [RES + "test_check_trace_text_matches_parse_then_check"],
    ),
    (  # a stated clause passes on its length and a subset of the resolvent
        CHECK,
        "if len(cl) != len(lits) or lits != set(cl):",
        "if len(cl) != len(lits) or not lits >= set(cl):",
        [RES + "test_stated_clause_compared_as_a_set"],
    ),
    (  # any live clause ends the refutation, not only the empty one
        CHECK,
        "if () not in live.values():",
        "if not live:",
        [RES + "test_check_requires_live_empty_clause", RES + "test_check_trace_text_matches_parse_then_check"],
    ),
]


def _run_tests(src: str, tests: list[str], report: str, argv: list[str]) -> dict[str, bool]:
    """Run ``tests`` against the package under ``src`` in a fresh interpreter;
    return, for each test collected, whether it failed."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *argv, *tests]
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    failed = {}
    if os.path.exists(report):
        for case in ET.parse(report).iter("testcase"):
            path = case.get("classname", "").replace(".", "/") + ".py"
            failed[f"{path}::{case.get('name')}"] = any(c.tag in ("failure", "error") for c in case)
    return failed


def main(argv: list[str]) -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        every = sorted({t for *_, tests in MUTANTS for t in tests})
        base = _run_tests(os.path.join(ROOT, "src"), every, os.path.join(tmp, "base.xml"), argv)
        for test in every:
            if base.get(test) is not False:
                print(f"{test}: {'fails' if base.get(test) else 'not collected'} without a mutant")
                bad += 1
        if bad:
            return 1
        for k, (path, old, new, tests) in enumerate(MUTANTS, 1):
            src = os.path.join(tmp, f"src{k}")
            shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
            target = os.path.join(src, path)
            with open(target) as fh:
                text = fh.read()
            label = f"{k} {path}: {old.strip().splitlines()[0]!r}"
            if text.count(old) != 1:
                print(f"{label}: old text found {text.count(old)} times")
                bad += 1
                continue
            text = text.replace(old, new)
            try:
                compile(text, target, "exec")
            except SyntaxError as e:  # a mutant that does not import kills nothing
                print(f"{label}: edit does not compile: {e}")
                bad += 1
                continue
            with open(target, "w") as fh:
                fh.write(text)
            failed = _run_tests(src, tests, os.path.join(tmp, f"mutant{k}.xml"), argv)
            survived = [t for t in tests if failed.get(t) is not True]
            print(f"{label}: {'SURVIVED ' + ', '.join(survived) if survived else 'killed'}")
            bad += bool(survived)
    print(f"{len(MUTANTS)} mutants, {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
