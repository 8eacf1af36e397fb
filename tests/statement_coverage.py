"""List the statements of ``src/pebble_bench`` that a pytest run never executes.

Usage, from the repository root (extra arguments go to pytest)::

    python tests/statement_coverage.py [-q ...]

Runs pytest in-process under a stdlib ``sys.settrace`` line collector limited
to ``src/pebble_bench``, then prints each statement that never ran as
``path:line: source``.  It exits 1 if there is one, and also if the
traced pytest run fails, so the suite must pass under the tracer too.

A statement counts unless it is a docstring, an import, or the header of a
``def`` or ``class``.  A line marked ``# pragma: no cover - <reason>``
exempts the statement on it and the block that it opens.
"""

from __future__ import annotations

import ast
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pebble_bench") + os.sep
PRAGMA = re.compile(r"#\s*pragma: no cover - \S")


def _collect(argv: list[str]) -> tuple[dict[str, set[int]], int]:
    """Run pytest with ``argv``; return the lines executed per file and
    pytest's exit code."""
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    return hits, code


def _exempt_lines(lines: list[str]) -> set[int]:
    """1-based line numbers covered by a ``pragma: no cover`` mark: the marked
    line and, if it opens a block, every line indented below it."""
    out: set[int] = set()
    for i, line in enumerate(lines):
        if not PRAGMA.search(line):
            continue
        out.add(i + 1)
        indent = len(line) - len(line.lstrip())
        for j in range(i + 1, len(lines)):
            body = lines[j].lstrip()
            if body and not body.startswith("#") and len(lines[j]) - len(body) <= indent:
                break
            out.add(j + 1)
    return out


def _statements(tree: ast.Module) -> list[ast.stmt]:
    """The statements that count: no docstring, import or def/class header."""
    skip = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if not isinstance(body, list):
                continue
            for k, stmt in enumerate(body):
                if not isinstance(stmt, ast.stmt) or isinstance(stmt, skip):
                    continue
                docstring = (
                    k == 0
                    and field == "body"
                    and isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                )
                if not docstring:
                    out.append(stmt)
    return out


def _missed(hits: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(relative path, line, source line) of every counted statement not run."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        exempt = _exempt_lines(lines)
        ran = hits.get(path, set())
        for stmt in _statements(ast.parse(source, path)):
            if stmt.lineno not in ran and stmt.lineno not in exempt:
                rel = os.path.relpath(path, ROOT)
                out.append((rel, stmt.lineno, lines[stmt.lineno - 1].strip()))
    return sorted(set(out))


def main(argv: list[str]) -> int:
    hits, code = _collect(argv)
    gaps = _missed(hits)
    for rel, line, text in gaps:
        print(f"{rel}:{line}: {text}")
    print(f"{len(gaps)} statement(s) of src/pebble_bench never ran")
    if code:
        print(f"the traced pytest run failed (exit code {int(code)})")
    return 1 if gaps or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
