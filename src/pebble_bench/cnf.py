"""CNF formulas and pebbling contradictions.

Variables are positive DIMACS integers.  The pebbling contradiction over a
DAG associates d variables with every vertex v, numbered d*v + i for
i in 1..d (v is 0-based), and states that every source has some true
variable, truth propagates along edges, and every target has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import neg

from .dag import Dag
from .errors import GraphError, ParseError, SizeBoundExceeded

__all__ = [
    "Clause",
    "Cnf",
    "canon_clause",
    "is_tautology",
    "var_id",
    "var_vertex",
    "MAX_CLAUSES",
    "MAX_LITERALS",
    "check_clause_count",
    "check_literal_count",
    "pebbling_contradiction",
    "write_dimacs",
    "read_dimacs",
]

Clause = tuple[int, ...]

# Largest pebbling contradiction built or compiled against: twelve times the
# biggest benchmark instance, binary_tree(7) at d = 8 (8,264 clauses and
# 82,312 literals).  Both bounds are needed: wide clauses at a large d reach
# millions of literals well inside the clause bound.
MAX_CLAUSES = 100_000
MAX_LITERALS = 1_000_000


def canon_clause(lits) -> Clause:
    """Canonical clause form: duplicates merged, sorted by variable then sign.

    The descending sort puts x before -x; the stable sort on ``abs`` keeps
    that order within a variable.
    """
    return tuple(sorted(sorted(set(lits), reverse=True), key=abs))


def is_tautology(lits) -> bool:
    s = set(lits)
    return not s.isdisjoint(map(neg, s))


@dataclass(frozen=True)
class Cnf:
    """A CNF formula: a clause list (multiset) over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        n = self.num_vars
        for cl in self.clauses:
            if 0 in cl or max(map(abs, cl), default=n) > n:
                bad = next(l for l in cl if l == 0 or abs(l) > n)
                raise GraphError(f"literal {bad} out of range in clause {cl}")
            if is_tautology(cl):
                raise GraphError(f"tautological clause {cl}")

    def __len__(self):
        return len(self.clauses)


def var_id(v: int, i: int, d: int) -> int:
    """DIMACS variable for the i-th copy (1-based) of vertex v (0-based)."""
    return d * v + i


def var_vertex(x: int, d: int) -> tuple[int, int]:
    """Inverse of var_id: variable -> (vertex, copy index)."""
    return (x - 1) // d, (x - 1) % d + 1


def _all_true(v: int, d: int) -> list[int]:
    return [var_id(v, i, d) for i in range(1, d + 1)]


def check_clause_count(g: Dag, d: int, starred: bool = False) -> int:
    """The clause count of ``pebbling_contradiction(g, d, starred)``,
    predicted from the graph: #sources + sum of d^indeg over non-sources +
    d * #targets (no target term when starred).  Raises SizeBoundExceeded
    above MAX_CLAUSES, before anything is built."""
    count = len(g.sources) + sum(d ** len(ps) for ps in g.preds if ps)
    if not starred:
        count += d * len(g.targets)
    if count > MAX_CLAUSES:
        raise SizeBoundExceeded(
            f"degree-{d} pebbling contradiction has {count} clauses, "
            f"above the bound {MAX_CLAUSES}"
        )
    return count


def check_literal_count(g: Dag, d: int, starred: bool = False) -> int:
    """The literal count of ``pebbling_contradiction(g, d, starred)``,
    predicted from the graph: d per source, indeg + d in each of the d^indeg
    clauses of a non-source, d per target (none when starred).  Raises
    SizeBoundExceeded above MAX_LITERALS, before anything is built."""
    count = d * len(g.sources) + sum(d ** len(ps) * (len(ps) + d) for ps in g.preds if ps)
    if not starred:
        count += d * len(g.targets)
    if count > MAX_LITERALS:
        raise SizeBoundExceeded(
            f"degree-{d} pebbling contradiction has {count} literals, "
            f"above the bound {MAX_LITERALS}"
        )
    return count


def pebbling_contradiction(g: Dag, d: int, starred: bool = False) -> Cnf:
    """The d-th degree pebbling contradiction over g.

    Clauses, in order: one per source (its d variables), then for every
    non-source v and every assignment (j_1..j_k) of copies to its k
    predecessors the propagation clause, then d unit target clauses per
    target.  ``starred`` drops the target clauses, leaving a satisfiable
    formula whose target clauses are derivable instead of given.  Raises
    SizeBoundExceeded, before building anything, above ``MAX_CLAUSES`` or
    ``MAX_LITERALS``.
    """
    if d < 1:
        raise GraphError("d must be >= 1")
    check_clause_count(g, d, starred)
    check_literal_count(g, d, starred)
    clauses: list[Clause] = []
    for s in g.sources:
        clauses.append(canon_clause(_all_true(s, d)))
    for v in range(g.n):
        ps = g.preds[v]
        if not ps:
            continue
        head = _all_true(v, d)
        for js in product(range(1, d + 1), repeat=len(ps)):
            body = [-var_id(u, j, d) for u, j in zip(ps, js)]
            clauses.append(canon_clause(body + head))
    if not starred:
        for t in g.targets:
            for i in range(1, d + 1):
                clauses.append((-var_id(t, i, d),))
    return Cnf(num_vars=d * g.n, clauses=tuple(clauses))


# --- DIMACS -----------------------------------------------------------------


def write_dimacs(f: Cnf) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for cl in f.clauses:
        lines.append(" ".join(map(str, cl + (0,))))
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> Cnf:
    num_vars = None
    declared = None
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if num_vars is not None:
                raise ParseError("duplicate p line", lineno)
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad header {line!r}", lineno)
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad header {line!r}", lineno) from None
            continue
        if num_vars is None:
            raise ParseError("clause before p line", lineno)
        try:
            lits = list(map(int, line.split()))
        except ValueError:
            raise ParseError(f"bad clause line {line!r}", lineno) from None
        if not lits or lits[-1] != 0:
            raise ParseError("clause line missing trailing 0", lineno)
        lits = lits[:-1]
        if 0 in lits:
            raise ParseError("literal 0 inside clause", lineno)
        clauses.append(canon_clause(lits))
    if num_vars is None:
        raise ParseError("no p line")
    if declared != len(clauses):
        raise ParseError(f"declared {declared} clauses, found {len(clauses)}")
    try:
        return Cnf(num_vars=num_vars, clauses=tuple(clauses))
    except GraphError as e:
        raise ParseError(str(e)) from None
