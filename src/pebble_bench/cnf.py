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
from .errors import GraphError, ParseError, SizeBoundExceeded, _lines, _Memo

__all__ = [
    "Clause",
    "Cnf",
    "canon_clause",
    "is_tautology",
    "var_id",
    "var_vertex",
    "MAX_CLAUSES",
    "MAX_LITERALS",
    "check_formula_size",
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
    """A CNF formula: a clause list (multiset) over variables 1..num_vars,
    each clause stored in canonical form.  A clause holding literal 0, a
    literal beyond num_vars or a complementary pair is refused; the error
    names the clause as given.

    A tuple or list clause with no repeated variable, as every generated
    clause is, takes a fast path: sorted by variable it is canonical
    already, and it cannot hold a complementary pair, so neither
    ``canon_clause`` nor ``is_tautology`` runs.  A literal 0 sorts first
    and is caught by the range check, as on the other path."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        n = self.num_vars
        clauses = []
        for cl in self.clauses:
            plain = type(cl) in (tuple, list) and len({*map(abs, cl)}) == len(cl)
            c = tuple(sorted(cl, key=abs)) if plain else canon_clause(cl)
            if c and (c[0] == 0 or abs(c[-1]) > n):  # sorted by variable
                bad = next(l for l in cl if l == 0 or abs(l) > n)
                raise GraphError(f"literal {bad} out of range in clause {cl}")
            if not plain and is_tautology(c):
                raise GraphError(f"tautological clause {cl}")
            clauses.append(c)
        object.__setattr__(self, "clauses", tuple(clauses))

    def __len__(self):
        return len(self.clauses)


def var_id(v: int, i: int, d: int) -> int:
    """DIMACS variable for the i-th copy (1-based) of vertex v (0-based)."""
    return d * v + i


def var_vertex(x: int, d: int) -> tuple[int, int]:
    """Inverse of var_id: variable -> (vertex, copy index)."""
    return (x - 1) // d, (x - 1) % d + 1


def check_formula_size(g: Dag, d: int, starred: bool = False) -> tuple[int, int]:
    """The clause and literal counts of ``pebbling_contradiction(g, d,
    starred)``, predicted from the graph.  A source has one clause of d
    literals; a non-source has d^indeg clauses of indeg + d literals; a
    target has d unit clauses (none when starred).  Raises GraphError below
    d = 1, then SizeBoundExceeded above MAX_CLAUSES, then above MAX_LITERALS."""
    if d < 1:
        raise GraphError("d must be >= 1")
    clauses = len(g.sources)
    literals = d * clauses
    for ps in g.preds:
        if ps:
            k = d ** len(ps)
            clauses += k
            literals += k * (len(ps) + d)
    if not starred:
        clauses += d * len(g.targets)
        literals += d * len(g.targets)
    if clauses > MAX_CLAUSES:
        raise SizeBoundExceeded(
            f"degree-{d} pebbling contradiction has {clauses} clauses, "
            f"above the bound {MAX_CLAUSES}"
        )
    if literals > MAX_LITERALS:
        raise SizeBoundExceeded(
            f"degree-{d} pebbling contradiction has {literals} literals, "
            f"above the bound {MAX_LITERALS}"
        )
    return clauses, literals


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
    check_formula_size(g, d, starred)
    pos = [tuple(var_id(v, i, d) for i in range(1, d + 1)) for v in range(g.n)]
    negs = [tuple(-x for x in lits) for lits in pos]
    clauses = [pos[s] for s in g.sources]
    for v in range(g.n):
        ps = g.preds[v]
        if ps:
            head = pos[v]
            clauses += [body + head for body in product(*(negs[u] for u in ps))]
    if not starred:
        for t in g.targets:
            for i in range(1, d + 1):
                clauses.append((-var_id(t, i, d),))
    return Cnf(num_vars=d * g.n, clauses=clauses)


# --- DIMACS -----------------------------------------------------------------


def _dimacs_lines(f: Cnf):
    """The formula's DIMACS text a line at a time, each with its line feed:
    the ``p cnf`` line, then one line per clause ending in 0.  The
    ``gen-cnf`` command writes the lines as they come, so it never holds
    the whole text.  A literal recurs in many clauses, so its text is
    computed once per formula."""
    text = _Memo(str).__getitem__
    yield f"p cnf {f.num_vars} {len(f.clauses)}\n"
    for cl in f.clauses:
        yield " ".join(map(text, cl + (0,))) + "\n"


def write_dimacs(f: Cnf) -> str:
    """The formula as DIMACS text: the lines of ``_dimacs_lines`` joined."""
    return "".join(_dimacs_lines(f))


def read_dimacs(text: str) -> Cnf:
    """The formula of a DIMACS text, read through ``_lines``: one ``p cnf
    <vars> <clauses>`` line, before any clause, then clause lines ending in
    0.  A literal recurs in many clauses, so each token is read through a
    memo, one per text: the formula holds one int object per literal value
    (4,080 for binary_tree(7) at d = 8, not one per literal, 82,312).
    Raises ParseError, with the line number of a malformed line."""
    lit = _Memo(int).__getitem__
    num_vars = None
    declared = None
    clauses: list[Clause] = []
    for lineno, line, parts in _lines(text):
        if parts[0][0] == "p":
            if num_vars is not None:
                raise ParseError("duplicate p line", lineno)
            try:
                if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                    raise ValueError
                num_vars, declared = int(parts[2]), int(parts[3])
                if num_vars < 0 or declared < 0:
                    raise ValueError
            except ValueError:
                raise ParseError(f"bad header {line.strip()!r}", lineno) from None
            continue
        if num_vars is None:
            raise ParseError("clause before p line", lineno)
        try:
            lits = tuple(map(lit, parts))
        except ValueError:
            raise ParseError(f"bad clause line {line.strip()!r}", lineno) from None
        if lits[-1:] != (0,):
            raise ParseError("clause line missing trailing 0", lineno)
        lits = lits[:-1]
        if 0 in lits:
            raise ParseError("literal 0 inside clause", lineno)
        clauses.append(lits)
    if num_vars is None:
        raise ParseError("no p line")
    if declared != len(clauses):
        raise ParseError(f"declared {declared} clauses, found {len(clauses)}")
    try:
        return Cnf(num_vars=num_vars, clauses=clauses)
    except GraphError as e:
        raise ParseError(str(e)) from None
