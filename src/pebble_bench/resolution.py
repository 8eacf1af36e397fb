"""Resolution steps, configurational refutation traces, and the checker.

A trace is a sequence of events: axiom download, inference, and erasure.
Axiom and inference events get sequential 1-based ids; erasure frees a live
clause.  The checker is a single pass that verifies every event and measures
length (axioms + inferences), width (largest clause appearing), and clause
space (peak number of simultaneously live clauses).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from .cnf import Clause, Cnf, canon_clause
from .errors import BadPivot, ParseError, TautologicalResolvent, VerificationError

__all__ = [
    "Axiom",
    "Infer",
    "Erase",
    "ResolutionTrace",
    "ProofMetrics",
    "resolve",
    "check_refutation",
    "format_trace",
    "parse_trace",
]


def resolve(c1: Clause, c2: Clause, pivot: int) -> Clause:
    """Resolve c1 (containing pivot) with c2 (containing -pivot).

    ``pivot`` is a positive variable number.  Raises BadPivot if the pivot
    does not occur with the required signs, TautologicalResolvent if the
    result would contain a complementary pair.
    """
    if pivot <= 0:
        raise BadPivot(f"pivot must be a positive variable, got {pivot}")
    if pivot not in c1:
        raise BadPivot(f"pivot {pivot} not positive in first clause")
    if -pivot not in c2:
        raise BadPivot(f"pivot {pivot} not negative in second clause")
    # c1 without pivot, joined with c2 without -pivot.
    lits = {*c1, *c2}
    if pivot not in c2:
        lits.discard(pivot)
    if -pivot not in c1:
        lits.discard(-pivot)
    if not lits.isdisjoint(map(neg, lits)):
        raise TautologicalResolvent(f"resolvent on {pivot} is tautological")
    # With no complementary pair, the variable alone orders the literals.
    return tuple(sorted(lits, key=abs))


@dataclass(frozen=True)
class Axiom:
    clause: Clause


@dataclass(frozen=True)
class Infer:
    left: int
    right: int
    pivot: int
    clause: Clause


@dataclass(frozen=True)
class Erase:
    id: int


Event = Axiom | Infer | Erase


@dataclass(frozen=True)
class ResolutionTrace:
    events: tuple[Event, ...]

    def __len__(self):
        return len(self.events)


@dataclass(frozen=True)
class ProofMetrics:
    length: int
    width: int
    clause_space: int

    def report(self) -> dict:
        return {
            "length": self.length,
            "width": self.width,
            "clause_space": self.clause_space,
        }


def check_refutation(f: Cnf, trace: ResolutionTrace) -> ProofMetrics:
    """Verify a refutation trace against a formula and measure it.

    Accepts iff every axiom clause occurs in the formula, every inference
    resolves two live clauses on the stated pivot into exactly the stated
    clause, erased ids are live, and the final live set contains the empty
    clause.  Raises VerificationError carrying the 0-based event index.

    Clauses are compared in canonical form.  Traces from ``parse_trace`` and
    the compiler are canonical already, so each axiom and stated clause is
    first compared as given and canonicalised only on a miss.  The axiom set
    holds the clauses of ``f`` that are canonical: only those can equal a
    canonical clause.
    """
    axioms = {cl for cl in f.clauses if canon_clause(cl) == cl}
    live: dict[int, Clause] = {}
    next_id = 1
    length = 0
    width = 0
    space = 0
    for idx, ev in enumerate(trace.events):
        if isinstance(ev, Axiom):
            cl = ev.clause
            if not (type(cl) is tuple and cl in axioms):  # lists do not hash
                cl = canon_clause(cl)
                if cl not in axioms:
                    raise VerificationError(f"axiom {cl} not in formula", index=idx)
            live[next_id] = cl
            next_id += 1
            length += 1
            width = max(width, len(cl))
        elif isinstance(ev, Infer):
            for ref in (ev.left, ev.right):
                if ref not in live:
                    raise VerificationError(f"premise {ref} not live", index=idx)
            try:
                res = resolve(live[ev.left], live[ev.right], ev.pivot)
            except (BadPivot, TautologicalResolvent) as e:
                raise VerificationError(str(e), index=idx) from None
            if res != ev.clause:
                stated = canon_clause(ev.clause)
                if res != stated:
                    raise VerificationError(
                        f"stated clause {stated} differs from resolvent {res}", index=idx
                    )
            live[next_id] = res
            next_id += 1
            length += 1
            width = max(width, len(res))
        elif isinstance(ev, Erase):
            if ev.id not in live:
                raise VerificationError(f"erased id {ev.id} not live", index=idx)
            del live[ev.id]
        else:  # pragma: no cover - event union is closed
            raise VerificationError(f"unknown event {ev!r}", index=idx)
        space = max(space, len(live))
    if () not in live.values():
        raise VerificationError("final live set lacks the empty clause")
    return ProofMetrics(length=length, width=width, clause_space=space)


# --- text format ------------------------------------------------------------
#
#   a <lits> 0
#   r <id1> <id2> <pivot> <lits> 0
#   e <id>
#
# Ids are assigned sequentially (1-based) to a/r lines.


def format_trace(trace: ResolutionTrace) -> str:
    lines = []
    for ev in trace.events:
        if isinstance(ev, Axiom):
            lines.append("a " + " ".join(map(str, ev.clause + (0,))))
        elif isinstance(ev, Infer):
            lits = " ".join(map(str, ev.clause + (0,)))
            lines.append(f"r {ev.left} {ev.right} {ev.pivot} {lits}")
        else:
            lines.append(f"e {ev.id}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> ResolutionTrace:
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "a":
                lits = list(map(int, parts[1:]))
                if not lits or lits[-1] != 0:
                    raise ParseError("axiom line missing trailing 0", lineno)
                events.append(Axiom(canon_clause(lits[:-1])))
            elif parts[0] == "r":
                nums = list(map(int, parts[1:]))
                if len(nums) < 4 or nums[-1] != 0:
                    raise ParseError("bad inference line", lineno)
                left, right, pivot = nums[0], nums[1], nums[2]
                events.append(Infer(left, right, pivot, canon_clause(nums[3:-1])))
            elif parts[0] == "e":
                if len(parts) != 2:
                    raise ParseError("bad erase line", lineno)
                events.append(Erase(int(parts[1])))
            else:
                raise ParseError(f"unknown line type {parts[0]!r}", lineno)
        except ValueError:
            raise ParseError(f"bad integer in {line!r}", lineno) from None
    return ResolutionTrace(tuple(events))
