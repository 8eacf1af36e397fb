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
    "check_trace_text",
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
    """
    return _verify(f, map(_event_record, trace.events))


def check_trace_text(f: Cnf, text: str) -> ProofMetrics:
    """``check_refutation(f, parse_trace(text))`` in one pass, building no
    events.  As there, a malformed line is reported ahead of a verification
    failure at an earlier event."""
    records = _records(text)
    try:
        return _verify(f, records)
    except VerificationError as e:
        err = e
    for _ in records:  # raises the ParseError of a later line, if any
        pass
    raise err


def _event_record(ev: Event):
    if isinstance(ev, Axiom):
        return "a", tuple(ev.clause)
    if isinstance(ev, Infer):
        return "r", (ev.left, ev.right, ev.pivot, *ev.clause)
    return ("e", (ev.id,)) if isinstance(ev, Erase) else (None, ev)


def _verify(f: Cnf, records) -> ProofMetrics:
    """The checker, over ``(kind, ints)`` records.  Clauses are compared in
    canonical form: as given first, since traces from ``parse_trace`` and
    the compiler are canonical already, and canonicalised only on a miss.
    The axiom set holds the canonical clauses of ``f``, the only ones a
    canonical clause can equal."""
    axioms = {cl for cl in f.clauses if canon_clause(cl) == cl}
    live: dict[int, Clause] = {}
    next_id = 1
    width = space = 0
    for idx, (kind, ints) in enumerate(records):
        if kind == "a":
            cl = ints
            if cl not in axioms:
                cl = canon_clause(cl)
                if cl not in axioms:
                    raise VerificationError(f"axiom {cl} not in formula", index=idx)
        elif kind == "r":
            try:
                cl = resolve(live[ints[0]], live[ints[1]], ints[2])
            except KeyError as e:  # the left premise is looked up first
                raise VerificationError(f"premise {e.args[0]} not live", index=idx) from None
            except (BadPivot, TautologicalResolvent) as e:
                raise VerificationError(str(e), index=idx) from None
            if cl != ints[3:]:
                stated = canon_clause(ints[3:])
                if cl != stated:
                    raise VerificationError(
                        f"stated clause {stated} differs from resolvent {cl}", index=idx
                    )
        elif kind == "e":
            if ints[0] not in live:
                raise VerificationError(f"erased id {ints[0]} not live", index=idx)
            del live[ints[0]]
            continue  # an erasure cannot raise the peak
        else:  # pragma: no cover - event union is closed
            raise VerificationError(f"unknown event {ints!r}", index=idx)
        live[next_id] = cl
        next_id += 1
        if len(cl) > width:
            width = len(cl)
        if len(live) > space:
            space = len(live)
    if () not in live.values():
        raise VerificationError("final live set lacks the empty clause")
    return ProofMetrics(length=next_id - 1, width=width, clause_space=space)


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


_EVENTS = {
    "a": lambda ints: Axiom(canon_clause(ints)),
    "r": lambda ints: Infer(ints[0], ints[1], ints[2], canon_clause(ints[3:])),
    "e": lambda ints: Erase(ints[0]),
}


def parse_trace(text: str) -> ResolutionTrace:
    return ResolutionTrace(tuple(_EVENTS[kind](ints) for kind, ints in _records(text)))


def _records(text: str):
    """Yield ``(kind, ints)`` per event line: the line type and its integers
    without the trailing 0.  Raises ParseError at the first malformed line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "c":
            continue
        kind = parts[0]
        if kind == "e" and len(parts) != 2:
            raise ParseError("bad erase line", lineno)
        if kind not in _EVENTS:
            raise ParseError(f"unknown line type {kind!r}", lineno)
        try:
            ints = tuple(map(int, parts[1:]))
        except ValueError:
            raise ParseError(f"bad integer in {raw.strip()!r}", lineno) from None
        if kind == "e":
            yield kind, ints
        elif kind == "a" and ints[-1:] != (0,):
            raise ParseError("axiom line missing trailing 0", lineno)
        elif kind == "r" and (len(ints) < 4 or ints[-1] != 0):
            raise ParseError("bad inference line", lineno)
        else:
            yield kind, ints[:-1]
