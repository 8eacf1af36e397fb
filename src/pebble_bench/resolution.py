"""Resolution steps, refutation traces, and the checker.

A trace is a sequence of events, each a named tuple: ``Axiom`` downloads a
clause of the formula, ``Infer`` resolves two live clauses, and ``Erase``
frees a live clause.  Axiom and inference events get sequential 1-based ids.
The compilers yield these events, ``_trace_lines`` writes any iterable of
them as text a line at a time, and ``format_trace`` joins a trace's lines.
One lazy reader, ``_read``, holds the text grammar and serves two callers:
``parse_trace`` builds events from it with canonical clauses, and the one
checker, ``check_trace_text``, verifies each event as it is read, with the
clauses as written.  The checker stops at the first malformed line or
failed event and measures length (axioms + inferences), width (largest
clause appearing), and clause space (peak number of simultaneously live
clauses).  ``check_refutation`` checks an event trace by writing it as text
first.  No live clause is tautological, so the checker resolves on sets and
accepts a stated clause of the resolvent's length and set.
"""

from __future__ import annotations

from operator import neg
from typing import NamedTuple

from .cnf import Clause, Cnf, _Frozen, canon_clause
from .errors import BadPivot, ParseError, TautologicalResolvent, VerificationError, _lines, _Memo

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


class Axiom(NamedTuple):
    clause: Clause


class Infer(NamedTuple):
    left: int
    right: int
    pivot: int
    clause: Clause


class Erase(NamedTuple):
    id: int


Event = Axiom | Infer | Erase


class ResolutionTrace(_Frozen):
    __slots__ = ("events",)

    def __init__(self, events: tuple[Event, ...]):
        object.__setattr__(self, "events", events)

    def __len__(self):
        return len(self.events)


class ProofMetrics(NamedTuple):
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
    The trace is written with ``format_trace`` and checked as text, so
    there is one checker, ``check_trace_text``.
    """
    return check_trace_text(f, format_trace(trace))


def check_trace_text(f: Cnf, text: str) -> ProofMetrics:
    """The checker: it verifies each event as ``_read`` yields it and keeps
    no trace.  The reader is lazy, so the first fault in line order is the
    one raised: ParseError with the line number of a malformed line, or
    VerificationError with the index of a failed event.  On a text that
    ``parse_trace`` accepts, it is ``check_refutation(f, parse_trace(text))``.

    No live clause is tautological: an axiom is a clause of ``f``, which
    ``Cnf`` refuses if tautological, and a resolvent goes live only after
    the tautology check.  So a good pivot occurs with one sign in each
    premise, and the resolvent is the set ``(C1 | C2) - {p, -p}``.  A
    stated clause of the same length and set is that set in some order; a
    length and superset test would let a repeated literal stand in for a
    missing one.  Canonical forms are built only on a miss, where a
    repeated literal may still agree; a failed pivot or tautology check is
    reported by ``resolve``.
    """
    axioms = set(f.clauses)
    live: dict[int, Clause] = {}
    next_id = 1
    width = space = 0
    for idx, (kind, val) in enumerate(_read(text)):
        if kind == "e":
            if val not in live:
                raise VerificationError(f"erased id {val} not live", index=idx)
            del live[val]  # an erasure cannot raise the peak
            continue
        if kind == "a":
            cl = val
            if cl not in axioms:
                cl = canon_clause(cl)
                if cl not in axioms:
                    raise VerificationError(f"axiom {cl} not in formula", index=idx)
        else:
            left, right, pivot = val[0], val[1], val[2]
            try:
                c1 = live[left]
                c2 = live[right]
            except KeyError as e:  # the left premise is looked up first
                raise VerificationError(f"premise {e.args[0]} not live", index=idx) from None
            lits = {*c1, *c2}
            lits.discard(pivot)
            lits.discard(-pivot)
            good = pivot > 0 and pivot in c1 and -pivot in c2
            if not good or not lits.isdisjoint(map(neg, lits)):
                try:
                    resolve(c1, c2, pivot)  # raises, naming the failed check
                except (BadPivot, TautologicalResolvent) as e:
                    raise VerificationError(str(e), index=idx) from None
            cl = val[3:]
            if len(cl) != len(lits) or lits != set(cl):
                stated, cl = canon_clause(cl), tuple(sorted(lits, key=abs))
                if cl != stated:
                    raise VerificationError(
                        f"stated clause {stated} differs from resolvent {cl}", index=idx
                    )
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


def _trace_lines(events):
    """The text of ``events``, any iterable of them, a line at a time, one
    line per event, each with its line feed.  The ``compile`` command
    passes the compiler's generator and writes the lines as they come, so
    it holds neither the events nor the text.  A literal recurs in many
    clauses, so its text is computed once per trace; ids are unique, and
    are written directly."""
    text = _Memo(str).__getitem__
    for ev in events:
        kind = type(ev)
        if kind is Erase:
            yield f"e {ev.id}\n"
            continue
        lits = " ".join(map(text, ev.clause))
        lits = lits + " 0\n" if lits else "0\n"
        if kind is Axiom:
            yield "a " + lits
        else:
            yield f"r {ev.left} {ev.right} {ev.pivot} {lits}"


def format_trace(trace: ResolutionTrace) -> str:
    """The trace as text: the lines of ``_trace_lines`` joined, so an empty
    trace is the empty text and any other ends with a line feed."""
    return "".join(_trace_lines(trace.events))


def parse_trace(text: str) -> ResolutionTrace:
    """The events ``_read`` yields, each clause made canonical.  Events are
    built by ``tuple.__new__``, the named tuples' own constructor without
    the Python-level ``__new__`` in front of it."""
    new = tuple.__new__
    events = []
    for kind, val in _read(text):
        if kind == "e":
            events.append(new(Erase, (val,)))
        elif kind == "a":
            events.append(new(Axiom, (canon_clause(val),)))
        else:
            events.append(new(Infer, (val[0], val[1], val[2], canon_clause(val[3:]))))
    return ResolutionTrace(tuple(events))


def _read(text: str):
    """The one reader of the trace grammar, for ``check_trace_text`` and
    ``parse_trace``.  It yields the event of each line as it reads the
    line: ``("e", id)``, ``("a", literals)`` or
    ``("r", (left, right, pivot, *literals))``, the literals as written
    and the trailing 0 dropped, from the lines ``_lines`` yields.  It
    raises ParseError at the first malformed line, after yielding every
    event before it.  A literal recurs in many clauses, an id does not, so
    only literals are read through a memo, one per trace; erase lines,
    half of a compiled trace, are tested first."""
    lit = _Memo(int).__getitem__
    for lineno, line, parts in _lines(text):
        kind = parts[0]
        if kind == "e":
            if len(parts) != 2:
                raise ParseError("bad erase line", lineno)
            try:
                cid = int(parts[1])
            except ValueError:
                raise ParseError(f"bad integer in {line.strip()!r}", lineno) from None
            yield kind, cid
            continue
        if kind != "a" and kind != "r":
            raise ParseError(f"unknown line type {kind!r}", lineno)
        try:
            if kind == "a":
                ints = tuple(map(lit, parts[1:]))
            else:
                ints = (*map(int, parts[1:3]), *map(lit, parts[3:]))
        except ValueError:
            raise ParseError(f"bad integer in {line.strip()!r}", lineno) from None
        if kind == "a":
            if not ints or ints[-1]:
                raise ParseError("axiom line missing trailing 0", lineno)
        elif len(ints) < 4 or ints[-1]:
            raise ParseError("bad inference line", lineno)
        yield kind, ints[:-1]
