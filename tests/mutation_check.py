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
SEARCH = "pebble_bench/search.py"
PEBBLING = "pebble_bench/pebbling.py"
SIMULATION = "pebble_bench/simulation.py"
ERRORS = "pebble_bench/errors.py"
CNF = "pebble_bench/cnf.py"
BLOB = "pebble_bench/blob.py"
RES = "tests/test_resolution.py::"
SRCH = "tests/test_search.py::"
PEB = "tests/test_pebbling.py::"
SIM = "tests/test_simulation.py::"
FMT = "tests/test_formats.py::"
CNFT = "tests/test_cnf.py::"
BLB = "tests/test_blob.py::"

# (file under src/, exact old text, new text, tests that must fail)
MUTANTS = [
    # The proof checker's verdict on each event.
    (  # an erase is checked against the ids issued, not the ids live
        CHECK,
        """            if val not in live:
                raise VerificationError(f"erased id {val} not live", index=idx)
            del live[val]""",
        """            if not 0 < val < next_id:
                raise VerificationError(f"erased id {val} not live", index=idx)
            live.pop(val, None)""",
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
    # The trace reader, which both the checker and parse_trace read through.
    (  # an axiom line without its trailing 0 is accepted
        CHECK,
        """            if not ints or ints[-1]:
                raise ParseError("axiom line missing trailing 0", lineno)""",
        """            if not ints:
                raise ParseError("axiom line missing trailing 0", lineno)""",
        [
            RES + "test_parse_trace_errors",
            RES + "test_malformed_line_refused_alike_by_both_callers",
            RES + "test_check_trace_text_matches_parse_then_check",
        ],
    ),
    (  # an erase line with an extra token is accepted
        CHECK,
        "if len(parts) != 2:",
        "if len(parts) < 2:",
        [
            RES + "test_malformed_line_refused_alike_by_both_callers",
            RES + "test_check_trace_text_matches_parse_then_check",
        ],
    ),
    (  # an inference line with fewer than four integers is accepted
        CHECK,
        "elif len(ints) < 4 or ints[-1]:",
        "elif len(ints) < 3 or ints[-1]:",
        [RES + "test_parse_trace_errors", RES + "test_malformed_line_refused_alike_by_both_callers"],
    ),
    # The line reader of every text format.
    (  # only a line whose first token is "c" itself is a comment
        ERRORS,
        """if parts and parts[0][0] != "c":""",
        """if parts and parts[0] != "c":""",
        [
            FMT + "test_blank_and_comment_lines_skipped[read_graph]",
            FMT + "test_blank_and_comment_lines_skipped[parse_trace]",
            RES + "test_malformed_line_refused_alike_by_both_callers",
            RES + "test_check_trace_text_matches_parse_then_check",
        ],
    ),
    (  # each chunk is cut before its "\n", not after it, so the next starts with an empty line
        ERRORS,
        "stop = len(text) if stop < 0 else stop + 1",
        "stop = len(text) if stop < 0 else stop",
        [
            FMT + "test_lines_match_one_splitlines_across_chunk_cuts[LF]",
            FMT + "test_lines_match_one_splitlines_across_chunk_cuts[CRLF]",
            FMT + "test_malformed_line_after_a_cut_names_its_line",
        ],
    ),
    # The DIMACS reader and the formula's clause rules.
    (  # a 0 inside a clause line is left to the range check, which names no line
        CNF,
        """        if 0 in lits:
            raise ParseError("literal 0 inside clause", lineno)
""",
        "",
        [CNFT + "test_dimacs_refuses_a_zero_inside_a_clause"],
    ),
    (  # every list clause takes the fast path, repeated variables and all
        CNF,
        "plain = type(cl) in (tuple, list) and len({*map(abs, cl)}) == len(cl)",
        "plain = type(cl) in (tuple, list)",
        [CNFT + "test_cnf_rejects_bad_clauses", CNFT + "test_dimacs_names_clause_as_written"],
    ),
    (  # a target gets one unit clause, not one per copy
        CNF,
        """            for i in range(1, d + 1):
                clauses.append((-var_id(t, i, d),))""",
        """            for i in range(1, 2):
                clauses.append((-var_id(t, i, d),))""",
        [CNFT + "test_clause_count_formula"],
    ),
    # The blob validator's cost and its duplicate rule.
    (  # every white is charged, not only those below the bottom vertex
        BLOB,
        "return blob | (whites & below[(blob & -blob).bit_length() - 1])",
        "return blob | whites",
        [BLB + "test_chargeable_only_below_bottom"],
    ),
    (  # a subconfiguration already live may be created again
        BLOB,
        """            if (blob, whites) in held:
                problem = "duplicate subconfiguration "
            elif labelled_only""",
        """            if labelled_only""",
        [BLB + "test_duplicate_and_unknown_ids"],
    ),
    # The exact searches' pruning rules, lower bounds, witness and budget sweep.
    (  # the BW floor one too high
        SEARCH,
        "return 1 + max(len(g.preds[v]) for v in range(g.n) if need >> v & 1)",
        "return 2 + max(len(g.preds[v]) for v in range(g.n) if need >> v & 1)",
        [SRCH + "test_single_vertex", SRCH + "test_bw_price_floor_pinned"],
    ),
    (  # the BW floor taken over every vertex, not the targets' ancestors
        SEARCH,
        "return 1 + max(len(g.preds[v]) for v in range(g.n) if need >> v & 1)",
        "return 1 + max(len(g.preds[v]) for v in range(g.n))",
        [SRCH + "test_pruned_frontier_matches_naive_sweep[bw]", SRCH + "test_bw_price_floor_pinned"],
    ),
    (  # no white placement: a step places every missing predecessor black
        SEARCH,
        "nstate |= low << n if gap else low",
        "nstate |= low",
        [SRCH + "test_search_matches_reference_every_budget[bw]", SRCH + "test_successors_match_vertex_scan[bw]"],
    ),
    (  # a step places every missing predecessor white, even one whose own are on
        SEARCH,
        "nstate |= low << n if gap else low",
        "nstate |= low << n",
        [SRCH + "test_successors_match_vertex_scan[bw]", SRCH + "test_frontier_work_pinned[bw]"],
    ),
    (  # a BW step may place one pebble more than the board has room for
        SEARCH,
        "if nd - d > free:",
        "if nd - d > free + 1:",
        [SRCH + "test_search_matches_reference_every_budget[bw]", SRCH + "test_successors_match_vertex_scan[bw]"],
    ),
    (  # the witness writes a BW step's removal before its placements
        SEARCH,
        """after = full if game == "bw" else""",
        """after = 0 if game == "bw" else""",
        [SRCH + "test_bw_price_witness_validates", SRCH + "test_search_matches_reference_every_budget[bw]"],
    ),
    (  # the black floor one too high
        SEARCH,
        "return max(least[t] for t in g.targets)",
        "return 1 + max(least[t] for t in g.targets)",
        [SRCH + "test_single_vertex", SRCH + "test_chain_prices", SRCH + "test_price_floor_pinned"],
    ),
    (  # black rule 2 off: a ready last target is not placed at once
        SEARCH,
        "if room and not mask & low:  # rule 2",
        "if False:  # rule 2",
        [
            SRCH + "test_witness_places_a_target_before_dropping_its_predecessors",
            SRCH + "test_frontier_work_pinned[black]",
        ],
    ),
    (  # a target's step may evict any pebble outside the new N(T)
        SEARCH,
        "stay[v] = pm[v] | outside & (outside - 1)",
        "stay[v] = pm[v]",
        [SRCH + "test_black_successors_hold_no_state_twice", SRCH + "test_successors_match_vertex_scan[black]"],
    ),
    (  # black rule 1 off: vertices outside N(T) are placed too
        SEARCH,
        "rest = reach & need & off",
        "rest = reach & off",
        [
            SRCH + "test_frontier_work_pinned[black]",
            SRCH + "test_successors_match_vertex_scan[black]",
            SRCH + "test_rules_shrink_a_many_sink_search",
        ],
    ),
    (  # the witness no longer reads a dropped target from the visited bits
        SEARCH,
        "placed = (nb | nw) & ~(pb | pw) or (state ^ prev) >> at",
        "placed = (nb | nw) & ~(pb | pw)",
        [SRCH + "test_price_with_witness", SRCH + "test_witness_places_a_target_before_dropping_its_predecessors"],
    ),
    (  # plain blob fattening adds only the bottom's ancestors, as strict does
        SEARCH,
        """            if strict:
                room &= below[low.bit_length() - 1]""",
        """            room &= below[low.bit_length() - 1]""",
        [SRCH + "test_blob_goal_on_generation_matches_reference[False]", SRCH + "test_blob_price_stats"],
    ),
    (  # the budget sweep forgets the states stored at its earlier budgets
        SEARCH,
        "yield s, *_search(g, game, s, parents, stats, stats.generated - start)",
        "yield s, *_search(g, game, s, parents, stats, 0)",
        [SRCH + "test_size_bound_guard"],
    ),
    # The pebbling validator's move rules.
    (  # a white removal needs no predecessor on the board
        PEBBLING,
        """            if pred_mask[v] & ~(black | white):
                raise IllegalMove(f"predecessor of {v} unpebbled", index=i)
            white ^= bit""",
        """            white ^= bit""",
        [PEB + "test_white_placement_free_removal_guarded", PEB + "test_validate_matches_set_based_reference"],
    ),
    (  # space counts the board before a placement, one short
        PEBBLING,
        "space = max(space, board.bit_count() + 1)",
        "space = max(space, board.bit_count())",
        [PEB + "test_space_counts_both_colours", PEB + "test_validate_black_chain"],
    ),
    (  # a white removal is allowed in the black game
        PEBBLING,
        """elif kind != "PB" and not white_ok:""",
        """elif kind == "PW" and not white_ok:""",
        [PEB + "test_white_moves_forbidden_in_black_game", PEB + "test_validate_matches_set_based_reference"],
    ),
    (  # the highest missing target is named, not the lowest
        PEBBLING,
        "target {(missing & -missing).bit_length() - 1} never pebbled",
        "target {missing.bit_length() - 1} never pebbled",
        [PEB + "test_validate_matches_set_based_reference"],
    ),
    # Induce by prime implicates, and explain by the closure layers needed.
    (  # an implicate whose positive and negative vertices overlap is kept
        SIMULATION,
        "if b & w or (b | w) & ~full:",
        "if (b | w) & ~full:",
        [SIM + "test_induce_matches_reference"],
    ),
    (  # an all-negative implicate yields no pair
        SIMULATION,
        """        else:
            pairs.update((x, w) for x in _bits(full & ~w))""",
        "",
        [SIM + "test_induce_matches_reference"],
    ),
    (  # pairs that are not minimal are kept
        SIMULATION,
        "if not any(not (c & ~b or x & ~w) for c, x in minimal):",
        "if True:",
        [SIM + "test_induce_matches_reference"],
    ),
    (  # the explain closure stops one layer early: the last layer's finds are dropped
        SIMULATION,
        """        frontier = nxt
""",
        """        frontier = nxt
        if need <= parent.keys():
            for m in nxt:
                del parent[m]
            break
""",
        [SIM + "test_explain_matches_reference", SIM + "test_starred_replays_pinned"],
    ),
    (  # explain writes each addition as it decides it, so a refusal comes late
        SIMULATION,
        """        plan.append((s, pair, base))
    for s, pair, base in plan:
        _realize""",
        """        _realize""",
        [SIM + "test_explain_refusal_writes_nothing"],
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
