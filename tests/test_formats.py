"""The line grammar every text format shares: blank lines are skipped, and a
line whose first token starts with ``c`` is a comment, as in DIMACS."""

import pytest

from pebble_bench import ParseError, parse_blob_moves, parse_moves, parse_trace, read_dimacs, read_graph

# Lines each reader must skip: empty, whitespace only, a bare "c", a comment
# with text, one whose first token only starts with "c", an indented one.
SKIPPED = ["", "   ", "\t", "c", "c text 1 0", "cat 1 2", "  c indented"]

# (reader, the lines of a valid text, a malformed line, its message)
READERS = [
    (read_graph, ["p dag 3", "e 0 2", "e 1 2", "t 2"], " e 0 x ", "expected integer, got 'x'"),
    (read_dimacs, ["p cnf 2 2", "1 -2 0", "2 0"], " 1 x 0 ", "bad clause line '1 x 0'"),
    (parse_moves, ["PB 0", "PB 1", "RB 0"], " PB x ", "bad vertex in 'PB x'"),
    (parse_blob_moves, ["I 0", "I 1", "M 0 1 0", "F 2 1|0"], " M 1 ", "bad move line 'M 1'"),
    (parse_trace, ["a 1 0", "a -1 0", "r 1 2 1 0", "e 1"], " a x 0 ", "bad integer in 'a x 0'"),
]


@pytest.mark.parametrize("reader, lines, bad, message", READERS, ids=[r[0].__name__ for r in READERS])
def test_blank_and_comment_lines_skipped(reader, lines, bad, message):
    """With the skipped lines before every line, CRLF endings and no final
    newline, each reader returns what it returns without them, and a
    malformed line after them names its line in the file, skipped lines
    counted, and quotes it stripped."""
    want = reader("\n".join(lines) + "\n")
    noisy = [line for real in lines for line in (*SKIPPED, real)] + SKIPPED
    assert reader("\r\n".join(noisy)) == want
    with pytest.raises(ParseError) as exc:
        reader("\r\n".join([*noisy, bad]))
    assert exc.value.line == len(noisy) + 1
    assert str(exc.value) == f"line {len(noisy) + 1}: {message}"
