"""The line grammar every text format shares: blank lines are skipped, and a
line whose first token starts with ``c`` is a comment, as in DIMACS."""

import tracemalloc

import pytest

from pebble_bench import ParseError, parse_blob_moves, parse_moves, parse_trace, read_dimacs, read_graph
from pebble_bench.errors import _CHUNK, _lines

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


# --- the chunked line reader ----------------------------------------------------

# Every character and pair that str.splitlines ends a line at, by name.
SEPARATORS = {
    "LF": "\n",
    "CR": "\r",
    "CRLF": "\r\n",
    "VT": "\v",
    "FF": "\f",
    "FS": "\x1c",
    "GS": "\x1d",
    "RS": "\x1e",
    "NEL": "\x85",
    "LS": "\u2028",
    "PS": "\u2029",
}


def reference_lines(text):
    """``_lines`` as one ``splitlines`` of the whole text."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if parts and parts[0][0] != "c":
            yield lineno, line, parts


def chunked_text():
    """Three chunks' worth of long lines, with short lines, comments and
    blank lines, three characters each, around each multiple of _CHUNK,
    where the chunks are cut.  A multiple of _CHUNK falls inside a line."""
    chars = list("w" * (3 * _CHUNK + 64))
    units = ["ab\n", "c \n", "  \n", "\n\n\n"]
    for k in (1, 2, 3):
        for j, at in enumerate(range(k * _CHUNK - 25, k * _CHUNK + 24, 3)):
            chars[at : at + 3] = units[j % 4]
    return chars


@pytest.mark.parametrize("sep", SEPARATORS.values(), ids=SEPARATORS.keys())
def test_lines_match_one_splitlines_across_chunk_cuts(sep):
    """Read a chunk at a time, the lines and their numbers are those of one
    splitlines of the whole text, with the separator at, just before or
    just after each cut: a "\\r\\n" pair that a cut at a multiple of _CHUNK
    would split among them.  So are a text ending in the separator, one
    with no "\\n" in it, and the empty text."""
    base = chunked_text()
    for off in range(-8, 9):
        chars = base[:]
        for k in (1, 2):
            chars[k * _CHUNK + off : k * _CHUNK + off + len(sep)] = sep
        text = "".join(chars)
        assert list(_lines(text)) == list(reference_lines(text)), off
    text = "".join(base) + sep
    assert list(_lines(text)) == list(reference_lines(text))
    text = ("x 1" + sep.replace("\n", "\r")) * _CHUNK
    assert "\n" not in text and list(_lines(text)) == list(reference_lines(text))
    assert list(_lines("")) == []


def test_malformed_line_after_a_cut_names_its_line():
    """A malformed line in the lines around the first chunk cut reports its
    line in the file, blank and comment lines counted."""
    lines = [line for _ in range(_CHUNK // 8) for line in ("e 1", "c x", "")]
    at = "\r\n".join(lines).count("\n", 0, _CHUNK)  # the 0-based line at offset _CHUNK
    for i in range(at - 4, at + 5):
        text = "\r\n".join(lines[:i] + ["e x"] + lines[i + 1 :])
        with pytest.raises(ParseError) as exc:
            parse_trace(text)
        assert str(exc.value) == f"line {i + 1}: bad integer in 'e x'"


def test_lines_hold_one_chunk():
    """Reading a 4 MiB text a chunk at a time holds one chunk's lines: the
    peak was 0.27 MiB, against 13.4 MiB for a string per line of the whole
    text.  The 1 MiB bound leaves over three times the measured peak."""
    line = "a 1 -2 3 -4 5 -6 7 -8 0\n"
    text = line * ((4 << 20) // len(line) + 1)
    tracemalloc.start()
    try:
        for _ in _lines(text):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
