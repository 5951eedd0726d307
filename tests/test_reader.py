"""The row reader shared by the four file formats (geometry._Lines and
_Rows) against a literal per-line reader (helpers.literal_rows).

Texts mix comments, blank lines, every line break str.splitlines knows
(CRLF included), Unicode spaces, signs, underscores, Unicode digits, tokens
past int64 and wrong token counts; the reader must give the same header
tokens, data line numbers and rows, or the same ParseError text, on both
code-point paths (bytes for ASCII text, 32-bit code points for any text).
Its hard-coded break and space sets are checked against Python's over all
of Unicode.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

import cutcodes.geometry as geometry
from cutcodes import ParseError

from helpers import literal_data_lines, literal_rows

UNICODE = range(0x110000)


def test_break_and_space_sets_are_pythons():
    spaces = {c for c in UNICODE if len(f"a{chr(c)}b".split()) == 2}
    breaks = {c for c in UNICODE if len(f"a{chr(c)}b".splitlines()) == 2}
    assert spaces == {c for c in UNICODE if chr(c).isspace()}  # what strip() removes too
    assert sorted(map(ord, geometry._SPACES)) == sorted(spaces)
    assert sorted(map(ord, geometry._BREAKS)) == sorted(breaks)
    assert "\r\n".splitlines() == [""]  # one break


BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "  ", "\x1f", "\xa0", "\u1680", "\u2003", "\u202f", "\u3000", " \t "]
ODD_TOKENS = [
    "+1", "-2", "+0", "-0", "1_000", "_1", "1_", "1__0", "0x1f", "1.5", "x", "+", "-",
    "\u0662", "\u0663\u0664", "\uff11\uff12", "\u00b2", "00007", "1#2", "#",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "9" * 19, "1" * 30,
]
TOKENS = st.one_of(
    st.integers(0, 99).map(str),
    st.integers(0, 10**25).map(str),
    st.sampled_from(ODD_TOKENS),
)


@st.composite
def _texts(draw, width):
    """A header line, then lines of mostly `width` tokens; comments, blank
    lines, leading and trailing spaces and every kind of break mixed in."""
    lines = [draw(st.sampled_from(["3 2", "2 3 1 raw", "# c", "", "5"]))]
    for _ in range(draw(st.integers(0, 12))):
        count = draw(st.one_of(st.just(width), st.integers(0, width + 2)))
        seps = [draw(st.sampled_from(SPACES)) for _ in range(count + 1)]
        tokens = [draw(TOKENS) for _ in range(count)]
        line = draw(st.sampled_from(["", " "])) + "".join(t + sep for t, sep in zip(tokens, seps))
        if draw(st.integers(0, 5)) == 0:
            line += "#" + draw(st.text(max_size=4))
        lines.append(line)
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


def _outcome(read, text, width):
    try:
        return read(text, width), None
    except ParseError as exc:
        return None, str(exc)


def _package_rows(text, width):
    lines = geometry._Lines(text)
    linenos = lines.linenos.tolist()
    assert linenos == [lineno for lineno, _ in literal_data_lines(text)]
    if not len(lines):
        return None, []
    rows = geometry._Rows(lines, width, "wrong count", "non-integer").done()
    return lines.tokens(0), rows.tolist()


def _check(text, width, wide):
    want = _outcome(lambda t, w: literal_rows(t, w, "wrong count", "non-integer"), text, width)
    kinds = geometry._wide_char_kinds if wide else geometry._char_kinds
    with mock.patch.object(geometry, "_char_kinds", kinds):
        got = _outcome(_package_rows, text, width)
    assert got == want


@settings(max_examples=250)
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(st.just(w), _texts(w))), st.booleans())
def test_reader_matches_the_literal_reader(case, wide):
    width, text = case
    _check(text, width, wide)


@settings(max_examples=200)
@given(st.text(max_size=40), st.integers(1, 3), st.booleans())
def test_reader_matches_the_literal_reader_on_any_text(text, width, wide):
    _check(text, width, wide)
