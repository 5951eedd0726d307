"""The four input file formats: frozen error texts, a differential test
against the literal per-line parsers, and byte-identical writers.

Every case runs under both paths of the token reader: the numpy digit pass
(_VECTOR_TOKENS = 0) and the default, where files this small go through
int() one token at a time.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cutcodes.geometry as geometry
from cutcodes import (
    BudgetExceeded,
    DenseTable,
    LinearCode,
    MonomialBlocks,
    ParseError,
    PointSet,
    PolynomialSpec,
    Space,
    build_affine_code,
    build_projective_code,
    field_from_order,
    format_function_table,
    format_generator_matrix,
    parse_function_table,
    parse_generator_matrix,
    parse_point_set,
    parse_polynomial,
)
from cutcodes.cli import main
from cutcodes.geometry import format_point_set

from helpers import (
    literal_data_lines,
    affine_points,
    literal_format_function_table,
    literal_format_generator_matrix,
    literal_format_point_set,
    literal_parse_function_table,
    literal_parse_generator_matrix,
    literal_parse_point_set,
    literal_parse_polynomial,
)

VECTOR_TOKENS = [0, None]  # numpy digits / the default


def _raises(monkeypatch, vector_tokens, parse, text):
    if vector_tokens is not None:
        monkeypatch.setattr(geometry, "_VECTOR_TOKENS", vector_tokens)
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value)


# messages frozen from the line-by-line parsers; comment and blank lines
# count toward the line numbers
@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n1 0 1\n# note\n\n1 2\n0 1 1\n", "line 5: expected 2 coordinates and a value"),
        ("3 2\n1 0 1\n1 0 1 2\n", "line 3: expected 2 coordinates and a value"),
        ("3 2\n1 0 1\n1 x 2\n", "line 3: non-integer entry"),
        ("3 2\n\u0662 0 1\n1\u00a01 1\n0 \u00b2 1\n", "line 4: non-integer entry"),
        ("3 2\n1 0 1.5\n", "line 2: non-integer entry"),
        ("3 2\n1 0 3\n", "line 2: value 3 outside 0..2"),
        ("3 2\n1 0 -1\n", "line 2: value -1 outside 0..2"),
        ("3 1\n0 99999999999999999999\n", "line 2: value 99999999999999999999 outside 0..2"),
        ("3 2\n1 0 1\n5 7 1\n", "line 3: coordinate 7 outside 0..2"),
        ("3 2\n+1 0 1\n0 -1 1\n", "line 3: coordinate -1 outside 0..2"),
        ("3 1\n2 1\n12345678901234567 1\n", "line 3: coordinate 12345678901234567 outside 0..2"),
        # on one line the value is checked before the coordinates
        ("3 2\n3 0 5\n", "line 2: value 5 outside 0..2"),
        ("3 2\n1 0 1\n2 2 1\n+1 0  2 # same point\n", "line 4: duplicate point (1, 0)"),
        # of two repeated points, the one whose repeat comes first
        ("3 2\n1 0 1\n0 1 1\n0 1 2\n1 0 0\n", "line 4: duplicate point (0, 1)"),
        # two errors in one file: the first line wins, whatever the kinds
        ("3 2\n1 0 1\n1 0 2\n0 1 x\n", "line 3: duplicate point (1, 0)"),
        ("3 2\n0 1 1\n2 3 1\n1\n", "line 3: coordinate 3 outside 0..2"),
        ("3 2\n0 1 1\n1\n2 3 1\n", "line 3: expected 2 coordinates and a value"),
        ("3 2\n1 1 1\n1 y 1\n1 1 1\n", "line 3: non-integer entry"),
        ("3 2\n1 1 5\n1 1 1\n", "line 2: value 5 outside 0..2"),
        ("3 2\n1 0 3\n5 0 1\n", "line 2: value 3 outside 0..2"),
        # tokens of different widths
        ("16 2\n15 3 1\n3 15 2\n2 16 3\n", "line 4: coordinate 16 outside 0..15"),
        ("16 2\n15 3 1\n3 15 2\n15 3 16\n", "line 4: value 16 outside 0..15"),
        ("", "empty function-table file"),
        ("# only a comment\n", "empty function-table file"),
        ("3\n", "line 1: header needs at least 'q n'"),
        ("3 0\n", "line 1: n must be >= 1"),
        ("6 2\n1 0 1\n", "line 1: order 6 is not a prime power"),
    ],
)
@pytest.mark.parametrize("vector_tokens", VECTOR_TOKENS)
def test_function_table_parse_error_messages(monkeypatch, text, message, vector_tokens):
    assert _raises(monkeypatch, vector_tokens, parse_function_table, text) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n1 1 1\n# note\n\n1 1\n", "line 5: expected a coefficient and 2 exponents"),
        ("3 2\n1 1 1\n1 1 1 1\n", "line 3: expected a coefficient and 2 exponents"),
        ("3 2\n1 1 1\n1 a 1\n", "line 3: non-integer entry"),
        ("3 2\n\u0662 0 1\n1\u00a01 1\n1 \u00b2 1\n", "line 4: non-integer entry"),
        ("3 2\n1 0.5 1\n", "line 2: non-integer entry"),
        ("3 2\n4 1 1\n", "line 2: coefficient 4 outside 0..2"),
        ("3 2\n-1 1 1\n", "line 2: coefficient -1 outside 0..2"),
        ("3 1\n99999999999999999999 1\n", "line 2: coefficient 99999999999999999999 outside 0..2"),
        ("3 2\n1 1 -2\n", "line 2: negative exponent"),
        ("3 2\n1 -1 -2\n", "line 2: negative exponent"),
        # on one line the coefficient is checked before the exponents
        ("3 2\n5 -1 0\n", "line 2: coefficient 5 outside 0..2"),
        # two errors in one file: the first line wins, whatever the kinds
        ("3 2\n1 -1 0\n7 0 0\n", "line 2: negative exponent"),
        ("3 2\n7 0 0\n1 x 0\n", "line 2: coefficient 7 outside 0..2"),
        ("3 2\n1 0 0\n1 0 0\n2 x\n", "line 4: expected a coefficient and 2 exponents"),
        ("3 2\n1 0 0\n2 0\n1 -1 0\n", "line 3: expected a coefficient and 2 exponents"),
        ("16 2\n15 3 1\n3 15 2\n16 2 3\n", "line 4: coefficient 16 outside 0..15"),
        ("", "empty polynomial file"),
        ("x 2\n", "line 1: non-integer in header"),
    ],
)
@pytest.mark.parametrize("vector_tokens", VECTOR_TOKENS)
def test_polynomial_parse_error_messages(monkeypatch, text, message, vector_tokens):
    assert _raises(monkeypatch, vector_tokens, parse_polynomial, text) == message


# row faults name the file line; the line-by-line parser numbered rows by
# data line ("row 2" for the first row, whatever preceded it)
@pytest.mark.parametrize(
    "text, message",
    [
        ("2 3 2 raw\n1 0 1\n1 0\n", "line 3: expected 3 entries"),
        ("# c\n2 3 2 raw\n1 0 1\n\n1 0 1 1\n", "line 5: expected 3 entries"),
        ("2 3 1 raw\n1 x 1\n", "line 2: non-integer entry"),
        ("# c\n\n2 3 2 raw\n1 0 1\n1 \u00b2 1\n", "line 5: non-integer entry"),
        ("2 3 1 raw\n1 0 1.0\n", "line 2: non-integer entry"),
        ("# c\n2 3 1 raw\n1 0 2\n", "line 3: entry outside 0..1"),
        ("2 3 1 raw\n1 -1 0\n", "line 2: entry outside 0..1"),
        ("5 2 1 raw\n99999999999999999999 1\n", "line 2: entry outside 0..4"),
        # two errors in one file: the first line wins, whatever the kinds
        ("2 3 2 raw\n1 0 2\n1 0\n", "line 2: entry outside 0..1"),
        ("2 3 2 raw\n1 0\n1 0 5\n", "line 2: expected 3 entries"),
        ("2 3 2 raw  # header\n1 0 1\n\n# a comment\n1 x 5\n", "line 5: non-integer entry"),
        ("16 3 1 raw\n15 3 16\n", "line 2: entry outside 0..15"),
        ("2 3 2 raw\n1 0 1\n", "expected 2 rows, found 1"),
        ("2 3 1 raw\n1 0 1\n0 1 1\n", "expected 1 rows, found 2"),
        ("2 3 2 raw\n1 0 1\n1 0 1\n", "stored rows have rank 1, header claims 2"),
        ("2 3 0 raw\n", "header dim 0 is below 1"),
        ("2 3\n1 0 1\n", "header needs 'q length dim mode'"),
        ("2 3 1 bogus\n1 0 1\n", "unknown mode 'bogus'"),
        ("6 3 1 raw\n1 0 1\n", "order 6 is not a prime power"),
        ("", "empty generator-matrix file"),
    ],
)
@pytest.mark.parametrize("vector_tokens", VECTOR_TOKENS)
def test_generator_matrix_parse_error_messages(monkeypatch, text, message, vector_tokens):
    assert _raises(monkeypatch, vector_tokens, parse_generator_matrix, text) == message


@pytest.mark.parametrize("vector_tokens", VECTOR_TOKENS)
def test_generator_matrix_errors_name_the_file_line(monkeypatch, vector_tokens):
    # the fault is on file line 3, the first row after a comment and the header
    message = _raises(monkeypatch, vector_tokens, parse_generator_matrix, "# c\n2 3 1 raw\n1 0 2\n")
    assert message == "line 3: entry outside 0..1"


@pytest.mark.parametrize("vector_tokens", VECTOR_TOKENS)
def test_tokens_of_any_spelling_parse_alike(monkeypatch, vector_tokens):
    if vector_tokens is not None:
        monkeypatch.setattr(geometry, "_VECTOR_TOKENS", vector_tokens)
    table = parse_function_table("3 2\n\u0662 0 1\n+1\u00a01 00002  # c\n")
    assert table.table().tolist() == [0, 0, 1, 0, 2, 0, 0, 0, 0]
    poly = parse_polynomial("3 2\n2 100000000000000000000 0\n1 0 00\n")
    # x^e with e > 0 reduces to x^(((e - 1) mod 2) + 1)
    assert poly.monomials == ((1, (0, 0)), (2, (2, 0)))
    code = parse_generator_matrix("2 3 2 raw\n\u0661 0 1\n1\u00a00 0\n")
    assert code.rows.tolist() == [[1, 0, 1], [1, 0, 0]]


@pytest.mark.parametrize(
    "argv, text",
    [
        (("blocking", "--k", "1", "--in"), "2 64\n" + " ".join(["1"] * 64) + "\n"),
        (("analyze", "--table"), "2 64\n" + " ".join(["1"] * 65) + "\n"),
    ],
    ids=["point-set", "function-table"],
)
def test_oversized_header_is_refused(tmp_path, capsys, argv, text):
    # q^n = 2^64 entries are past what numpy can allocate; the refusal comes
    # before any memory is touched
    path = tmp_path / "big.txt"
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert "over budget" in err and str(2**64) in err
    parse = parse_point_set if argv[0] == "blocking" else parse_function_table
    with pytest.raises(BudgetExceeded, match=f"q\\^n = {2**64}"):
        parse(text)


# differential test: random files, valid or with one fault, read alike by the
# package and the literal per-line parsers

FIELDS = (2, 3, 4, 5, 7, 9)
BAD_TOKENS = ("x", "1.5", "\u00b2", "-1", "99999999999999999999", "", "+1", "\u0661", "00001")


def _body(kind, q, rng):
    """(header, body rows as token lists, the object's writer text or None)."""
    field = field_from_order(q)
    if kind == "matrix":
        dim = int(rng.integers(1, 4))
        mode = str(rng.choice(["raw", "affine", "projective"]))
        space = Space(field, max(dim - 1, 1))
        length = {
            "raw": int(rng.integers(1, 12)),
            "affine": space.size - 1,
            "projective": (space.size - 1) // (q - 1),
        }[mode]
        rows = rng.integers(0, q, (dim, length))
        return f"{q} {length} {dim} {mode}", [[str(x) for x in r] for r in rows.tolist()]
    n = int(rng.integers(1, 4))
    space = Space(field, n)
    if kind == "poly":
        terms = rng.integers(0, 2 * q, (int(rng.integers(0, 8)), n + 1))
        terms[:, 0] %= q
        return f"{q} {n}", [[str(x) for x in t] for t in terms.tolist()]
    size = int(rng.integers(0, min(space.size, 200) + 1))
    enc = rng.permutation(space.size)[:size]
    coords = space.decode_block(enc).tolist()
    if kind == "points":
        return f"{q} {n}", [[str(x) for x in c] for c in coords]
    values = rng.integers(0, q, size)
    return f"{q} {n}", [[str(x) for x in c] + [str(v)] for c, v in zip(coords, values.tolist())]


def _corrupt(rows, q, rng):
    """One fault in one row: a bad or out-of-range token (most often), a
    token too few or too many, or a repeated or dropped row."""
    rows = [list(r) for r in rows]
    if not rows:
        return [["1"]]
    i = int(rng.integers(len(rows)))
    how = int(rng.integers(7))
    if how < 3 and rows[i]:
        bad = BAD_TOKENS + (str(q), str(q + 1), str(-q))
        rows[i][int(rng.integers(len(rows[i])))] = str(rng.choice(bad))
    elif how == 3 and rows[i]:
        del rows[i][int(rng.integers(len(rows[i])))]
    elif how == 4:
        rows[i].append(str(rng.integers(0, 3)))
    elif how == 5:
        rows.insert(int(rng.integers(len(rows) + 1)), list(rows[i]))
    else:
        del rows[i]
    return rows


def _text(header, rows, rng):
    """The file, with comments and blank lines mixed in."""
    lines = [header]
    for r in rows:
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "# note", "   "])))
        lines.append(" ".join(r) + ("  # c" if rng.random() < 0.1 else ""))
    return "\n".join(lines) + "\n"


def _same(kind, got, want):
    if kind == "points":
        return got[0] == want[0] and got[1] == want[1]
    if kind == "table":
        return got.field == want.field and got.n == want.n and np.array_equal(got.table(), want.table())
    if kind == "poly":
        return got.field == want.field and got.n == want.n and got.monomials == want.monomials
    return (
        got.field == want.field
        and np.array_equal(got.rows, want.rows)
        and (got.mode, got.ambient_n, got.dim) == (want.mode, want.ambient_n, want.dim)
        and np.array_equal(got.columns, want.columns)
    )


PARSERS = {
    "points": (parse_point_set, literal_parse_point_set),
    "table": (parse_function_table, literal_parse_function_table),
    "poly": (parse_polynomial, literal_parse_polynomial),
    "matrix": (parse_generator_matrix, literal_parse_generator_matrix),
}


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, str(exc)


def _file_lines(text, message):
    """The literal matrix parser's "row N" as the file line of that row."""
    match = re.match(r"row (\d+): ", message)
    if match is None:
        return message
    lineno = literal_data_lines(text)[int(match.group(1)) - 1][0]
    return f"line {lineno}: " + message[match.end():]


@pytest.mark.filterwarnings("ignore::cutcodes.errors.DegenerateDimensionWarning")
@settings(max_examples=300)
@given(
    st.sampled_from(sorted(PARSERS)),
    st.sampled_from(FIELDS),
    st.booleans(),
    st.sampled_from(VECTOR_TOKENS),
    st.integers(0, 2**32 - 1),
)
def test_parsers_match_the_literal_parsers(kind, q, corrupt, vector_tokens, seed):
    rng = np.random.default_rng(seed)
    header, rows = _body(kind, q, rng)
    if corrupt:
        rows = _corrupt(rows, q, rng)
    text = _text(header, rows, rng)
    parse, literal = PARSERS[kind]
    want, want_error = _outcome(literal, text)
    if vector_tokens is None:
        vector_tokens = geometry._VECTOR_TOKENS
    with mock.patch.object(geometry, "_VECTOR_TOKENS", vector_tokens):
        got, got_error = _outcome(parse, text)
    if want_error is not None:
        assert got_error == _file_lines(text, want_error)
    else:
        assert got_error is None and _same(kind, got, want)


WRITERS = {
    "points": (format_point_set, literal_format_point_set, lambda text: parse_point_set(text)[1]),
    "table": (format_function_table, literal_format_function_table, parse_function_table),
    "matrix": (format_generator_matrix, literal_format_generator_matrix, parse_generator_matrix),
}


def _objects(kind, q, rng):
    """A random object of each writable kind; extension fields included."""
    field = field_from_order(q)
    n = int(rng.integers(1, 4))
    space = Space(field, n)
    if kind == "points":
        return PointSet(space, rng.random(space.size) < rng.random())
    if kind == "table":
        return DenseTable(field, n, rng.integers(0, q, space.size) * (rng.random(space.size) < 0.5))
    rows = rng.integers(0, q, (n, int(rng.integers(n, 3 * n + 3))))
    rows[0, 0] = 1  # a file holds a code of dimension at least 1
    return LinearCode(field, rows)


@settings(max_examples=150)
@given(st.sampled_from(sorted(WRITERS)), st.sampled_from(FIELDS + (8, 16)), st.integers(0, 2**32 - 1))
def test_writers_match_the_literal_writers_and_round_trip(kind, q, seed):
    fmt, literal, parse = WRITERS[kind]
    obj = _objects(kind, q, np.random.default_rng(seed))
    text = fmt(obj)
    assert text == literal(obj)
    assert fmt(parse(text)) == text


def test_structured_matrices_and_small_sets_round_trip():
    f = MonomialBlocks(field_from_order(4), 2, 1)
    for code in (build_affine_code(f), build_projective_code(f)):
        text = format_generator_matrix(code)
        assert text == literal_format_generator_matrix(code)
        assert format_generator_matrix(parse_generator_matrix(text)) == text
    space = Space(field_from_order(3), 2)
    for pset in (PointSet(space, np.zeros(9, dtype=bool)), PointSet.from_points(space, affine_points(space))):
        text = format_point_set(pset)
        assert text == literal_format_point_set(pset)
        assert parse_point_set(text)[1] == pset
    poly = PolynomialSpec(field_from_order(9), 2, [(5, (1, 12)), (1, (0, 0))])
    assert parse_polynomial("9 2 1 0 1\n5 1 12\n1 0 0\n").monomials == poly.monomials
