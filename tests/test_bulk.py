"""FieldOps against Field's scalar arithmetic, and the shared elimination.

Prime and extension fields run through the same log/antilog and digit-sum
tables, so every FieldOps method is compared with the Field method it
vectorises for both kinds: exhaustively, as full column x row tables, for
small primes and the orders with a built-in modulus, and on samples for
GF(257) and GF(65521), the primes with uint16 codes, for orders above 1024
with an explicit modulus, and for the orders at which a table's type must
widen. bulk.echelon, one strategy for every field, is checked through its
two users: LinearCode's basis rows against the greedy one-row-at-a-time
selection, and Space.span_basis against the literal span.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cutcodes import LinearCode, ParseError, Space, field_from_order, parse_generator_matrix
from cutcodes.bulk import FieldOps, echelon, ops_for

from helpers import LARGE_MODULI, literal_independent_rows, literal_span_dim

EXHAUSTIVE_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]
SAMPLED_ORDERS = [257, 65521] + sorted(LARGE_MODULI)  # the primes take no modulus
# log and spread hold the sum of two entries in the narrowest unsigned type:
# log sums 4(q - 1) of 240 and 264, and 65520 and 65640; spread sums
# (2p - 1)^m - 1 of 252 and 260, and 78124 at 3^7 (in LARGE_MODULI). The
# samples hold (0, 0) and (q - 1, q - 1), the operands of the largest sums.
BOUNDARY_ORDERS = [61, 67, 16381, 16411, 127, 131]
BINARY = ("add", "sub", "mul")
SCALAR = ("add_scalar", "mul_scalar")
SCALAR_OF = {"add_scalar": "add", "mul_scalar": "mul"}


def _expected_dtype(q):
    return np.uint8 if q <= 256 else np.uint16


def _table(field, name, a, b):
    fn = getattr(field, name)
    return [[fn(int(x), int(y)) for y in b] for x in a]


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS)
def test_field_ops_match_field_exhaustively(q):
    field = field_from_order(q)
    ops = FieldOps(field)
    els = ops.asarray(np.arange(q))
    col, row = els[:, None], els[None, :]
    for name in BINARY:
        got = getattr(ops, name)(col, row)  # column x row broadcasting
        assert got.dtype == _expected_dtype(q)
        assert got.tolist() == _table(field, name, els, els), name
    for name in SCALAR:
        for lam in range(q):
            got = getattr(ops, name)(lam, els)
            assert got.dtype == _expected_dtype(q)
            assert got.tolist() == _table(field, SCALAR_OF[name], [lam], els)[0], (name, lam)
    got = ops.neg(els)
    assert got.dtype == _expected_dtype(q)
    assert got.tolist() == [field.neg(a) for a in range(q)]


@pytest.mark.parametrize("q", SAMPLED_ORDERS + BOUNDARY_ORDERS)
def test_field_ops_match_field_on_samples_past_the_old_dense_limit(q):
    field = field_from_order(q, LARGE_MODULI.get(q))
    ops = ops_for(field)
    for name, value in vars(ops).items():
        if isinstance(value, np.ndarray):
            assert value.dtype != np.intp, name
    rng = np.random.RandomState(q)
    # zero operands on both sides, then random pairs
    a = ops.asarray(np.concatenate([[0, 0, 1, q - 1], rng.randint(0, q, 300)]))
    b = ops.asarray(np.concatenate([[0, 5, 0, q - 1], rng.randint(0, q, 300)]))
    for name in BINARY:
        got = getattr(ops, name)(a, b)
        assert got.dtype == _expected_dtype(q)
        want = [getattr(field, name)(int(x), int(y)) for x, y in zip(a, b)]
        assert got.tolist() == want, name
        small = getattr(ops, name)(a[:12, None], b[None, :12])
        assert small.tolist() == _table(field, name, a[:12], b[:12]), name
    for name in SCALAR:
        for lam in (0, 1, 2, q - 1, int(rng.randint(0, q))):
            got = getattr(ops, name)(lam, b)
            assert got.dtype == _expected_dtype(q)
            assert got.tolist() == _table(field, SCALAR_OF[name], [lam], b)[0], (name, lam)
    assert ops.neg(a).tolist() == [field.neg(int(x)) for x in a]


@pytest.mark.parametrize("q", [3, 4, 5, 9, 257, 2**11])
def test_python_int_operands(q):
    field = field_from_order(q, LARGE_MODULI.get(q))
    ops = ops_for(field)
    els = ops.asarray(np.arange(min(q, 40)))
    for lam in (0, 1, q - 1):
        assert ops.add(els, lam).tolist() == [field.add(int(x), lam) for x in els]
        assert ops.mul(els, lam).tolist() == [field.mul(int(x), lam) for x in els]
        assert ops.sub(els, lam).tolist() == [field.sub(int(x), lam) for x in els]


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS + sorted(LARGE_MODULI) + [65521])
def test_tables_stay_about_q_entries(q):
    field = field_from_order(q, LARGE_MODULI.get(q))
    ops = ops_for(field)
    cap = max(4 * q, (2 * field.p - 1) ** field.m)
    for value in vars(ops).values():
        if isinstance(value, np.ndarray):
            assert value.size <= cap


def test_echelon_of_nothing_is_empty():
    ops = ops_for(field_from_order(9))
    assert echelon(ops, np.zeros((0, 5), dtype=np.int64)) == []
    assert echelon(ops, np.zeros((3, 0), dtype=np.int64)) == []
    assert echelon(ops, np.zeros((3, 4), dtype=np.int64)) == []


# prime (uint16 codes at 257), characteristic 2 and odd extension fields
BASIS_ORDERS = [2, 3, 5, 257, 4, 8, 9, 25]


@st.composite
def raw_rows(draw):
    """Generator rows over GF(q) mixing fresh, zero, repeated and dependent rows."""
    q = draw(st.sampled_from(BASIS_ORDERS))
    field = field_from_order(q)
    ops = ops_for(field)
    length = draw(st.integers(1, 9))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combo"] if rows else ["fresh", "zero"]))
        if kind == "fresh":
            row = ops.asarray(rng.randint(0, q, length))
        elif kind == "zero":
            row = np.zeros(length, dtype=ops.dtype)
        elif kind == "repeat":
            row = rows[rng.randint(len(rows))].copy()
        else:
            row = np.zeros(length, dtype=ops.dtype)
            for earlier in rows:
                row = ops.add(row, ops.mul_scalar(int(rng.randint(q)), earlier))
        rows.append(row)
    return field, np.array(rows)


@settings(max_examples=150)
@given(raw_rows())
def test_basis_rows_equal_the_greedy_selection(case):
    field, rows = case
    code = LinearCode(field, rows)
    assert code.basis_indices == literal_independent_rows(field, rows)
    assert code.dim == len(code.basis_indices)


@settings(max_examples=80)
@given(raw_rows())
def test_span_basis_spans_the_points(case):
    field, rows = case
    n = rows.shape[1]
    # point encodings are int64: GF(257)^8 and GF(257)^9 do not fit them
    assume(field.q**n < 2**63)
    space = Space(field, n)
    points = [tuple(int(x) for x in row) for row in rows]
    basis = space.span_basis(space.encode_block(rows.astype(np.int64)))
    assert len(basis) == literal_span_dim(space, points)
    # every point lies in the span of the basis, which is in echelon form
    assert literal_span_dim(space, [tuple(r) for r in basis] + points) == len(basis)
    for row in basis:
        lead = np.flatnonzero(row)[0]
        assert row[lead] == 1
    assert len({int(np.flatnonzero(r)[0]) for r in basis}) == len(basis)


def test_generator_matrix_rank_mismatch_still_refused():
    # over GF(9), 3 * 1 = 3 and 3 * 3 = 2: the second row is 3 times the first
    with pytest.raises(ParseError, match="rank 1, header claims 2"):
        parse_generator_matrix("9 2 2 raw\n1 3\n3 2\n")
    with pytest.raises(ParseError, match="rank 1, header claims 3"):
        parse_generator_matrix("5 3 3 raw\n1 2 3\n0 0 0\n2 4 1\n")
    assert parse_generator_matrix("9 2 2 raw\n1 3\n3 1\n").dim == 2
