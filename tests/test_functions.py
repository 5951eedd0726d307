import itertools
from unittest import mock

import numpy as np
import pytest

import cutcodes.functions
from cutcodes import (
    DenseTable,
    EvenOrderWarning,
    MonomialBlocks,
    NotScalarCompatible,
    ParseError,
    PolynomialSpec,
    PolyZeroIndicator,
    Space,
    WeightStaircase,
    field_from_order,
    format_function_table,
    is_linear,
    linear_form,
    load_function_table,
    load_polynomial,
    monomial_blocks_zero_count,
    monomial_blocks_zero_count_recursive,
    parse_function_table,
    parse_polynomial,
    save_function_table,
    scalar_compatible,
    zero_set,
)
from helpers import ZERO_STAR, literal_scalar_degree, naive_block_value, naive_zero_star_count


@pytest.mark.parametrize("q,r,k", sorted(ZERO_STAR))
def test_zero_star_frozen_values(q, r, k):
    f = MonomialBlocks(field_from_order(q), r, k)
    assert len(zero_set(f, "affine_star")) == ZERO_STAR[(q, r, k)]
    assert len(zero_set(f, "affine")) == ZERO_STAR[(q, r, k)] + 1


@pytest.mark.parametrize("q,r,k", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (4, 2, 2)])
def test_zero_count_against_naive_scan(q, r, k):
    field = field_from_order(q)
    assert naive_zero_star_count(field, r, k) + 1 == monomial_blocks_zero_count(q, r, k)


def test_zero_count_closed_form_equals_recursion():
    for q in [2, 3, 4, 5, 7, 9]:
        for r in [1, 2, 3, 4]:
            for k in [1, 2, 3]:
                assert monomial_blocks_zero_count(
                    q, r, k
                ) == monomial_blocks_zero_count_recursive(q, r, k)


def test_zero_count_input_validation():
    with pytest.raises(ValueError):
        monomial_blocks_zero_count(2, 0, 1)
    with pytest.raises(ValueError):
        monomial_blocks_zero_count_recursive(1, 2, 2)


def test_block_function_values():
    field = field_from_order(3)
    f = MonomialBlocks(field, 2, 2)
    # f(x) = x1 x2 + x3 x4
    assert f.evaluate((1, 2, 0, 0)) == 2
    assert f.evaluate((1, 1, 2, 2)) == field.add(1, field.mul(2, 2))
    assert f.evaluate((0, 0, 0, 0)) == 0
    # table agrees with pointwise evaluation and with the naive oracle
    tab = f.table()
    for e, coords in enumerate(itertools.product(range(3), repeat=4)):
        enc = f.space.encode(coords)
        assert int(tab[enc]) == f.evaluate(coords) == naive_block_value(field, 2, 2, coords)


def test_block_function_validation():
    field = field_from_order(2)
    with pytest.raises(ValueError):
        MonomialBlocks(field, 1, 2)
    with pytest.raises(ValueError):
        MonomialBlocks(field, 2, 0)


def test_scalar_degree_block_family():
    assert MonomialBlocks(field_from_order(2), 2, 2).scalar_degree() == 0
    assert MonomialBlocks(field_from_order(3), 2, 2).scalar_degree() == 0
    assert MonomialBlocks(field_from_order(3), 3, 2).scalar_degree() == 1
    assert MonomialBlocks(field_from_order(5), 2, 2).scalar_degree() == 2
    assert MonomialBlocks(field_from_order(4), 3, 1).scalar_degree() == 0


def test_scalar_degree_matches_exhaustive_scan():
    # declared degrees satisfy f(lam x) = lam^d f(x) pointwise
    cases = [
        MonomialBlocks(field_from_order(3), 2, 2),
        MonomialBlocks(field_from_order(5), 2, 2),
        MonomialBlocks(field_from_order(4), 2, 2),
    ]
    for f in cases:
        field = f.field
        d = f.scalar_degree()
        for lam in range(2, field.q):
            for coords in itertools.product(range(field.q), repeat=f.n):
                scaled = tuple(field.mul(lam, c) for c in coords)
                assert f.evaluate(scaled) == field.mul(
                    field.pow(lam, d), f.evaluate(coords)
                )


def _homogeneous_table(field, n, d, rng, density):
    """A table with f(lam x) = lam^d f(x): random values on the canonical
    representatives (zero with probability 1 - density), spread by scaling."""
    space = Space(field, n)
    tab = np.zeros(space.size, dtype=np.int64)
    for e in space.projective_point_encodings():
        x = space.decode(int(e))
        value = int(rng.integers(1, field.q)) if rng.random() < density else 0
        for lam in range(1, field.q):
            tab[space.encode([field.mul(lam, c) for c in x])] = field.mul(field.pow(lam, d), value)
    return tab


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_scalar_degree_equals_the_exhaustive_scan(q):
    # zero, random, sparse and homogeneous tables of every degree: the one
    # generator check must agree with every (lam, d) pair compared in full
    field = field_from_order(q)
    rng = np.random.default_rng(q)
    n = 2 if q > 9 else 3
    size = q**n
    tables = [np.zeros(size, dtype=np.int64), rng.integers(0, q, size)]
    sparse = np.zeros(size, dtype=np.int64)
    sparse[rng.integers(1, size, 3)] = rng.integers(1, q, 3)
    tables.append(sparse)
    for d in range(q - 1):
        for density in (0.2, 1.0):
            tab = _homogeneous_table(field, n, d, rng, density)
            tables.append(tab)
            broken = tab.copy()
            broken[int(rng.integers(1, size))] = int(rng.integers(0, q))
            tables.append(broken)
    for tab in tables:
        f = DenseTable(field, n, tab)
        assert f.scalar_degree() == literal_scalar_degree(f)


def test_staircase_basics():
    field = field_from_order(3)
    f = WeightStaircase(field, 5, 2, [1, 2])
    assert f.evaluate((0, 0, 0, 0, 0)) == 0
    assert f.evaluate((0, 2, 0, 0, 0)) == 1
    assert f.evaluate((1, 2, 0, 0, 0)) == 2
    assert f.evaluate((1, 2, 1, 0, 0)) == 0
    assert f.scalar_degree() == 0
    assert scalar_compatible(f) == 0
    tab = f.table()
    for coords in itertools.product(range(3), repeat=5):
        assert int(tab[f.space.encode(coords)]) == f.evaluate(coords)


def test_staircase_validation_and_warning():
    field = field_from_order(3)
    with pytest.raises(ValueError):
        WeightStaircase(field, 3, 2, [1, 2])
    with pytest.raises(ValueError):
        WeightStaircase(field, 5, 4, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        WeightStaircase(field, 5, 2, [1, 0])
    with pytest.raises(ValueError):
        WeightStaircase(field, 5, 2, [1])
    with pytest.warns(EvenOrderWarning):
        WeightStaircase(field_from_order(4), 5, 2, [1, 2])


def test_polynomial_exponent_reduction():
    field = field_from_order(3)
    # x^3 acts like x on GF(3)
    p1 = PolynomialSpec(field, 1, [(1, (3,))])
    p2 = PolynomialSpec(field, 1, [(1, (1,))])
    assert p1.monomials == p2.monomials
    for x in range(3):
        assert p1.evaluate((x,)) == x
    # merging: x + 2x = 0
    p3 = PolynomialSpec(field, 1, [(1, (1,)), (2, (1,))])
    assert p3.monomials == ()
    assert p3.evaluate((2,)) == 0


def test_polynomial_evaluation_against_naive():
    field = field_from_order(4)
    # f = 2*x1^2*x2 + 3*x2^3 + 1
    poly = PolynomialSpec(field, 2, [(2, (2, 1)), (3, (0, 3)), (1, (0, 0))])
    for coords in itertools.product(range(4), repeat=2):
        x1, x2 = coords
        expected = field.add(
            field.add(
                field.mul(2, field.mul(field.pow(x1, 2), x2)),
                field.mul(3, field.pow(x2, 3)),
            ),
            1,
        )
        assert poly.evaluate(coords) == expected
        assert int(poly.table()[poly.space.encode(coords)]) == expected


def test_polynomial_homogeneity():
    field = field_from_order(3)
    assert PolynomialSpec(field, 2, [(1, (1, 1))]).is_homogeneous
    assert PolynomialSpec(field, 2, [(1, (2, 0)), (2, (0, 2))]).is_homogeneous
    assert not PolynomialSpec(field, 2, [(1, (1, 1)), (1, (1, 0))]).is_homogeneous
    # constants are homogeneous (degree zero only)
    assert PolynomialSpec(field, 2, [(2, (0, 0))]).is_homogeneous


def test_poly_zero_indicator_homogeneous():
    field = field_from_order(3)
    poly = PolynomialSpec(field, 2, [(1, (1, 1))])  # x1 x2
    ind = PolyZeroIndicator(poly)
    assert ind.evaluate((0, 2)) == 1
    assert ind.evaluate((1, 2)) == 0
    assert ind.scalar_degree() == 0
    zs = zero_set(ind, "affine_star")
    # indicator vanishes exactly where the polynomial does not
    assert len(zs) == 8 - 4  # 8 nonzero points, 4 with both coords nonzero


def test_poly_zero_indicator_rejects_non_cone():
    field = field_from_order(3)
    # x1 + 1 vanishes only at x1 = 2: not closed under scaling
    poly = PolynomialSpec(field, 2, [(1, (1, 0)), (1, (0, 0))])
    with pytest.raises(NotScalarCompatible):
        PolyZeroIndicator(poly)


def test_poly_zero_indicator_accepts_inhomogeneous_cone():
    field = field_from_order(2)
    # over GF(2), x1^2 reduces to x1; x1^2 + x1 has a cone zero set (all of it)
    poly = PolynomialSpec(field, 2, [(1, (2, 0)), (1, (1, 0))])
    ind = PolyZeroIndicator(poly)
    assert all(ind.evaluate(c) == 1 for c in itertools.product(range(2), repeat=2))


def test_dense_table_and_scalar_scan():
    field = field_from_order(3)
    space_size = 9
    # build a table that is scalar-invariant: value depends on the ray
    base = MonomialBlocks(field, 2, 1)
    values = [base.evaluate(((e % 3), (e // 3))) for e in range(space_size)]
    f = DenseTable(field, 2, values)
    # lam^2 = 1 for every nonzero lam in GF(3), so the least degree is 0
    assert scalar_compatible(f) == 0
    # a table with no scaling law
    g = DenseTable(field, 2, [0, 1, 0, 0, 0, 0, 0, 0, 0])
    assert scalar_compatible(g) is None


def test_linear_form_detection():
    field = field_from_order(3)
    lin = PolynomialSpec(field, 2, [(2, (1, 0)), (1, (0, 1))])
    assert is_linear(lin)
    assert linear_form(lin) == (2, 1)
    nonlin = MonomialBlocks(field, 2, 1)
    assert not is_linear(nonlin)
    # value at origin is ignored: indicator of the origin complement
    g = DenseTable(field_from_order(2), 2, [1, 0, 0, 0])
    assert is_linear(g)
    assert linear_form(g) == (0, 0)


def test_function_table_io_roundtrip(tmp_path):
    field = field_from_order(4)
    f = MonomialBlocks(field, 2, 1)
    path = tmp_path / "table.txt"
    save_function_table(path, f)
    g = load_function_table(path)
    assert g.field == field
    assert np.array_equal(g.table(), f.table())
    # zero rows are omitted from the file
    text = path.read_text()
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) - 1 == int((f.table() != 0).sum())


def test_function_table_parse_errors():
    with pytest.raises(ParseError):
        parse_function_table("2 2\n1 0\n")  # missing value column
    with pytest.raises(ParseError):
        parse_function_table("2 2\n1 0 1\n1 0 1\n")  # duplicate point
    with pytest.raises(ParseError):
        parse_function_table("2 2\n1 0 3\n")  # value out of range
    with pytest.raises(ParseError):
        parse_function_table("")


def test_polynomial_io_roundtrip(tmp_path):
    field = field_from_order(3)
    text = "3 2\n1 1 1\n2 2 0\n"
    poly = parse_polynomial(text)
    assert poly.field == field
    assert poly.evaluate((1, 1)) == field.add(1, 2)
    path = tmp_path / "poly.txt"
    path.write_text(text)
    poly2 = load_polynomial(path)
    assert poly2.monomials == poly.monomials


def test_polynomial_parse_errors():
    with pytest.raises(ParseError):
        parse_polynomial("3 2\n1 1\n")  # wrong column count
    with pytest.raises(ParseError):
        parse_polynomial("3 2\n4 1 1\n")  # coefficient out of range
    with pytest.raises(ParseError):
        parse_polynomial("")


def test_zero_set_modes():
    field = field_from_order(3)
    f = MonomialBlocks(field, 2, 2)
    star = zero_set(f, "affine_star")
    aff = zero_set(f, "affine")
    proj = zero_set(f, "projective")
    assert aff.has_origin() and not star.has_origin()
    assert len(aff) == len(star) + 1
    # projective reps expand to the full star set under scaling
    assert (len(star)) == len(proj) * (field.q - 1)
    with pytest.raises(ValueError):
        zero_set(f, "bogus")


def test_zero_set_projective_needs_compatibility():
    g = DenseTable(field_from_order(3), 2, [0, 1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(NotScalarCompatible):
        zero_set(g, "projective")


def test_non_integral_table_values_are_refused():
    gf3 = field_from_order(3)
    with pytest.raises(ValueError, match="table value 1.7 is not an integer"):
        DenseTable(gf3, 1, [0, 1.7, 2.2])
    for values in ([0.0, 1.0, 2.0], np.array([0, 1, 2], dtype=np.uint8)):
        assert DenseTable(gf3, 1, values).table().tolist() == [0, 1, 2]


def test_scalar_degree_is_scanned_once_per_function():
    field = field_from_order(5)
    functions = [
        DenseTable(field, 2, MonomialBlocks(field, 2, 1).table()),
        PolynomialSpec(field, 2, [(1, (2, 0)), (3, (1, 1))]),
    ]
    real = cutcodes.functions._scalar_degree
    with mock.patch.object(cutcodes.functions, "_scalar_degree", side_effect=real) as scan:
        for f in functions:
            assert [f.scalar_degree() for _ in range(3)] == [2, 2, 2]
    assert scan.call_count == len(functions)
