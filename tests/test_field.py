import itertools

import pytest

from cutcodes import (
    Field,
    NonPrimeCharacteristic,
    ReducibleModulus,
    UnsupportedOrder,
    ZeroInverse,
    field_from_order,
)
from helpers import LARGE_MODULI, literal_field_tables, naive_gf4_mul

EXHAUSTIVE_ORDERS = [2, 3, 4, 5, 7, 8, 9]
SAMPLED_ORDERS = [16, 25, 27]


def _axiom_check(field, triples):
    add, mul = field.add, field.mul
    for a, b, c in triples:
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a, _, _ in triples:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, field.neg(a)) == 0
        if a != 0:
            assert mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS)
def test_axioms_exhaustive(q):
    field = field_from_order(q)
    els = list(field.elements())
    assert els == list(range(q))
    _axiom_check(field, itertools.product(els, repeat=3))


@pytest.mark.parametrize("q", SAMPLED_ORDERS)
def test_axioms_sampled(q):
    import numpy as np

    field = field_from_order(q)
    rng = np.random.RandomState(7)
    triples = [tuple(int(t) for t in rng.randint(0, q, 3)) for _ in range(400)]
    _axiom_check(field, triples)


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS + SAMPLED_ORDERS)
def test_frobenius_fixes_everything(q):
    field = field_from_order(q)
    for a in field.elements():
        assert field.pow(a, q) == a


def test_gf4_against_naive_table():
    field = field_from_order(4)
    assert field.mul(2, 2) == 3
    for a in range(4):
        for b in range(4):
            assert field.mul(a, b) == naive_gf4_mul(a, b)


def test_gf9_squares():
    # x^2 = -1 under modulus x^2+1: code 3 is x, so 3*3 == 2 (i.e. -1 mod 3)
    field = field_from_order(9)
    assert field.mul(3, 3) == 2
    squares = {field.mul(a, a) for a in field.nonzero_elements()}
    assert len(squares) == 4  # (q-1)/2 distinct nonzero squares


def test_pow_edge_cases():
    field = field_from_order(7)
    assert field.pow(0, 0) == 1
    assert field.pow(0, 5) == 0
    assert field.pow(3, 0) == 1
    assert field.pow(3, -1) == field.inv(3)


def test_digits_roundtrip():
    field = field_from_order(27)
    for a in field.elements():
        digs = field.digits(a)
        assert len(digs) == 3
        assert all(0 <= d < 3 for d in digs)
        assert field.from_digits(digs) == a
    # constant term least significant
    assert field.digits(5) == (2, 1, 0)


def test_generator_has_full_order():
    for q in [4, 8, 9, 16, 25, 27]:
        field = field_from_order(q)
        g = field.generator
        seen = {1}
        x = 1
        for _ in range(q - 2):
            x = field.mul(x, g)
            seen.add(x)
        assert len(seen) == q - 1
        assert field.mul(x, g) == 1


def test_division():
    field = field_from_order(8)
    for a in field.elements():
        for b in field.nonzero_elements():
            assert field.mul(field.div(a, b), b) == a


def test_error_cases():
    with pytest.raises(NonPrimeCharacteristic):
        Field(4)
    with pytest.raises(NonPrimeCharacteristic):
        Field(1)
    with pytest.raises(UnsupportedOrder):
        field_from_order(6)
    with pytest.raises(UnsupportedOrder):
        field_from_order(12)
    with pytest.raises(ZeroInverse):
        field_from_order(5).inv(0)
    with pytest.raises(ZeroInverse):
        field_from_order(4).div(3, 0)
    # x^2 + 1 factors over GF(2); x^2 + x + 1 does not
    with pytest.raises(ReducibleModulus):
        Field(2, 2, modulus=(1, 0, 1))
    # wrong degree / not monic
    with pytest.raises(ReducibleModulus):
        Field(2, 2, modulus=(1, 1))
    with pytest.raises(ReducibleModulus):
        Field(3, 2, modulus=(1, 1, 2))


def test_custom_modulus_still_a_field():
    # x^2 + 2x + 2 is irreducible over GF(3) and differs from the built-in
    field = Field(3, 2, modulus=(2, 2, 1))
    _axiom_check(field, itertools.product(range(9), repeat=3))
    builtin = field_from_order(9)
    assert field != builtin
    assert field == Field(3, 2, modulus=(2, 2, 1))


def test_eq_and_hash():
    assert field_from_order(5) == field_from_order(5)
    assert field_from_order(5) != field_from_order(7)
    assert hash(field_from_order(4)) == hash(field_from_order(4))
    assert field_from_order(4) != field_from_order(2)


def test_add_is_characteristic_p():
    field = field_from_order(8)
    for a in field.elements():
        assert field.add(a, a) == 0
    field9 = field_from_order(9)
    for a in field9.elements():
        assert field9.add(field9.add(a, a), a) == 0


def test_orders_above_two_to_sixteen_refused():
    # (t^2 - 7)(t^2 - 14) over GF(1031): 7 and 14 are non-squares, so the
    # quartic has no linear factor but has zero divisors t^2 - 7, t^2 - 14
    assert pow(7, 515, 1031) == 1030 and pow(14, 515, 1031) == 1030
    reducible = ((7 * 14) % 1031, 0, (-21) % 1031, 0, 1)
    with pytest.raises(UnsupportedOrder):
        Field(1031, 4, modulus=reducible)
    with pytest.raises(UnsupportedOrder):
        field_from_order(1031**4, reducible)
    # 65537 = 2^16 + 1 is prime; the largest prime below 2^16 still works
    with pytest.raises(UnsupportedOrder):
        field_from_order(65537)
    with pytest.raises(UnsupportedOrder):
        Field(65537)
    with pytest.raises(UnsupportedOrder):  # refused without forming 2^(10^9)
        Field(2, 10**9)
    field = field_from_order(65521)
    assert field.mul(field.inv(12345), 12345) == 1
    assert field.pow(3, -1) == field.inv(3)


def test_each_field_is_built_once():
    assert field_from_order(9) is field_from_order(9)
    assert field_from_order(9, [2, 2, 1]) is field_from_order(9, (2, 2, 1))
    assert field_from_order(9, [2, 2, 1]) != field_from_order(9)
    assert field_from_order(7) is field_from_order(7)
    # refusals are not remembered: they raise on every call
    for _ in range(2):
        with pytest.raises(UnsupportedOrder):
            field_from_order(12)
        with pytest.raises(ReducibleModulus):
            field_from_order(4, [1, 0, 1])
        with pytest.raises(ValueError):
            field_from_order(5, [1, 1])


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS + sorted(LARGE_MODULI) + [257, 65521])
def test_doubled_tables_equal_one_product_per_power(q):
    field = field_from_order(q, LARGE_MODULI.get(q))
    assert (field._exp, field._log) == literal_field_tables(field)
    assert all(type(e) is int for e in field._exp + field._log)
    assert sorted(field._exp[: q - 1]) == list(range(1, q))  # the generator is primitive
