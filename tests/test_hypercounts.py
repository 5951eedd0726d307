"""Hyperplane counts against the literal scans they replaced.

Every hyperplane question (k = 1 blocking and cutting, the exclusion of
linear dimension n-1, support_spans and the shift condition) is read from
one exact transform; these tests compare verdicts and witnesses with
per-hyperplane and per-vector scans on random inputs in both flavors.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cutcodes.blocking
import cutcodes.geometry
from cutcodes import (
    DenseTable,
    MonomialBlocks,
    NonCanonicalPoint,
    PointSet,
    Space,
    blocking_report,
    field_from_order,
    is_blocking,
    is_cutting,
    is_ks_blocking,
    shift_vanishes_on_support,
    support_spans,
    theorem_hypotheses,
)

from helpers import (
    add_encodings,
    direct_shift_counts,
    literal_blocking,
    literal_contained,
    literal_shift,
    literal_span_cutting,
    literal_support_spans,
    scale_encodings,
)

# every (q, n) with q^n <= 1000 and n >= 2, for q in {2, 3, 4, 5, 7, 8, 9}
SPACES = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(2, 10) if q**n <= 1000]
SMALL = [(q, n) for q, n in SPACES if q**n <= 128]  # where the pairwise route fits


def _space(q, n):
    return Space(field_from_order(q), n)


@st.composite
def point_sets(draw, spaces=SPACES):
    """A random set in either flavor; optionally with a planted uncut hyperplane."""
    q, n = draw(st.sampled_from(spaces))
    flavor = draw(st.sampled_from(["vectorial", "projective"]))
    density = draw(st.sampled_from([0.05, 0.3, 0.7, 0.95, 1.0]))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    space = _space(q, n)
    if flavor == "projective":
        allowed = space.projective_mask()
    else:
        allowed = np.ones(space.size, dtype=bool)
        allowed[0] = False
    bits = allowed & (rng.rand(space.size) < density)
    if draw(st.booleans()):
        # drop the points of H_v outside H_w, so H_v's trace lies in H_v n H_w
        v = space.decode(int(rng.randint(1, space.size)))
        w = space.decode(int(rng.randint(1, space.size)))
        bits &= ~((space.dot_all(v) == 0) & (space.dot_all(w) != 0))
    return PointSet(space, bits), flavor


@st.composite
def functions(draw):
    q, n = draw(st.sampled_from(SPACES))
    field = field_from_order(q)
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    size = q**n
    values = rng.randint(1, q, size) * (rng.rand(size) >= zeros)
    if draw(st.booleans()):
        values[0] = 0
    return DenseTable(field, n, values)


@settings(max_examples=40)
@given(point_sets())
def test_counts_equal_direct_counts(case):
    pset, _ = case
    got = pset.hyperplane_counts()
    assert np.array_equal(got, direct_shift_counts(pset.space, pset.bits))


@settings(max_examples=40)
@given(functions())
def test_shift_counts_equal_direct_counts(f):
    space, tab = f.space, f.table()
    support = tab != 0
    assert np.array_equal(space.shift_counts(support, tab), direct_shift_counts(space, support, tab))


@pytest.mark.parametrize("q,n", SPACES)
def test_hyperplane_order_is_canonical(q, n):
    space = _space(q, n)
    hyps = list(space.subspaces(n - 1))
    normals = space.hyperplane_normals()
    assert normals.size == len(hyps)
    for h, sub in enumerate(hyps):
        got = space.hyperplane_basis(h)
        assert got == sub and got.pivots == sub.pivots
        assert space.canonical_representative(space.decode(int(normals[h]))) == sub.normal()


# odd-characteristic spaces, for the arithmetic on encodings
ODD_SPACES = [(q, n) for q in (3, 5, 7, 9) for n in range(1, 6) if q**n <= 3000]


@settings(max_examples=40)
@given(st.sampled_from(SPACES + ODD_SPACES), st.integers(0, 2**31 - 1))
def test_vector_arithmetic_on_encodings(qn, seed):
    space = _space(*qn)
    f = space.field
    rng = np.random.RandomState(seed)
    u, w = rng.randint(0, space.size, 20), rng.randint(0, space.size, 20)
    lam = int(rng.randint(0, space.q))
    scaled = scale_encodings(space, lam, u)
    for a, m in zip(u, scaled):
        assert m == space.encode(tuple(f.mul(lam, i) for i in space.decode(int(a))))
    # the cutting scan's block shape: one row of w, columns of u
    block = space.translate(w[None, :7])(u[:, None])
    assert block.shape == (20, 7)
    assert np.array_equal(block, add_encodings(space, u[:, None], w[None, :7]))


# translate XORs in characteristic 2; otherwise it adds one group of digits
# for n = 1, two for even n and three (the last of one digit) for odd n >= 3
@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 7, 9) for n in range(1, 6)])
def test_translate_block_shape_adds_every_pair(q, n):
    space = _space(q, n)
    rng = np.random.RandomState(q * n)
    u = np.append(rng.randint(0, space.size, 30), [0, space.size - 1])
    w = np.append(rng.randint(0, space.size, 30), [0, space.size - 1])
    plus_w = space.translate(w[None, :])
    want = add_encodings(space, u[:, None], w[None, :])
    assert np.array_equal(plus_w(u[:, None]), want)
    assert np.array_equal(plus_w(u[::-1, None]), want[::-1])
    # a leading batch axis, as the weight-sum scan passes its (q-1, rows, 1)
    assert np.array_equal(plus_w(np.stack([u, u[::-1]])[..., None]), np.stack([want, want[::-1]]))
    assert all(table.size <= max(space.size, q * q) for table in space._sum_tables.values())


@pytest.mark.parametrize("q,n", [(2, 1), (4, 3), (3, 1), (3, 2), (5, 3)])  # both characteristics
def test_translate_refuses_other_shapes(q, n):
    space = _space(q, n)
    w = np.arange(space.size)
    for row in (w, w[:, None], np.stack([w, w]), w[None, None, :]):
        with pytest.raises(ValueError, match="one row of shape"):
            space.translate(row)
    plus_w = space.translate(w[None, :])
    for cols in (w, w[None, :], np.stack([w, w]), np.int64(1)):
        with pytest.raises(ValueError, match="columns of shape"):
            plus_w(cols)


@settings(max_examples=40)
@given(point_sets())
def test_cutting_equals_span_oracle(case):
    pset, flavor = case
    assert is_cutting(pset, 1, flavor) == literal_span_cutting(pset, 1)


@settings(max_examples=60)
@given(point_sets(SMALL))
def test_cutting_equals_pairwise(case):
    pset, flavor = case
    assert is_cutting(pset, 1, flavor) == is_cutting(pset, 1, flavor, method="pairwise")


@settings(max_examples=40)
@given(point_sets())
def test_blocking_and_exclusion_equal_literal_scans(case):
    pset, flavor = case
    n = pset.space.n
    blocked = literal_blocking(pset, 1)
    assert is_blocking(pset, 1, flavor) == blocked
    contained = literal_contained(pset, n - 1, flavor) if blocked[0] else None
    expect = (blocked[0] and contained is None, {"missed": blocked[1], "contained": contained})
    s = n - 1 if flavor == "vectorial" else n - 2
    assert is_ks_blocking(pset, 1, s, flavor) == expect
    rep = blocking_report(pset, 1, flavor, s=s)
    assert (rep.blocking, rep.ks_blocking) == (blocked[0], expect[0])
    assert rep.witnesses["contained_subspace"] == (contained.as_lists() if contained else None)


@settings(max_examples=60)
@given(functions())
def test_support_spans_and_shift_equal_literal_scans(f):
    assert support_spans(f) == literal_support_spans(f)
    assert shift_vanishes_on_support(f) == literal_shift(f)


def test_projective_validation_reads_only_the_set():
    space = _space(3, 3)
    ks = lambda pset, k, flavor: is_ks_blocking(pset, k, 0, flavor)  # noqa: E731
    for check in (is_blocking, is_cutting, ks):
        for bad in ([0], [0, 1], [space.encode((0, 2, 1))], [1, space.encode((2, 1, 1))]):
            with pytest.raises(NonCanonicalPoint):
                check(PointSet.from_encodings(space, bad), 1, "projective")
        assert check(PointSet.from_encodings(space, [1, 3]), 1, "projective")[0] is False


def test_one_flavor_check_per_request():
    # blocking_report checks the set once, not once per verdict;
    # theorem_hypotheses builds valid sets and checks each at most once
    space = _space(3, 3)
    pset = PointSet.from_encodings(space, space.projective_point_encodings()[:9])
    validate = cutcodes.blocking._validate
    for flavor, s in (("projective", 0), ("vectorial", 1)):
        with mock.patch.object(cutcodes.blocking, "_validate", wraps=validate) as check:
            blocking_report(pset, 1, flavor, s=s)
        assert check.call_count == 1, flavor
    for mode in ("affine", "projective"):
        with mock.patch.object(cutcodes.blocking, "_validate", wraps=validate) as check:
            theorem_hypotheses(MonomialBlocks(field_from_order(3), 2, 2), mode)
        assert check.call_count <= 1, mode


@pytest.mark.parametrize("k", [1, 2])
def test_report_scans_for_blocking_once(monkeypatch, k):
    calls = []
    inner = cutcodes.blocking.is_blocking

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cutcodes.blocking, "is_blocking", counted)
    pset = PointSet.from_encodings(_space(2, 4), range(1, 12))
    rep = blocking_report(pset, k, s=1)
    assert len(calls) == 1
    assert (rep.blocking, rep.ks_blocking) == (inner(pset, k)[0], is_ks_blocking(pset, k, 1)[0])


def test_block_family_243_frozen():
    # frozen from the per-hyperplane scans (about 75 s on a 2-vCPU VM)
    rep = theorem_hypotheses(MonomialBlocks(field_from_order(2), 4, 3))
    assert rep.to_dict() == {
        "applies": True,
        "cutting_ok": True,
        "dimension": 12,
        "dimension_ok": True,
        "exclusion_ok": True,
        "mode": "affine",
        "shift_ok": True,
        "support_spans_ok": True,
        "witnesses": {
            "contained_subspace": None,
            "containing_subspace": None,
            "shift_vector": None,
            "trace_subspace": None,
            "unspanned_normal": None,
        },
        "zero_set_size": 3419,
    }


@settings(max_examples=30)
@given(point_sets())
def test_scanned_counts_equal_transform(case):
    pset, _ = case
    space = pset.space
    assert np.array_equal(space.scan_hyperplane_counts(pset.bits), space.shift_counts(pset.bits))


def test_route_follows_field_size():
    # many counts over a small field: the benchmark's inputs
    for q, n in [(2, 10), (3, 6), (9, 4), (7, 3)]:
        space = _space(q, n)
        assert space.counts_by_transform(space.hyperplane_normals().size)
        assert space.counts_by_transform(space.size)
    # a plane's q + 1 lines and q^2 shifts cost no more to scan
    assert not _space(9, 2).counts_by_transform(10)
    assert not _space(9, 2).counts_by_transform(81)
    # a histogram of size * q entries past the cap is never built
    big = _space(1021, 2)
    assert not big.counts_by_transform(big.size)
    with pytest.raises(cutcodes.BudgetExceeded):
        big.shift_counts(np.zeros(big.size, dtype=bool))


@settings(max_examples=30)
@given(point_sets(), functions())
def test_scan_route_equals_literal_scans(case, f):
    pset, flavor = case
    n = pset.space.n
    s = n - 1 if flavor == "vectorial" else n - 2
    with mock.patch.object(cutcodes.geometry, "_COUNT_CAP", 0):
        got = (is_cutting(pset, 1, flavor), is_ks_blocking(pset, 1, s, flavor))
        got_f = (support_spans(f), shift_vanishes_on_support(f))
    blocked = literal_blocking(pset, 1)
    contained = literal_contained(pset, n - 1, flavor) if blocked[0] else None
    assert got[0] == literal_span_cutting(pset, 1)
    assert got[1] == (blocked[0] and contained is None, {"missed": blocked[1], "contained": contained})
    assert got_f == (literal_support_spans(f), literal_shift(f))


def test_plane_over_large_field_scans_in_small_memory():
    # GF(131)^2: a transform histogram would hold 131^3 entries (9 MB); the
    # scan route keeps every array near the size of the space.
    field = field_from_order(131)
    space = Space(field, 2)
    assert not space.counts_by_transform(space.hyperplane_normals().size)
    rng = np.random.RandomState(7)
    bits = rng.rand(space.size) < 0.5
    bits[0] = False
    dense = PointSet(space, bits)
    holed = PointSet(space, bits & (space.dot_all((3, 1)) != 0))
    # f = 1 - x_1: f + x_1 = 1 on all of supp(f), so v = (1, 0) fails at once
    f = DenseTable(field, 2, (1 - space.decode_block(np.arange(space.size))[:, 0]) % 131)
    tracemalloc.start()
    try:
        got = [(is_blocking(p, 1), is_cutting(p, 1), is_ks_blocking(p, 1, 1)) for p in (dense, holed)]
        got_f = (support_spans(f), shift_vanishes_on_support(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    for pset, (blocked, cut, ks) in zip((dense, holed), got):
        want = literal_blocking(pset, 1)
        contained = literal_contained(pset, 1, "vectorial") if want[0] else None
        assert blocked == want
        assert cut == literal_span_cutting(pset, 1)
        assert ks == (want[0] and contained is None, {"missed": want[1], "contained": contained})
    assert [g[0][0] for g in got] == [True, False]
    assert got[1][0][1].normal() == space.canonical_representative((3, 1))
    assert got_f == (literal_support_spans(f), literal_shift(f)) == ((True, None), (False, (1, 0)))


@pytest.mark.parametrize("q,n", [(11, 2), (13, 2), (16, 2), (25, 2), (27, 2), (11, 3)])
def test_shift_counts_equal_direct_counts_past_the_hypothesis_spaces(q, n):
    space = _space(q, n)
    rng = np.random.RandomState(q * n)
    mask = rng.rand(space.size) < 0.6
    values = rng.randint(0, q, space.size).astype(np.uint8)
    assert np.array_equal(space.shift_counts(mask), direct_shift_counts(space, mask))
    assert np.array_equal(
        space.shift_counts(mask, values), direct_shift_counts(space, mask, values)
    )


@pytest.mark.parametrize("q,n", [(2, 21), (4, 10)])
def test_float32_counts_are_exact_at_the_cap(q, n):
    space = _space(q, n)
    assert space.size * q == cutcodes.geometry._COUNT_CAP
    full = np.ones(space.size, dtype=bool)
    full[0] = False
    c = space.shift_counts(full)
    assert c[0] == q**n - 1
    assert np.all(c[1:] == q ** (n - 1) - 1)
    rng = np.random.RandomState(n)
    mask = rng.rand(space.size) < 0.5
    c = space.shift_counts(mask)
    enc = np.nonzero(mask)[0]
    for v in rng.randint(1, space.size, 64):
        if q == 2:  # v . x is the parity of the shared digits
            want = np.count_nonzero(np.bitwise_count(enc & v) % 2 == 0)
        else:
            want = np.count_nonzero(mask & (space.dot_all(space.decode(int(v))) == 0))
        assert c[v] == want, v


def test_transform_at_the_cap_stays_in_small_memory():
    # GF(4)^10: the float32 histogram holds 2^22 entries (16 MB), and a pass
    # keeps it beside its product; a float64 histogram would not fit
    space = _space(4, 10)
    mask = np.random.RandomState(3).rand(space.size) < 0.5
    tracemalloc.start()
    try:
        c = space.shift_counts(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20, peak
    assert c[0] == np.count_nonzero(mask)


# every prime power up to 64; the orders without a built-in modulus take one
ROUTE_MODULI = {32: (1, 0, 1, 0, 0, 1), 49: (3, 1, 1), 64: (1, 1, 0, 0, 0, 0, 1)}
ROUTE_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
ROUTE_ORDERS += [37, 41, 43, 47, 49, 53, 59, 61, 64]


@pytest.mark.parametrize("q", ROUTE_ORDERS)
def test_route_is_unchanged_by_the_pass_matrix_cap(q):
    field = field_from_order(q, ROUTE_MODULI.get(q))
    cap = cutcodes.geometry._COUNT_CAP
    for n in range(1, 9):
        space = Space(field, n)
        for needed in (space.subspace_count(n - 1), space.size):  # hyperplanes, shifts
            want = space.size * q <= cap and q * q < needed
            assert space.counts_by_transform(needed) == want, (n, needed)


def test_pass_matrix_past_the_cap_is_refused_before_any_allocation():
    space = _space(47, 2)  # 47^3 histogram entries fit, 47^4 matrix entries do not
    assert space.size * 47 <= cutcodes.geometry._COUNT_CAP < 47**4
    mask = np.ones(space.size, dtype=bool)
    tracemalloc.start()
    try:
        with pytest.raises(cutcodes.BudgetExceeded):
            space.shift_counts(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak
