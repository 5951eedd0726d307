"""Subspace counts in canonical blocks against the per-subspace scans.

Blocking and cutting for every k, the (k, s) exclusion and support_spans
read |S n K| from the points of K or from the hyperplane counts over ann K
(Space.subspace_blocks). These tests compare verdicts and witnesses with
the literal per-subspace loops in both flavors, plant failures, force each
side of the points/annihilator choice, check that over-cap requests are
refused before any count, the per-hyperplane scan included, check
the process-level table of small enumerations on either side (one build
per field, modulus included, n, d and side; read-only), check that the cutting
check's chunks inside one count block keep the witness, check that a
points-side report takes no hyperplane counts, check that a failing
trace's container is the first in canonical order on either side of the
failure, and check set_dimension against the literal row reduction and
against the annihilator size the hyperplane counts give.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cutcodes.blocking
import cutcodes.geometry
from cutcodes import (
    BudgetExceeded,
    MonomialBlocks,
    PointSet,
    Space,
    blocking_report,
    field_from_order,
    is_blocking,
    is_cutting,
    is_ks_blocking,
    save_point_set,
    set_dimension,
    theorem_hypotheses,
    zero_set,
)
from cutcodes.blocking import _GENERIC_POINT_CAP, _subspace_counts
from cutcodes.cli import main

from helpers import (
    literal_blocking,
    literal_contained,
    literal_span_cutting,
    literal_span_dim,
    projective_points,
    scale_encodings,
    subspace_bits,
    subspace_contains,
)

# every (q, n) with q^n <= 256 and n >= 3, so that some k in 2..n-1 exists
SPACES = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(3, 9) if q**n <= 256]
# the literal loops cost about a millisecond per subspace; keep each case
# to a few hundred subspaces of the dimensions it scans
LITERAL = [(q, n) for q, n in SPACES if q**n <= 64]


def _space(q, n):
    return Space(field_from_order(q), n)


def _allowed(space, flavor):
    if flavor == "projective":
        return space.projective_mask().copy()
    allowed = np.ones(space.size, dtype=bool)
    allowed[0] = False
    return allowed


@st.composite
def point_sets(draw, spaces=LITERAL):
    """A random set in either flavor, optionally with a trace squeezed into a
    hyperplane of a random subspace of codimension k; returns (set, flavor, k)."""
    q, n = draw(st.sampled_from(spaces))
    k = draw(st.integers(2, n - 1))
    flavor = draw(st.sampled_from(["vectorial", "projective"]))
    density = draw(st.sampled_from([0.1, 0.4, 0.8, 1.0]))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    space = _space(q, n)
    bits = _allowed(space, flavor) & (rng.rand(space.size) < density)
    if draw(st.booleans()):
        sub = space.subspace_basis(n - k, int(rng.randint(space.subspace_count(n - k))))
        g = Space(space.field, n - k).decode(int(rng.randint(1, q ** (n - k))))
        bits &= ~_off_hyperplane(sub, g)
    return PointSet(space, bits), flavor, k


def _off_hyperplane(sub, g):
    """Points sum_i l_i * row_i of sub with g . l != 0: removing them squeezes
    the trace on sub into the hyperplane of sub that g names."""
    space, fld = sub.space, sub.space.field
    small = Space(fld, sub.dim)
    bits = np.zeros(space.size, dtype=bool)
    for e in range(small.size):
        lam = small.decode(e)
        if small.dot(g, lam):
            x = [0] * space.n
            for a, row in zip(lam, sub.rows):
                x = [fld.add(xi, fld.mul(a, ri)) for xi, ri in zip(x, row)]
            bits[space.encode(x)] = True
    return bits


def _report_expect(pset, k, flavor, s):
    """The (k, s) verdict and witnesses from the literal loops."""
    blocked = literal_blocking(pset, k)
    lin_s = s + 1 if flavor == "projective" else s
    contained = literal_contained(pset, lin_s, flavor) if blocked[0] else None
    return blocked[0] and contained is None, {"missed": blocked[1], "contained": contained}


@settings(max_examples=25)
@given(point_sets())
def test_blocking_cutting_and_exclusion_equal_literal_loops(case):
    pset, flavor, k = case
    n = pset.space.n
    assert is_blocking(pset, k, flavor) == literal_blocking(pset, k)
    cut = literal_span_cutting(pset, k)
    assert is_cutting(pset, k, flavor) == cut
    for s in range(0 if flavor == "projective" else 1, n - 1 if flavor == "projective" else n):
        assert is_ks_blocking(pset, k, s, flavor) == _report_expect(pset, k, flavor, s)
    s = 1 if flavor == "vectorial" else 0
    rep = blocking_report(pset, k, flavor, s=s)
    verdict, wit = _report_expect(pset, k, flavor, s)
    assert (rep.blocking, rep.cutting, rep.ks_blocking) == (wit["missed"] is None, cut[0], verdict)
    if not cut[0]:
        assert rep.witnesses["trace_subspace"] == cut[1][0].as_lists()
        assert rep.witnesses["containing_subspace"] == cut[1][1].as_lists()


@pytest.mark.parametrize("q,n,flavor", [(2, 4, "vectorial"), (3, 4, "projective"), (2, 5, "projective"), (4, 3, "vectorial")])
def test_set_missing_one_codimension_2_subspace(q, n, flavor):
    space = _space(q, n)
    target = space.subspace_count(n - 2) // 2 + 1
    sub = space.subspace_basis(n - 2, target)
    bits = _allowed(space, flavor) & ~subspace_bits(sub)
    pset = PointSet(space, bits)
    assert is_blocking(pset, 2, flavor) == (False, sub) == literal_blocking(pset, 2)
    assert is_cutting(pset, 2, flavor) == literal_span_cutting(pset, 2)


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 4, 2), (2, 6, 4), (4, 4, 2)])
def test_trace_squeezed_into_a_hyperplane_of_k(q, n, k):
    space = _space(q, n)
    d = n - k
    target = space.subspace_count(d) - 1  # the last subspace, so no earlier one fails
    sub = space.subspace_basis(d, target)
    bits = _allowed(space, "vectorial") & ~_off_hyperplane(sub, (1,) * d)
    pset = PointSet(space, bits)
    got = is_cutting(pset, k)
    assert got == literal_span_cutting(pset, k)
    assert not got[0] and got[1][0] == sub
    assert is_blocking(pset, k) == (True, None)


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 4, 2), (4, 4, 2), (5, 4, 2)])
def test_every_hyperplane_of_k_is_checked(q, n, k):
    space = _space(q, n)
    d = n - k
    sub = space.subspace_basis(d, space.subspace_count(d) - 1)
    for g in projective_points(Space(space.field, d)):
        pset = PointSet(space, _allowed(space, "vectorial") & ~_off_hyperplane(sub, g))
        got = is_cutting(pset, k)
        assert not got[0] and got[1][0] == sub, g
        trace = [space.decode(int(e)) for e in np.flatnonzero(pset.bits & subspace_bits(sub))]
        assert got[1][1] != sub and all(subspace_contains(got[1][1], x) for x in trace)


# (q, n, k, basis of K, v, whether the first container of K's trace
# precedes K in canonical order): the set is every allowed point except
# those of K off the hyperplane v.x = 0, so the trace on K spans K n H_v.
CONTAINER_CASES = [
    (3, 3, 1, [[1, 1, 0], [0, 0, 1]], (2, 0, 0), True),
    (3, 3, 1, [[1, 0, 0], [0, 0, 1]], (2, 1, 0), False),
    (2, 4, 1, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], (1, 0, 0, 0), True),
    (2, 4, 2, [[0, 1, 1, 0], [0, 0, 0, 1]], (1, 1, 0, 0), True),
    (2, 4, 2, [[1, 0, 0, 0], [0, 0, 0, 1]], (1, 0, 1, 0), False),
    (3, 4, 2, [[0, 1, 2, 0], [0, 0, 0, 1]], (0, 0, 1, 0), True),
    (3, 4, 2, [[1, 0, 0, 0], [0, 0, 0, 1]], (1, 2, 0, 0), False),
]


@pytest.mark.parametrize("flavor", ["vectorial", "projective"])
@pytest.mark.parametrize("q,n,k,rows,v,before", CONTAINER_CASES)
def test_first_container_on_either_side_of_the_failure(q, n, k, rows, v, before, flavor):
    space = _space(q, n)
    subs = list(space.subspaces(n - k))
    sub = next(s for s in subs if s.as_lists() == rows)
    bits = _allowed(space, flavor) & ~(subspace_bits(sub) & (space.dot_all(v) != 0))
    got = is_cutting(PointSet(space, bits), k, flavor)
    assert got == literal_span_cutting(PointSet(space, bits), k)
    assert not got[0] and got[1][0] == sub
    assert (subs.index(got[1][1]) < subs.index(sub)) == before


@settings(max_examples=20)
@given(point_sets(SPACES), st.booleans(), st.data())
def test_either_side_counts_every_subspace(case, points, data):
    pset, _, _ = case
    space = pset.space
    d = data.draw(st.integers(1, space.n - 1))
    with mock.patch.object(cutcodes.blocking, "_on_points", lambda sp, dim: points):
        got = np.concatenate([hits for _, _, _, hits in _subspace_counts(pset, d)])
    want = [np.count_nonzero(pset.bits & subspace_bits(sub)) for sub in space.subspaces(d)]
    assert got.tolist() == want


@settings(max_examples=20)
@given(point_sets(), st.booleans())
def test_either_side_gives_the_same_verdicts(case, points):
    pset, flavor, k = case
    s = 1 if flavor == "vectorial" else 0
    want = (is_cutting(pset, k, flavor), is_ks_blocking(pset, k, s, flavor))
    with mock.patch.object(cutcodes.blocking, "_on_points", lambda sp, dim: points):
        got = (is_cutting(pset, k, flavor), is_ks_blocking(pset, k, s, flavor))
    assert got == want
    assert got[0] == literal_span_cutting(pset, k)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 4), (4, 3)])
def test_block_boundaries_do_not_move_witnesses(q, n):
    space = _space(q, n)
    rng = np.random.RandomState(q * n)
    for flavor in ("vectorial", "projective"):
        pset = PointSet(space, _allowed(space, flavor) & (rng.rand(space.size) < 0.3))
        want = [is_blocking(pset, 2, flavor), is_cutting(pset, 2, flavor)]
        with mock.patch.object(cutcodes.geometry, "_COUNT_CHUNK", 1):
            assert [is_blocking(pset, 2, flavor), is_cutting(pset, 2, flavor)] == want


# (q, n, k, flavor, seed, density): a random set whose trace on the last
# subspace of the first pivot pattern is squeezed into a hyperplane of it;
# the seeds leave many earlier K of that block open after the counting
# rules (checked in the test), so the check runs them in several chunks.
PLANTED_LATE = [
    (2, 5, 1, "vectorial", 7, 0.5),
    (3, 4, 1, "vectorial", 4, 0.5),
    (3, 4, 1, "projective", 47, 0.5),
    (2, 5, 2, "vectorial", 1, 0.7),
    (2, 5, 2, "projective", 1, 0.7),
    (3, 4, 2, "vectorial", 95, 0.5),
    (3, 5, 2, "projective", 89, 0.5),
]


@pytest.mark.parametrize("q,n,k,flavor,seed,density", PLANTED_LATE)
def test_check_chunks_inside_one_count_block(q, n, k, flavor, seed, density):
    space = _space(q, n)
    d = n - k
    target = q ** (d * k) - 1  # pivots 0..d-1 leave d * k free entries
    sub = space.subspace_basis(d, target)
    rng = np.random.RandomState(seed)
    bits = _allowed(space, flavor) & (rng.rand(space.size) < density) & ~_off_hyperplane(sub, (1,) * d)
    pset = PointSet(space, bits)
    room = (q ** (d - 1) - 1) // (q - 1 if flavor == "projective" else 1)
    hits = np.concatenate([h for _, _, _, h in _subspace_counts(pset, d, "annihilator")])
    assert np.count_nonzero(hits[:target] <= room) >= 6 and (hits[:target] >= d).all()
    want = is_cutting(pset, k, flavor)
    assert not want[0] and want[1][0] == sub
    assert want == literal_span_cutting(pset, k)
    if space.subspace_count(d) ** 2 * space.size <= _GENERIC_POINT_CAP:
        assert is_cutting(pset, k, flavor, method="pairwise") == want
    per_k = (1 + Space(space.field, d).num_projective_points()) * q**k  # sums per K checked
    for rows in (1, 2, 5):
        with mock.patch.object(cutcodes.blocking, "_COUNT_CHUNK", rows * per_k):
            assert is_cutting(pset, k, flavor) == want
            # count blocks of q^t <= 7 K, each split into check chunks of `rows` K
            with mock.patch.object(cutcodes.geometry, "_COUNT_CHUNK", 7 * q**k):
                assert is_cutting(pset, k, flavor) == want


def test_enumerator_rows_follow_the_combination_encoding():
    space = _space(3, 4)
    subs = list(space.subspaces(2))
    for side in ("points", "annihilator"):
        for start, pivots, enc in space.subspace_blocks(2, side):
            for b, row in enumerate(enc):
                sub = subs[start + b]
                if side == "points":
                    assert row[1] == space.encode(sub.rows[0]) and row[3] == space.encode(sub.rows[1])
                else:
                    for w in (row[1], row[3]):
                        assert all(space.dot(space.decode(int(w)), r) == 0 for r in sub.rows)


# Refusals: the benchmark's over-cap shapes are refused by the point cap
# before any hyperplane count or subspace block is computed.


def _refuse_everything(*args, **kwargs):
    raise AssertionError("no count may be computed before the cap check")


@pytest.mark.parametrize(
    "q,n,flavor,encodings",
    [(2, 13, "vectorial", None), (3, 12, "projective", [1, 3])],
)
def test_over_cap_requests_refuse_before_counting(tmp_path, capsys, q, n, flavor, encodings):
    space = _space(q, n)
    if encodings is None:  # every point off one hyperplane
        pset = PointSet(space, space.dot_all((1,) + (0,) * (n - 1)) != 0)
    else:
        pset = PointSet.from_encodings(space, encodings)
    message = (
        f"enumerating {space.subspace_count(n - 2)} subspaces of dimension {n - 2} "
        "exceeds the point cap"
    )
    path = tmp_path / "set.txt"
    save_point_set(path, pset)
    argv = ["blocking", "--json", "--cutting", "--k", "2", "--flavor", flavor, "--in", str(path)]
    with mock.patch.multiple(
        Space,
        shift_counts=_refuse_everything,
        hyperplane_counts=_refuse_everything,
        subspace_blocks=_refuse_everything,
    ):
        for call in (
            lambda: blocking_report(pset, 2, flavor, s=1),
            lambda: is_blocking(pset, 2, flavor),
            lambda: is_cutting(pset, 2, flavor),
            lambda: is_ks_blocking(pset, 2, 1, flavor),
        ):
            with pytest.raises(BudgetExceeded) as err:
                call()
            assert str(err.value) == message
        capsys.readouterr()
        assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"over budget: {message}\n"


def test_dense_plane_over_gf1021_reads_lines_from_their_points():
    # 1,022 lines of 1,021 points each: one gather per point of each line
    space = Space(field_from_order(1021), 2)
    assert not space.counts_by_transform(space.hyperplane_normals().size)
    rng = np.random.RandomState(3)
    bits = rng.rand(space.size) < 0.5
    bits[0] = False
    assert is_blocking(PointSet(space, bits), 1) == (True, None)
    line = space.hyperplane_basis(700)
    holed = PointSet(space, bits & ~subspace_bits(line))
    assert is_blocking(holed, 1) == (False, line)
    assert holed.hyperplane_counts()[scale_encodings(space, 5, space.hyperplane_normals()[700:701])] == 0


# k = 1 and the exclusion of linear dimension n-1 share the route of every
# other codimension, but hyperplane counts from the transform stay outside
# the point cap; only the per-hyperplane scan is charged it.


def test_hyperplane_exclusion_is_served_past_the_point_cap():
    # the 78 vectors of weight 2 in GF(2)^13: every hyperplane meets them
    # (no normal h has h_i + h_j = 1 for all pairs), they span the even
    # weight hyperplane, and their trace on x_13 = 0 spans only 11 dimensions
    space = _space(2, 13)
    assert space.subspace_count(12) * 2**12 > _GENERIC_POINT_CAP
    pts = [tuple(int(t in pair) for t in range(13)) for pair in itertools.combinations(range(13), 2)]
    rep = blocking_report(PointSet.from_points(space, pts), 1, s=12)
    assert (rep.blocking, rep.cutting, rep.ks_blocking, rep.dimension) == (True, False, True, 12)
    assert rep.witnesses["trace_subspace"] == space.hyperplane_basis(0).as_lists()
    assert rep.witnesses["containing_subspace"][-1] == [0] * 11 + [1, 1]


def test_hyperplane_scan_past_the_point_cap_is_refused(tmp_path, capsys):
    # GF(2)^22 is too large for the transform, and its scan would visit
    # 2^22 - 1 hyperplanes of 2^21 points each
    space = _space(2, 22)
    assert not space.counts_by_transform(space.subspace_count(21))
    pset = PointSet.from_encodings(space, [1, 2, 3])
    message = f"scanning the points of {2**22 - 1} hyperplanes exceeds the point cap"
    path = tmp_path / "set.txt"
    save_point_set(path, pset)
    with mock.patch.multiple(
        Space, subspace_blocks=_refuse_everything, hyperplane_normals=_refuse_everything
    ):
        with pytest.raises(BudgetExceeded) as err:
            is_blocking(pset, 1)
        assert str(err.value) == message
        capsys.readouterr()
        assert main(["blocking", "--k", "1", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"over budget: {message}\n"
    # the first refused scans: planes from q = 4096, 3-spaces from q = 64,
    # and every space of n >= 4 too large for the transform
    for q, n, modulus in [(4099, 2, None), (64, 3, (1, 1, 0, 0, 0, 0, 1)), (67, 3, None), (23, 4, None)]:
        space = Space(field_from_order(q, modulus), n)
        assert not space.counts_by_transform(space.subspace_count(n - 1))
        with mock.patch.object(Space, "subspace_blocks", _refuse_everything):
            with pytest.raises(BudgetExceeded, match="exceeds the point cap$"):
                space.hyperplane_counts(np.zeros(space.size, dtype=bool))
    # the planes and the 3-spaces over large fields that do scan stay under the cap
    for q, n in [(1021, 2), (131, 2), (47, 3), (61, 3)]:
        space = _space(q, n)
        assert not space.counts_by_transform(space.subspace_count(n - 1))
        assert space.subspace_count(n - 1) * q ** (n - 1) <= _GENERIC_POINT_CAP
    # and GF(61)^3, the largest prime 3-space under it, is scanned: 3,783 planes of 3,721 points
    mask = np.zeros(space.size, dtype=bool)
    mask[[1, 62, 5000, 123456]] = True
    counts = space.hyperplane_counts(mask)
    assert counts[0] == 4
    for v in (1, 61, 3722, 99999, space.size - 1):
        assert counts[v] == np.count_nonzero(mask & (space.dot_all(space.decode(v)) == 0))


def _check_memoised_blocks(q, n, chunk, side):
    table = cutcodes.geometry._subspace_table
    table.cache_clear()
    with mock.patch.object(cutcodes.geometry, "_COUNT_CHUNK", chunk):
        for d in range(n + 1):
            r = d if side == "points" else n - d
            before = table.cache_info()
            for space in (_space(q, n), _space(q, n)):  # two instances read one table
                for _ in range(2):  # the first call fills the table, the others read it
                    got = list(space.subspace_blocks(d, side))
                    want = list(space._build_blocks(d, side))
                    assert [(s, p) for s, p, _ in got] == [(s, p) for s, p, _ in want]
                    assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(got, want))
                    # at most chunk // q^r subspaces a block, one pattern each
                    assert all(enc.shape[0] <= max(1, chunk // q**r) for _, _, enc in got)
            after = table.cache_info()
            memoised = space.subspace_count(d) * q**r <= chunk
            # one table per memoised (field, n, d, side), built by the first call and read by the other 3
            assert after.currsize - before.currsize == memoised
            assert (after.misses - before.misses, after.hits - before.hits) == (
                (1, 3) if memoised else (0, 0)
            )


@pytest.mark.parametrize("chunk", [cutcodes.geometry._COUNT_CHUNK, 32])
@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (4, 3), (3, 4), (5, 3)])
def test_memoised_annihilator_blocks_equal_fresh_ones(q, n, chunk):
    _check_memoised_blocks(q, n, chunk, "annihilator")


@pytest.mark.parametrize("chunk", [cutcodes.geometry._COUNT_CHUNK, 32])
@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (4, 3), (3, 4), (5, 3)])
def test_memoised_points_blocks_equal_fresh_ones(q, n, chunk):
    _check_memoised_blocks(q, n, chunk, "points")


def _count_builds(calls):
    real = Space._build_blocks

    def counting(self, d, side):
        calls.append((self.n, d, side))
        return real(self, d, side)

    return mock.patch.object(Space, "_build_blocks", counting)


@pytest.mark.parametrize("q,r,k", [(2, 2, 2), (3, 2, 2), (4, 3, 1)])
def test_hyperplane_blocks_are_built_once_per_space(q, r, k):
    cutcodes.geometry._subspace_table.cache_clear()
    f = MonomialBlocks(field_from_order(q), r, k)  # n = r * k >= 3
    again = MonomialBlocks(field_from_order(q), r, k)  # the same space, another Space instance
    assert again.space == f.space and again.space is not f.space
    zeros = zero_set(f, "affine_star")
    n = f.space.n
    calls = []
    with _count_builds(calls):
        assert theorem_hypotheses(f, "affine").to_dict() == theorem_hypotheses(f, "affine").to_dict()
        blocking_report(zeros, 1, s=n - 1)
        assert theorem_hypotheses(again, "affine").to_dict() == theorem_hypotheses(f, "affine").to_dict()
        blocking_report(zero_set(again, "affine_star"), 1, s=n - 1)
    # once per process, so once per space and once per instance
    assert calls.count((n, n - 1, "annihilator")) == 1


def test_each_modulus_of_an_order_gets_its_own_table():
    table = cutcodes.geometry._subspace_table
    table.cache_clear()
    spaces = [Space(field_from_order(8, m), 3) for m in ((1, 1, 0, 1), (1, 0, 1, 1))]  # x^3+x+1, x^3+x^2+1
    assert spaces[0].field != spaces[1].field
    for side in ("points", "annihilator"):
        for d in range(4):
            got = [list(space.subspace_blocks(d, side)) for space in spaces]
            for space, blocks in zip(spaces, got):
                want = list(space._build_blocks(d, side))
                assert [(s, p) for s, p, _ in blocks] == [(s, p) for s, p, _ in want]
                assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(blocks, want))
            if d in (1, 2):  # the products differ between the moduli, so do the blocks
                assert any(not np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(*got))
    assert table.cache_info().currsize == 2 * 2 * 4


def test_cached_blocks_reject_writes():
    space = _space(3, 3)
    for side in ("points", "annihilator"):
        for d in range(1, 3):
            table = cutcodes.geometry._subspace_table(space.field, 3, d, side)
            blocks = list(space.subspace_blocks(d, side))
            for enc in [enc for _, _, enc in table + tuple(blocks)]:
                with pytest.raises(ValueError, match="read-only"):
                    enc[0, 0] = 1
            assert all(enc[0, 0] == 0 for _, _, enc in table)


def test_each_side_is_memoised_only_within_the_chunk():
    # GF(3)^4 at a chunk of 200 entries: on the points side d = 0, 1, 4 fit
    # (1, 40 * 3, 1 * 81 entries) and d = 2, 3 do not (130 * 9, 40 * 27);
    # on the annihilator side d = 0, 3, 4 fit and d = 1, 2 do not
    space = _space(3, 4)
    cutcodes.geometry._subspace_table.cache_clear()
    fits = {"points": (0, 1, 4), "annihilator": (0, 3, 4)}
    for side, small in fits.items():
        entries = [space.subspace_count(d) * 3 ** (d if side == "points" else 4 - d) for d in range(5)]
        assert [e <= 200 for e in entries] == [d in small for d in range(5)]
        calls = []
        with mock.patch.object(cutcodes.geometry, "_COUNT_CHUNK", 200), _count_builds(calls):
            for d in range(5):
                for _ in range(2):
                    list(space.subspace_blocks(d, side))
        # a table is built by the first call only; a larger enumeration on every call
        assert calls == [(4, d, side) for d in range(5) for _ in range(1 if d in small else 2)]


def test_points_side_report_takes_no_hyperplane_counts():
    # d = 2 <= n - d: blocking reads the points of each plane, and the
    # dimension comes from the points themselves
    space = _space(3, 6)
    pset = PointSet.from_points(space, [(1, 0, 0, 0, 0, 0), (0, 1, 2, 0, 0, 0)])
    with mock.patch.multiple(
        Space,
        shift_counts=_refuse_everything,
        hyperplane_counts=_refuse_everything,
        scan_hyperplane_counts=_refuse_everything,
    ):
        rep = blocking_report(pset, 4, check_cutting=False)
    assert (rep.blocking, rep.cutting, rep.dimension) == (False, None, 2)


@st.composite
def spanned_sets(draw):
    """Random subsets, possibly empty, of a random subspace, in either flavor."""
    q, n = draw(st.sampled_from(SPACES))
    space = _space(q, n)
    flavor = draw(st.sampled_from(["vectorial", "projective"]))
    d = draw(st.integers(0, n))
    sub = space.subspace_basis(d, draw(st.integers(0, space.subspace_count(d) - 1)))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    bits = _allowed(space, flavor) & subspace_bits(sub) & (rng.rand(space.size) < density)
    return PointSet(space, bits), flavor


@settings(max_examples=60)
@given(spanned_sets())
def test_set_dimension_equals_the_literal_span(case):
    pset, flavor = case
    want = literal_span_dim(pset.space, pset.points()) - (flavor == "projective")
    assert set_dimension(pset, flavor) == want


@pytest.mark.parametrize("q,n", [(2, 6), (3, 4), (4, 3), (5, 3), (9, 3)])
def test_set_dimension_of_single_points_and_zero_sets(q, n):
    space = _space(q, n)
    for flavor in ("vectorial", "projective"):
        allowed = np.flatnonzero(_allowed(space, flavor))
        for e in (allowed[0], allowed[-1]):
            point = PointSet.from_encodings(space, [e])
            assert set_dimension(point, flavor) == 1 - (flavor == "projective")
    f = MonomialBlocks(space.field, n // 2, 2) if n % 2 == 0 else MonomialBlocks(space.field, n, 1)
    for kind, flavor in (("affine_star", "vectorial"), ("projective", "projective")):
        zeros = zero_set(f, kind)
        want = literal_span_dim(space, zeros.points()) - (flavor == "projective")
        assert set_dimension(zeros, flavor) == want


@settings(max_examples=40)
@given(spanned_sets())
def test_set_dimension_matches_the_annihilator_size(case):
    # ann span(S) = {v : c[v] = |S|} holds q^(n - dim) vectors
    pset, flavor = case
    space = pset.space
    dim = set_dimension(pset, flavor) + (flavor == "projective")
    ann = np.count_nonzero(pset.hyperplane_counts() == len(pset))
    assert space.q ** (space.n - dim) == ann
