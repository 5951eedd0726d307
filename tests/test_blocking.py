import itertools

import numpy as np
import pytest

from cutcodes import (
    BudgetExceeded,
    DenseTable,
    DimensionOutOfRange,
    MonomialBlocks,
    NonCanonicalPoint,
    OriginInSet,
    PointSet,
    SameHyperplane,
    Space,
    ZeroNormal,
    blocking_report,
    field_from_order,
    hyperplane_pair_oracle,
    is_blocking,
    is_cutting,
    is_ks_blocking,
    set_dimension,
    shift_vanishes_on_support,
    support_spans,
    theorem_hypotheses,
    zero_set,
)

from helpers import subspace_contains


def _hyperplane_star(space, v):
    return space.hyperplane(v, punctured=True)


def test_punctured_hyperplane_blocks_but_does_not_cut():
    space = Space(field_from_order(2), 3)
    s = _hyperplane_star(space, (1, 0, 0))
    assert len(s) == 3
    blocked, missed = is_blocking(s, 1)
    assert blocked and missed is None
    cutting, witness = is_cutting(s, 1)
    assert not cutting
    assert witness is not None
    sub, container = witness
    # the witness subspace really does trap the trace in another subspace
    trace = [p for p in s.points() if subspace_contains(sub, p)]
    assert trace
    assert all(subspace_contains(container, p) for p in trace)
    assert container != sub
    # deterministic: same witness every time
    assert is_cutting(s, 1) == (cutting, witness)


def test_block_family_zero_set_cuts():
    f = MonomialBlocks(field_from_order(2), 2, 2)
    s = zero_set(f, "affine_star")
    assert is_blocking(s, 1) == (True, None)
    assert is_cutting(s, 1) == (True, None)
    # codimension 2 subspaces are no longer all cut
    cutting2, _ = is_cutting(s, 2)
    assert isinstance(cutting2, bool)


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3)])
def test_span_and_pairwise_methods_agree(q, n):
    field = field_from_order(q)
    space = Space(field, n)
    rng = np.random.RandomState(20260816)
    sets = [_hyperplane_star(space, (1,) + (0,) * (n - 1))]
    if q == 2 and n == 4:
        sets.append(zero_set(MonomialBlocks(field, 2, 2), "affine_star"))
    for _ in range(6):
        count = rng.randint(2, space.size // 2)
        encs = rng.choice(np.arange(1, space.size), size=count, replace=False)
        sets.append(PointSet.from_encodings(space, encs))
    for s in sets:
        for k in range(1, n):
            span = is_cutting(s, k, method="span")
            pairwise = is_cutting(s, k, method="pairwise")
            assert span == pairwise  # verdict and witness both


def test_pairwise_method_budget():
    space = Space(field_from_order(3), 8)
    s = PointSet.from_encodings(space, [1, 2])
    with pytest.raises(BudgetExceeded):
        is_cutting(s, 1, method="pairwise")


def test_cutting_method_validation():
    space = Space(field_from_order(2), 3)
    s = _hyperplane_star(space, (1, 0, 0))
    with pytest.raises(ValueError):
        is_cutting(s, 1, method="bogus")


def test_ks_blocking_on_block_zero_set():
    f = MonomialBlocks(field_from_order(2), 2, 2)
    s = zero_set(f, "affine_star")
    # contains a 2-dim subspace, so (1,2) fails with a containment witness
    ok, wit = is_ks_blocking(s, 1, 2)
    assert not ok
    contained = wit["contained"]
    assert contained is not None and wit["missed"] is None
    pts = [p for p in contained.point_set(punctured=True).points()]
    assert pts and all(s.contains_point(p) for p in pts)
    # no full hyperplane fits inside, so (1,3) holds
    assert is_ks_blocking(s, 1, 3) == (True, {"missed": None, "contained": None})


def test_ks_blocking_missed_witness():
    space = Space(field_from_order(2), 3)
    s = PointSet.from_encodings(space, [1])  # a single point blocks nothing much
    ok, wit = is_ks_blocking(s, 1, 1)
    assert not ok
    assert wit["missed"] is not None
    # the missed hyperplane really avoids the point
    assert not subspace_contains(wit["missed"], space.decode(1))


def test_ks_blocking_range_checks():
    space = Space(field_from_order(2), 3)
    s = PointSet.from_encodings(space, [1, 2, 4])
    with pytest.raises(DimensionOutOfRange):
        is_ks_blocking(s, 1, 3)  # s = n is out of range
    with pytest.raises(DimensionOutOfRange):
        is_blocking(s, 3)  # k = n leaves a zero-dim target


def test_validation_origin_and_canonical():
    space = Space(field_from_order(3), 3)
    with_origin = PointSet.from_encodings(space, [0, 1])
    with pytest.raises(OriginInSet):
        is_blocking(with_origin, 1)
    # (0,2,0) is not a canonical representative: leading nonzero must be 1
    bad = PointSet.from_points(space, [(0, 2, 0)])
    with pytest.raises(NonCanonicalPoint):
        is_blocking(bad, 1, flavor="projective")


def test_set_dimension():
    space = Space(field_from_order(3), 3)
    line = PointSet.from_points(space, [(1, 0, 0)])
    assert set_dimension(line) == 1
    assert set_dimension(line, "projective") == 0
    reps = PointSet.from_encodings(space, space.projective_point_encodings())
    assert set_dimension(reps, "projective") == 2


def test_projective_flavor_on_block_zero_set():
    f = MonomialBlocks(field_from_order(3), 2, 2)
    s = zero_set(f, "projective")
    assert set_dimension(s, "projective") == 3
    assert is_blocking(s, 1, flavor="projective")[0]
    assert is_cutting(s, 1, flavor="projective")[0]
    # projective and vectorial agree on scalar-closed sets
    star = zero_set(f, "affine_star")
    assert is_cutting(star, 1, flavor="vectorial")[0]


def test_support_spans():
    f = MonomialBlocks(field_from_order(2), 2, 2)
    assert support_spans(f) == (True, None)
    g = DenseTable(field_from_order(2), 2, [0, 1, 0, 0])
    ok, normal = support_spans(g)
    assert not ok
    # the reported normal annihilates the whole support
    assert normal == (0, 1)


def test_shift_vanishes_on_support():
    f = MonomialBlocks(field_from_order(2), 2, 2)
    assert shift_vanishes_on_support(f) == (True, None)
    g = DenseTable(field_from_order(2), 2, [0, 1, 0, 0])
    ok, v = shift_vanishes_on_support(g)
    assert not ok and v == (0, 1)
    # meaning: f(x) + v.x is never zero where f is nonzero
    space = g.space
    for coords in itertools.product(range(2), repeat=2):
        if g.evaluate(coords):
            assert g.field.add(g.evaluate(coords), space.dot(v, coords)) != 0


def test_pair_oracle_positive_everywhere():
    # the zero set cuts, so every ordered pair of hyperplanes is separated
    f = MonomialBlocks(field_from_order(2), 2, 2)
    space = f.space
    normals = [space.decode(int(e)) for e in space.projective_point_encodings()]
    for v, vp in itertools.permutations(normals, 2):
        assert hyperplane_pair_oracle(f, v, vp)


def test_pair_oracle_negative_control():
    # zero set is the single point (1,0,0), which lies inside x3 = 0
    field = field_from_order(2)
    g = DenseTable(field, 3, [0, 0, 1, 1, 1, 1, 1, 1])
    assert sorted(zero_set(g, "affine_star").encodings()) == [1]
    assert hyperplane_pair_oracle(g, (0, 1, 0), (0, 0, 1)) is False
    # swapping the roles separates them again
    assert hyperplane_pair_oracle(g, (0, 0, 1), (0, 1, 0)) is False
    # a pair whose first hyperplane misses the zero set entirely
    assert hyperplane_pair_oracle(g, (1, 0, 0), (0, 1, 0)) is False


def test_pair_oracle_matches_cutting_verdict():
    # oracle true on all ordered pairs <=> zero set cuts hyperplanes
    field = field_from_order(2)
    cases = [
        MonomialBlocks(field, 2, 2),
        DenseTable(field, 3, [0, 0, 1, 1, 1, 1, 1, 1]),
    ]
    for f in cases:
        space = f.space
        normals = [space.decode(int(e)) for e in space.projective_point_encodings()]
        all_pairs = all(
            hyperplane_pair_oracle(f, v, vp)
            for v, vp in itertools.permutations(normals, 2)
        )
        assert all_pairs == is_cutting(zero_set(f, "affine_star"), 1)[0]


def test_pair_oracle_raises():
    f = MonomialBlocks(field_from_order(3), 2, 1)
    with pytest.raises(ZeroNormal):
        hyperplane_pair_oracle(f, (0, 0), (1, 0))
    with pytest.raises(SameHyperplane):
        hyperplane_pair_oracle(f, (1, 0), (1, 0))
    with pytest.raises(SameHyperplane):
        # scalar multiples give the same hyperplane
        hyperplane_pair_oracle(f, (1, 2), (2, 1))


def test_theorem_hypotheses_affine_positive():
    rep = theorem_hypotheses(MonomialBlocks(field_from_order(2), 2, 2), "affine")
    assert rep.applies
    assert rep.dimension == 4 and rep.dimension_ok
    assert rep.cutting_ok and rep.exclusion_ok and rep.shift_ok
    assert rep.support_spans_ok
    assert rep.zero_set_size == 9
    d = rep.to_dict()
    assert d["applies"] is True


def test_theorem_hypotheses_projective_positive():
    rep = theorem_hypotheses(MonomialBlocks(field_from_order(3), 2, 2), "projective")
    assert rep.applies
    assert rep.dimension == 3 and rep.dimension_ok
    assert rep.zero_set_size == 16  # 32 starred zeros in 2 scalar classes each


def test_theorem_hypotheses_negative_controls():
    field = field_from_order(2)
    # zero function: exclusion and shift both fail
    zero = DenseTable(field, 3, [0] * 8)
    rep = theorem_hypotheses(zero, "affine")
    assert not rep.applies
    assert rep.cutting_ok  # the full space cuts everything
    assert not rep.exclusion_ok and rep.witnesses["contained_subspace"] is not None
    assert not rep.shift_ok
    assert not rep.support_spans_ok
    # support inside a hyperplane: spanning condition fails
    g = DenseTable(field, 3, [0, 1, 1, 1, 0, 0, 0, 0])
    rep2 = theorem_hypotheses(g, "affine")
    assert not rep2.support_spans_ok


def test_theorem_hypotheses_budget_and_modes():
    f = MonomialBlocks(field_from_order(2), 2, 2)
    with pytest.raises(BudgetExceeded):
        theorem_hypotheses(f, "affine", op_budget=10)
    with pytest.raises(ValueError):
        theorem_hypotheses(f, "bogus")
    with pytest.raises(DimensionOutOfRange):
        theorem_hypotheses(DenseTable(field_from_order(2), 1, [0, 1]), "affine")


def test_blocking_report_roundtrip():
    space = Space(field_from_order(2), 3)
    s = _hyperplane_star(space, (1, 0, 0))
    rep = blocking_report(s, 1, s=2)
    assert rep.blocking is True
    assert rep.cutting is False
    assert rep.ks_blocking is False
    d = rep.to_dict()
    assert d["set_size"] == 3
    assert d["witnesses"]["containing_subspace"] is not None
    assert d["witnesses"]["contained_subspace"] is not None


def test_blocking_report_can_skip_cutting():
    space = Space(field_from_order(2), 3)
    s = _hyperplane_star(space, (1, 0, 0))
    rep = blocking_report(s, 1, check_cutting=False)
    assert rep.blocking is True
    assert rep.cutting is None
    assert rep.witnesses["trace_subspace"] is None
    assert rep.witnesses["containing_subspace"] is None
