import itertools

import numpy as np
import pytest

from cutcodes import (
    DimensionOutOfRange,
    ParseError,
    PointSet,
    Space,
    SubspaceBasis,
    field_from_order,
    gaussian_binomial,
    load_point_set,
    parse_point_set,
    save_point_set,
)
import cutcodes.geometry as geometry
from cutcodes.geometry import format_point_set

from helpers import difference, intersection, span_dim, subset_of, subspace_contains, union


def test_gaussian_binomial_values():
    # small values checkable by hand: chains of subspace counts
    assert gaussian_binomial(1, 0, 2) == 1
    assert gaussian_binomial(1, 1, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(2, 1, 9) == 10
    # symmetry and out-of-range
    for n in range(1, 5):
        for d in range(n + 1):
            assert gaussian_binomial(n, d, 3) == gaussian_binomial(n, n - d, 3)
    assert gaussian_binomial(3, 4, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


def _naive_gaussian(n, d, q):
    # product formula evaluated with exact integers
    num = 1
    den = 1
    for i in range(d):
        num *= q**n - q**i
        den *= q**d - q**i
    return num // den if d else 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gaussian_binomial_product_formula(q):
    for n in range(7):
        for d in range(n + 1):
            assert gaussian_binomial(n, d, q) == _naive_gaussian(n, d, q)


def test_encode_decode_roundtrip():
    space = Space(field_from_order(3), 3)
    for coords in itertools.product(range(3), repeat=3):
        e = space.encode(coords)
        assert space.decode(e) == coords
    # first coordinate least significant
    assert space.encode((1, 0, 0)) == 1
    assert space.encode((0, 1, 0)) == 3
    assert space.encode((0, 0, 2)) == 18


def test_point_counts():
    space = Space(field_from_order(3), 4)
    assert space.num_affine_points() == 80
    assert space.num_projective_points() == 40
    assert len(space.affine_point_encodings()) == 80
    assert len(space.projective_point_encodings()) == 40
    space2 = Space(field_from_order(4), 2)
    assert space2.num_projective_points() == 5


def test_canonical_representative():
    field = field_from_order(5)
    space = Space(field, 3)
    for coords in itertools.product(range(5), repeat=3):
        if not any(coords):
            continue
        rep = space.canonical_representative(coords)
        # first nonzero coordinate is one
        lead = next(c for c in rep if c != 0)
        assert lead == 1
        # rep is a scalar multiple of coords
        scalars = {
            a
            for a in field.nonzero_elements()
            if all(field.mul(a, c) == r for c, r in zip(coords, rep))
        }
        assert scalars
        # idempotent
        assert space.canonical_representative(rep) == rep


def test_projective_reps_are_canonical_partition():
    field = field_from_order(3)
    space = Space(field, 3)
    reps = {tuple(space.decode(int(e))) for e in space.projective_point_encodings()}
    seen = set()
    for coords in itertools.product(range(3), repeat=3):
        if any(coords):
            seen.add(space.canonical_representative(coords))
    assert reps == seen
    assert len(reps) == 13


@pytest.mark.parametrize(
    "q,n,d",
    [(2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 3, 1), (3, 3, 2), (5, 2, 1), (4, 3, 2)],
)
def test_subspace_enumeration_matches_count(q, n, d):
    space = Space(field_from_order(q), n)
    subs = list(space.subspaces(d))
    assert len(subs) == space.subspace_count(d) == gaussian_binomial(n, d, q)
    # canonical RREF bases are mutually distinct
    assert len({s.rows for s in subs}) == len(subs)
    for s in subs:
        assert s.dim == d
        assert len(s.point_encodings()) == q**d
        assert 0 in s.point_encodings()


def test_subspace_point_sets_partition_projective_points():
    # every projective point lies in exactly gauss(n-1, d-1) subspaces of dim d
    q, n, d = 3, 3, 2
    space = Space(field_from_order(q), n)
    hits = {int(e): 0 for e in space.projective_point_encodings()}
    for sub in space.subspaces(d):
        for e in sub.point_encodings():
            coords = space.decode(int(e))
            if any(coords):
                rep = space.canonical_representative(coords)
                if rep == coords:
                    hits[int(e)] += 1
    expected = gaussian_binomial(n - 1, d - 1, q)
    assert set(hits.values()) == {expected}


def test_subspace_contains_its_points_only():
    space = Space(field_from_order(2), 4)
    sub = next(iter(space.subspaces(2)))
    inside = {int(e) for e in sub.point_encodings()}
    for e in range(16):
        assert subspace_contains(sub, space.decode(e)) == (e in inside)


def test_hyperplane_normal_roundtrip():
    field = field_from_order(3)
    space = Space(field, 3)
    for sub in space.subspaces(2):
        v = sub.normal()
        # v is canonical and orthogonal to the whole basis
        assert space.canonical_representative(v) == v
        for row in sub.rows:
            assert space.dot(row, v) == 0
        # hyperplane(v) reproduces the subspace's nonzero points
        hp = space.hyperplane(v)
        assert hp == sub.point_set(punctured=True)


def test_hyperplane_punctured_flag():
    space = Space(field_from_order(2), 3)
    punct = space.hyperplane((1, 0, 0))
    full = space.hyperplane((1, 0, 0), punctured=False)
    assert len(punct) == 3
    assert len(full) == 4
    assert not punct.has_origin()
    assert full.has_origin()


def test_dot_all_matches_dot():
    field = field_from_order(4)
    space = Space(field, 2)
    v = (2, 3)
    table = space.dot_all(v)
    for e in range(16):
        assert int(table[e]) == space.dot(space.decode(e), v)


def test_span_dim():
    space = Space(field_from_order(3), 4)
    assert span_dim(space, []) == 0
    assert span_dim(space, [(1, 0, 0, 0)]) == 1
    assert span_dim(space, [(1, 0, 0, 0), (2, 0, 0, 0)]) == 1
    assert span_dim(space, [(1, 2, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)]) == 2


def test_subspace_count_out_of_range():
    space = Space(field_from_order(2), 3)
    with pytest.raises(DimensionOutOfRange):
        space.subspace_count(4)
    with pytest.raises(DimensionOutOfRange):
        list(space.subspaces(-1))


def test_point_set_operations():
    space = Space(field_from_order(2), 3)
    a = PointSet.from_encodings(space, [1, 2, 3])
    b = PointSet.from_encodings(space, [3, 4])
    assert len(a) == 3
    assert 2 in a and 4 not in a
    assert sorted(union(a, b).encodings()) == [1, 2, 3, 4]
    assert sorted(intersection(a, b).encodings()) == [3]
    assert sorted(difference(a, b).encodings()) == [1, 2]
    assert subset_of(intersection(a, b), a)
    assert not subset_of(a, b)
    assert PointSet.from_points(space, [(1, 0, 0), (0, 1, 0)]) == PointSet.from_encodings(
        space, [1, 2]
    )


def test_point_set_origin_handling():
    space = Space(field_from_order(3), 2)
    s = PointSet.from_encodings(space, [0, 1, 5])
    assert s.has_origin()
    t = s.without_origin()
    assert not t.has_origin()
    assert len(t) == 2


def test_point_set_io_roundtrip(tmp_path):
    space = Space(field_from_order(9), 2)
    pset = PointSet.from_points(space, [(1, 0), (3, 7), (0, 8)])
    path = tmp_path / "points.txt"
    save_point_set(path, pset)
    space2, loaded = load_point_set(path)
    assert loaded == pset
    assert space2.field == space.field
    # header carries the modulus for extension fields
    assert format_point_set(pset).splitlines()[0].startswith("9 2 ")


def test_point_set_io_prime_field(tmp_path):
    space = Space(field_from_order(7), 3)
    pset = PointSet.from_encodings(space, [1, 10, 100])
    path = tmp_path / "p.txt"
    save_point_set(path, pset)
    _, loaded = load_point_set(path)
    assert sorted(loaded.encodings()) == [1, 10, 100]


def test_point_set_parse_errors():
    with pytest.raises(ParseError):
        parse_point_set("")  # no header
    with pytest.raises(ParseError):
        parse_point_set("6 2\n1 0\n")  # not a prime power
    with pytest.raises(ParseError):
        parse_point_set("3 2\n1 0\n1 0\n")  # duplicate point
    with pytest.raises(ParseError):
        parse_point_set("3 2\n1 0 0\n")  # wrong arity
    with pytest.raises(ParseError):
        parse_point_set("3 2\n4 0\n")  # digit out of range
    with pytest.raises(ParseError):
        parse_point_set("x 2\n")  # non-integer header


# messages frozen from the line-by-line parser; comment and blank lines
# count toward the line numbers
@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n1 0\n# note\n\n1 2 0\n2 2\n", "line 5: expected 2 coordinates"),
        ("3 2\n1 0\n1 x\n2 2\n", "line 3: non-integer coordinate"),
        ("3 2\n\u0662 0\n1\u00a01\n0 \u00b2\n", "line 4: non-integer coordinate"),
        ("3 2\n1 0\n5 7\n2 2\n", "line 3: coordinate 7 outside 0..2"),
        ("3 2\n+1 0\n0 -1\n", "line 3: coordinate -1 outside 0..2"),
        ("3 1\n2\n12345678901234567\n0\n", "line 3: coordinate 12345678901234567 outside 0..2"),
        (
            "3 2\n1 0\n99999999999999999999 1\n2 x\n",
            "line 3: coordinate 99999999999999999999 outside 0..2",
        ),
        ("3 2\n1 0\n2 2\n+1 0  # same point\n0 1\n", "line 4: duplicate point (1, 0)"),
        # of two repeated points, the one whose repeat comes first
        ("3 2\n1 0\n0 1\n0 1\n1 0\n", "line 4: duplicate point (0, 1)"),
        # two errors in one file: the first line wins, whatever the kinds
        ("3 2\n1 0\n1 0\n0 1\n1.5 0\n", "line 3: duplicate point (1, 0)"),
        ("3 2\n0 1\n2 3\n1 1\n1\n", "line 3: coordinate 3 outside 0..2"),
        ("3 2\n0 1\n1\n2 3\n", "line 3: expected 2 coordinates"),
        ("3 2\n1 1\n1 y\n1 1\n", "line 3: non-integer coordinate"),
        # tokens of different widths
        ("16 2\n15 3\n3 15\n2 16\n", "line 4: coordinate 16 outside 0..15"),
        ("16 2\n15 3\n3 15\n15 3\n", "line 4: duplicate point (15, 3)"),
    ],
)
@pytest.mark.parametrize("vector_tokens", [0, None])  # numpy digits / the default
def test_point_set_parse_error_messages(monkeypatch, text, message, vector_tokens):
    if vector_tokens is not None:
        monkeypatch.setattr(geometry, "_VECTOR_TOKENS", vector_tokens)
    with pytest.raises(ParseError) as err:
        parse_point_set(text)
    assert str(err.value) == message


@pytest.mark.parametrize("vector_tokens", [0, None])
def test_point_set_parse_token_widths(monkeypatch, vector_tokens):
    if vector_tokens is not None:
        monkeypatch.setattr(geometry, "_VECTOR_TOKENS", vector_tokens)
    space, pset = parse_point_set("16 2\n15 3\n3 15\n  10\t00000 # last\n")
    assert sorted(pset.encodings().tolist()) == [10, 63, 243]


def test_point_set_parse_comments_and_blanks():
    space, pset = parse_point_set("# comment\n2 3\n\n1 0 0\n# another\n0 1 1\n")
    assert space.n == 3
    assert len(pset) == 2


def test_subspace_basis_equality():
    space = Space(field_from_order(2), 3)
    subs = list(space.subspaces(2))
    assert subs[0] == subs[0]
    assert subs[0] != subs[1]
    assert len({hash(s) for s in subs}) > 1
