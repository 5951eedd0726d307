"""The per-code class table: differential checks of the routes that read it,
one enumeration per code, and refusals before any enumeration."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import cutcodes.codes as codes
from cutcodes import (
    BudgetExceeded,
    Config,
    LinearCode,
    MonomialBlocks,
    Space,
    ab_check,
    build_affine_code,
    field_from_order,
    is_minimal,
    is_minimal_bruteforce,
    is_minimal_weightsum,
    minimal_codewords,
    weight_distribution,
)
from cutcodes.cli import main
from helpers import (
    literal_bruteforce,
    literal_minimal_words,
    literal_weightsum,
    naive_is_minimal,
    naive_weight_distribution,
)


@st.composite
def raw_codes(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    rows = draw(st.integers(1, 4 if q <= 5 else 3))
    length = draw(st.integers(1, 8))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * length, max_size=rows * length))
    matrix = np.array(entries).reshape(rows, length)
    assume(matrix.any())
    return LinearCode(field_from_order(q), matrix)


@st.composite
def long_codes(draw):
    """Codes of length 65 to 200, two to four support words, with rows
    sparse enough at the lower densities for supports to nest."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    rows = draw(st.integers(1, 4))
    length = draw(st.integers(65, 200))
    density = draw(st.sampled_from([0.02, 0.1, 0.5, 1.0]))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    matrix = rng.randint(1, q, (rows, length)) * (rng.random_sample((rows, length)) < density)
    assume(matrix.any())
    return LinearCode(field_from_order(q), matrix)


def _simplex(q, dim):
    """The simplex code: one column per projective point of GF(q)^dim, minimal."""
    space = Space(field_from_order(q), dim)
    return LinearCode(space.field, space.decode_block(space.projective_point_encodings()).T)


@given(raw_codes())
# first weight-sum hit at i = 1: supp(110) inside supp(111)
@example(LinearCode(field_from_order(2), [[1, 1, 1], [0, 0, 1]]))
# dim 1: one class, no pairs, so the scan returns before building a Space
@example(LinearCode(field_from_order(3), [[1, 2, 0]]))
# odd dim over an extension field: translate adds three one-digit groups
@example(LinearCode(field_from_order(9), [[1, 0, 0, 1, 3], [0, 1, 0, 5, 1], [0, 0, 1, 7, 8]]))
# minimal codes, scanned to the end: three digit groups (2, 2 and 1 digits),
# XOR in characteristic 2, two one-digit groups
@example(_simplex(3, 5))
@example(_simplex(2, 6))
@example(_simplex(11, 2))
def test_weightsum_matches_literal_oracle(code):
    expected = literal_weightsum(code)
    rep = is_minimal_weightsum(code)
    assert (rep.minimal, rep.witness, rep.pairs_checked) == expected
    with mock.patch.object(codes, "_SCAN_ELEMS", 1):  # one class per block
        rep = is_minimal_weightsum(code)
    assert (rep.minimal, rep.witness, rep.pairs_checked) == expected
    minimal = expected[0]
    assert is_minimal_bruteforce(code).minimal is minimal is naive_is_minimal(code)
    assert weight_distribution(code) == naive_weight_distribution(code)


@given(raw_codes())
def test_minimal_codewords_agree_with_bruteforce(code):
    words = minimal_codewords(code)
    brute = is_minimal_bruteforce(code)
    assert (len(words) == code.num_classes) is brute.minimal
    if brute.witness is not None:
        assert tuple(brute.witness["container_message"]) not in words


@given(raw_codes())
# first containment hit at i = 0: supp(100) inside supp(111)
@example(LinearCode(field_from_order(2), [[1, 1, 1], [0, 1, 1]]))
# two support words; supp(c_1) leaves supp(c_0) only in the second word
@example(LinearCode(field_from_order(2), [[1] * 64 + [0], [1] + [0] * 63 + [1]]))
def test_bruteforce_matches_literal_oracle(code):
    expected = literal_bruteforce(code)
    words = literal_minimal_words(code)
    rep = is_minimal_bruteforce(code)
    assert (rep.minimal, rep.witness, rep.pairs_checked) == expected
    assert minimal_codewords(code) == words
    with mock.patch.object(codes, "_CONTAIN_WORDS", 1):  # one class per block
        rep = is_minimal_bruteforce(code)
        assert minimal_codewords(code) == words
    assert (rep.minimal, rep.witness, rep.pairs_checked) == expected


# columns 0..127 cycle through the types (1,0,0), (1,1,1), (1,1,0), (0,0,1) and
# columns 128..149 are (0,1,0): supp(c_1) lies inside supp(c_0) on words 0
# and 1 but not on word 2, and the first hit is (3, 1), past the first block
# of the one- and three-row scans
_THREE_WORDS = LinearCode(
    field_from_order(2), np.array([(1, 0, 0), (1, 1, 1), (1, 1, 0), (0, 0, 1)] * 32 + [(0, 1, 0)] * 22).T
)


@given(long_codes())
@example(_THREE_WORDS)
def test_multiword_containment_matches_literal_oracle(code):
    expected = literal_bruteforce(code)
    words = literal_minimal_words(code)
    for cap in (codes._CONTAIN_WORDS, 1, 3 * code.num_classes):  # default, 1 and 3 rows per block
        with mock.patch.object(codes, "_CONTAIN_WORDS", cap):
            rep = is_minimal_bruteforce(code)
            assert (rep.minimal, rep.witness, rep.pairs_checked) == expected, cap
            assert minimal_codewords(code) == words, cap


@pytest.mark.parametrize("rows", [np.zeros((2, 3), dtype=int), np.zeros((1, 0), dtype=int)])
def test_zero_code_has_no_pairs(rows):
    code = LinearCode(field_from_order(2), rows)
    assert code.num_classes == 0
    for scan in (is_minimal_bruteforce, is_minimal_weightsum):
        rep = scan(code)
        assert (rep.minimal, rep.witness, rep.pairs_checked) == (True, None, 0)
    assert minimal_codewords(code) == []
    ab = ab_check(code)
    assert (ab.satisfied, ab.method, ab.w_min, ab.w_max) == (None, "distribution", None, None)


def test_weightsum_memory_stays_near_the_lookup():
    # 5,113 classes over GF(71), within the default pair budget: the weight
    # lookup holds 71^3 int64 entries (2.9 MB); a digit-sum table over
    # q^(dim+1) entries would take 194 MB
    field = field_from_order(71)
    rows = [[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 1, 3]]
    tracemalloc.start()
    try:
        rep = is_minimal_weightsum(LinearCode(field, rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    brute = is_minimal_bruteforce(LinearCode(field, rows))
    assert rep.minimal is brute.minimal is False
    assert rep.witness == brute.witness
    assert peak < 64 * 2**20


def test_class_table_memory_of_a_long_code():
    # affine (3,6,1): 1,093 classes of length 728; the table build gathers
    # through narrow FieldOps tables, and intp ones would peak at 3.33 MiB
    code = build_affine_code(MonomialBlocks(field_from_order(3), 6, 1))
    tracemalloc.start()
    try:
        weight_distribution(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.8 * 2**20


def _count_enumerations(monkeypatch):
    calls = []
    original = codes._class_blocks

    def counted(code):
        calls.append(code)
        return original(code)

    monkeypatch.setattr(codes, "_class_blocks", counted)
    return calls


def test_one_enumeration_per_code(monkeypatch, capsys):
    calls = _count_enumerations(monkeypatch)
    assert main(["analyze", "--q", "3", "--r", "2", "--k", "2", "--json"]) == 0
    assert len(calls) == 1
    code = build_affine_code(MonomialBlocks(field_from_order(3), 2, 2))
    weight_distribution(code)
    ab_check(code)
    is_minimal(code, "both")
    minimal_codewords(code)
    assert len(calls) == 2


def test_over_budget_analyze_refuses_before_enumerating(monkeypatch, capsys):
    calls = _count_enumerations(monkeypatch)
    q3 = ["analyze", "--q", "3", "--r", "2", "--k", "2", "--json"]  # length 80, 121 classes
    q9 = ["analyze", "--q", "9", "--r", "5", "--k", "1", "--projective"]  # length 7381
    cases = [
        (q3 + ["--weight-budget", "5"], "weight distribution needs about 9.68e+03 ops, budget 5.00e+00"),
        (q3 + ["--pair-budget", "5"], "brute-force scan needs about 1.16e+06 ops, budget 5.00e+00"),
        # brute force fits; only the weight-sum scan is over budget
        (q3 + ["--pair-budget", "2000000"], "weight-sum scan needs about 2.32e+06 ops, budget 2.00e+06"),
        # the weights fit; only the theorem's hypothesis scan is over budget
        (q9 + ["--minimality", "theorem"], "hypothesis scan needs about 1.00e+10 ops, budget 4.00e+09"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"over budget: {message}\n"
    assert calls == []


def test_is_minimal_both_refuses_before_enumerating(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    code = build_affine_code(MonomialBlocks(field_from_order(3), 2, 2))
    with pytest.raises(BudgetExceeded, match="^weight-sum scan needs"):
        is_minimal(code, "both", Config(pair_budget=2 * 10**6))
    assert calls == []


def test_split_blocks_bound_the_columns_of_multiples(monkeypatch):
    # with q * L above the block cap the multiples of the last row come in
    # columns of at most cap bytes of indices, one per lam at the smallest
    # cap, never as one q x L array; under the cap a short row's leaf takes
    # them in several columns
    field = field_from_order(4093)
    rng = np.random.RandomState(5)
    for length, cap in [(2000, 1 << 12), (2000, 1 << 20), (8, 1 << 15)]:
        rows = rng.randint(0, 4093, (2, length))
        rows[:, :2] = [[1, 0], [0, 1]]
        whole = weight_distribution(LinearCode(field, rows))
        monkeypatch.setattr(codes, "_BLOCK_ELEMS", cap)
        code = LinearCode(field, rows)
        tracemalloc.start()
        try:
            split = weight_distribution(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert split == whole
        assert peak < 8 * 2**20  # one q x L intp array is 65 MB at length 2000


def test_split_blocks_keep_class_order(monkeypatch):
    # a block cap below one class row's span forces the recursive split
    monkeypatch.setattr(codes, "_BLOCK_ELEMS", 12)
    rows = [[1, 0, 2, 1, 0, 1], [0, 1, 1, 2, 2, 0], [2, 2, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]]
    code = LinearCode(field_from_order(3), rows)
    table = codes._class_table(code)
    assert table.bits.dtype == np.uint64 and table.bits.shape == (code.num_classes, 1)
    # bit j of the little-endian bytes is coordinate j; 64 - 6 padding bits
    unpacked = np.unpackbits(table.bits.view(np.uint8), axis=1, bitorder="little")
    assert not unpacked[:, code.length :].any()
    for msg, support, weight in zip(table.messages, unpacked, table.weights):
        word = code.word_from_message(msg)
        assert np.nonzero(support)[0].tolist() == np.nonzero(word)[0].tolist()
        assert int(support.sum()) == weight
