"""The per-code class table: differential checks of the routes that read it,
one enumeration per code, and refusals before any enumeration."""

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
from helpers import literal_weightsum, naive_is_minimal, naive_weight_distribution


@st.composite
def raw_codes(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    rows = draw(st.integers(1, 4 if q <= 5 else 3))
    length = draw(st.integers(1, 8))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * length, max_size=rows * length))
    matrix = np.array(entries).reshape(rows, length)
    assume(matrix.any())
    return LinearCode(field_from_order(q), matrix)


@given(raw_codes())
# first weight-sum hit at i = 1: supp(110) inside supp(111)
@example(LinearCode(field_from_order(2), [[1, 1, 1], [0, 0, 1]]))
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


def test_split_blocks_keep_class_order(monkeypatch):
    # a block cap below one class row's span forces the recursive split
    monkeypatch.setattr(codes, "_BLOCK_ELEMS", 12)
    rows = [[1, 0, 2, 1, 0, 1], [0, 1, 1, 2, 2, 0], [2, 2, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]]
    code = LinearCode(field_from_order(3), rows)
    table = codes._class_table(code)
    for msg, support, weight in zip(table.messages, table.supports, table.weights):
        word = code.word_from_message(msg)
        assert support == sum(1 << j for j in np.nonzero(word)[0].tolist())
        assert bin(support).count("1") == weight
