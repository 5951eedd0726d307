import itertools

import numpy as np
import pytest

from cutcodes import (
    BudgetExceeded,
    Config,
    DegenerateDimensionWarning,
    DenseTable,
    LinearCode,
    MonomialBlocks,
    NotScalarCompatible,
    ParseError,
    PolynomialSpec,
    Space,
    WeightStaircase,
    ab_check,
    ab_r_threshold,
    ab_ratio_satisfied,
    ab_zero_threshold,
    build_affine_code,
    build_projective_code,
    field_from_order,
    format_generator_matrix,
    is_minimal,
    is_minimal_bruteforce,
    is_minimal_theorem,
    is_minimal_weightsum,
    minimal_codewords,
    parse_generator_matrix,
    permute_columns,
    survey_family,
    weight_distribution,
    zero_set,
)
from helpers import (
    PROJ_Q3_PARAMS,
    PROJ_Q3_WMAX,
    PROJ_Q3_WMIN,
    R_CROSSOVER,
    R_MIN,
    WD_Q2_R2_K2,
    WD_Q2_R2_K3,
    WD_Q3_R2_K2,
    WD_Q3_R3_K2,
    naive_is_minimal,
    naive_weight_distribution,
)


def _block_code(q, r, k, projective=False):
    f = MonomialBlocks(field_from_order(q), r, k)
    return build_projective_code(f) if projective else build_affine_code(f)


@pytest.mark.parametrize(
    "q,r,k,projective,length,dim",
    [
        (2, 2, 2, False, 15, 5),
        (2, 2, 3, False, 63, 7),
        (3, 2, 2, False, 80, 5),
        (3, 2, 2, True, 40, 5),
        (3, 3, 2, False, 728, 7),
    ],
)
def test_block_code_parameters(q, r, k, projective, length, dim):
    code = _block_code(q, r, k, projective)
    assert (code.length, code.dim) == (length, dim)
    assert code.num_codewords == q**dim
    assert code.num_classes == (q**dim - 1) // (q - 1)


def test_staircase_code_parameters():
    f = WeightStaircase(field_from_order(5), 4, 2, [1, 2])
    code = build_affine_code(f)
    assert (code.length, code.dim) == (624, 5)


def test_frozen_weight_distributions():
    assert weight_distribution(_block_code(2, 2, 2)) == WD_Q2_R2_K2
    assert weight_distribution(_block_code(2, 2, 3)) == WD_Q2_R2_K3
    assert weight_distribution(_block_code(3, 2, 2)) == WD_Q3_R2_K2
    assert weight_distribution(_block_code(3, 3, 2)) == WD_Q3_R3_K2


def test_weight_distribution_against_naive():
    for code in [_block_code(2, 2, 2), _block_code(3, 2, 1)]:
        assert weight_distribution(code) == naive_weight_distribution(code)


def test_weight_distribution_total():
    code = _block_code(3, 2, 2, projective=True)
    wd = weight_distribution(code)
    assert sum(wd.values()) == code.num_codewords
    assert wd[0] == 1
    assert min(w for w in wd if w) == PROJ_Q3_WMIN
    assert max(wd) == PROJ_Q3_WMAX
    assert (code.length, code.dim) == PROJ_Q3_PARAMS


def test_word_and_message_agree():
    code = _block_code(3, 2, 2)
    for u in range(3):
        for v in itertools.product(range(3), repeat=4):
            w1 = code.word(u, v)
            w2 = code.word_from_message((u,) + v)
            assert np.array_equal(w1, w2)


def test_word_weight_laws():
    # pure-coordinate words have the weight of a punctured hyperplane
    # complement; pure-function words weigh length minus the zero count
    for q, r, k in [(2, 2, 2), (3, 2, 2)]:
        code = _block_code(q, r, k)
        n = r * k
        for i in range(n):
            v = [0] * n
            v[i] = 1
            assert (code.word(0, v) != 0).sum() == q**n - q ** (n - 1)
        zero_star = (code.rows[0] == 0).sum()
        for u in range(1, q):
            assert (code.word(u, [0] * n) != 0).sum() == code.length - zero_star


def test_word_validation():
    code = _block_code(2, 2, 2)
    with pytest.raises(ValueError):
        code.word(1, [0, 0])
    with pytest.raises(ValueError):
        code.word_from_message([1, 0])
    raw = LinearCode(field_from_order(2), [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        raw.word(1, [0, 0])


def test_degenerate_dimension_warns():
    field = field_from_order(3)
    lin = PolynomialSpec(field, 2, [(1, (1, 0))])  # f = x1
    with pytest.warns(DegenerateDimensionWarning):
        code = build_affine_code(lin)
    assert code.dim == 2
    zero = DenseTable(field, 2, [0] * 9)
    with pytest.warns(DegenerateDimensionWarning):
        code0 = build_affine_code(zero)
    assert code0.dim == 2


def test_projective_build_requires_compatibility():
    g = DenseTable(field_from_order(3), 2, [0, 1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(NotScalarCompatible):
        build_projective_code(g)


def test_minimality_frozen_verdicts():
    for q, r, k, projective in [(2, 2, 2, False), (3, 2, 2, False), (3, 2, 2, True)]:
        code = _block_code(q, r, k, projective)
        rep = is_minimal(code, "both")
        assert rep.minimal is True
        assert rep.method == "bruteforce+weightsum"
        assert rep.witness is None
        assert naive_is_minimal(code)


def test_minimality_routes_on_nonminimal_code():
    # 111 contains both 100 and 011
    code = LinearCode(field_from_order(2), [[1, 0, 0], [0, 1, 1]])
    brute = is_minimal_bruteforce(code)
    wsum = is_minimal_weightsum(code)
    assert brute.minimal is False and wsum.minimal is False
    assert not naive_is_minimal(code)
    for rep in (brute, wsum):
        container = code.word_from_message(rep.witness["container_message"])
        contained = code.word_from_message(rep.witness["contained_message"])
        s_container = set(np.nonzero(container)[0].tolist())
        s_contained = set(np.nonzero(contained)[0].tolist())
        assert s_contained <= s_container
        assert s_contained != s_container or not np.array_equal(container, contained)
    # deterministic witnesses per route
    assert is_minimal_bruteforce(code).witness == brute.witness
    assert is_minimal_weightsum(code).witness == wsum.witness
    both = is_minimal(code, "both")
    assert both.minimal is False and both.witness == brute.witness


def test_method_table_lists_every_method_in_fallback_order():
    import cutcodes.codes as codes

    assert list(codes.METHOD_ROUTES) == ["both", "brute", "weightsum", "theorem"]


def test_both_reads_its_routes_by_module_name(monkeypatch):
    # a rebinding of a route's module-level name (as a tracer does) is what
    # is_minimal runs; here it makes the two routes disagree
    import cutcodes.codes as codes

    code = _block_code(2, 2, 2)
    flipped = codes.MinimalityReport(False, "weightsum")
    monkeypatch.setattr(codes, "is_minimal_weightsum", lambda code, config=None: flipped)
    with pytest.raises(RuntimeError, match="^minimality routes disagree: bruteforce=True, weightsum=False$"):
        is_minimal(code, "both")
    assert is_minimal(code, "weightsum") is flipped


def test_report_dicts_keep_their_keys():
    from cutcodes import blocking_report, theorem_hypotheses, zero_set

    f = MonomialBlocks(field_from_order(2), 2, 2)
    code = build_affine_code(f)
    reports = {
        "minimality": (is_minimal(code, "both"), ["minimal", "method", "pairs_checked", "witness", "notes"]),
        "ab": (ab_check(code), ["satisfied", "method", "w_min", "w_max", "zero_count", "threshold", "threshold_hit"]),
        "blocking": (
            blocking_report(zero_set(f, "affine_star"), 1, s=2),
            ["flavor", "k", "s", "set_size", "dimension", "blocking", "cutting", "ks_blocking", "witnesses"],
        ),
        "theorem": (
            theorem_hypotheses(f, "affine"),
            ["mode", "zero_set_size", "dimension", "dimension_ok", "cutting_ok", "exclusion_ok",
             "shift_ok", "support_spans_ok", "applies", "witnesses"],
        ),
    }
    for name, (rep, keys) in reports.items():
        d = rep.to_dict()
        assert list(d) == keys, name
        assert all(d[key] == getattr(rep, key) for key in keys), name
        d.clear()  # a copy: the report keeps its fields
        assert rep.to_dict() == {key: getattr(rep, key) for key in keys}, name
    ab = reports["ab"][0]
    assert ab.weights == weight_distribution(code)


def test_minimality_theorem_route():
    code = _block_code(2, 2, 2)
    rep = is_minimal_theorem(code)
    assert rep.minimal is True and rep.method == "theorem"
    assert is_minimal(code, "theorem").minimal is True
    # theorem gives no verdict when hypotheses fail, rather than False
    field = field_from_order(2)
    g = DenseTable(field, 3, [0, 0, 1, 1, 1, 1, 1, 1])
    bad = build_affine_code(g)
    rep2 = is_minimal_theorem(bad)
    assert rep2.minimal is None
    raw = LinearCode(field, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        is_minimal_theorem(raw)
    with pytest.raises(ValueError):
        is_minimal(code, "bogus")


def test_minimal_codewords():
    code = LinearCode(field_from_order(2), [[1, 0, 0], [0, 1, 1]])
    assert minimal_codewords(code) == [(1, 0), (0, 1)]
    full = _block_code(2, 2, 2)
    assert len(minimal_codewords(full)) == full.num_classes


def test_ab_ratio_exact_arithmetic():
    assert ab_ratio_satisfied(6, 10, 2)
    assert not ab_ratio_satisfied(6, 12, 2)  # boundary is a strict inequality
    assert not ab_ratio_satisfied(336, 516, 3)
    assert ab_ratio_satisfied(48, 57, 3)


def test_ab_zero_threshold_values():
    assert ab_zero_threshold(2, 4) == 2 * 8 - 4 - 1
    assert ab_zero_threshold(3, 6) == 2 * 243 - 81 - 1
    assert ab_zero_threshold(3, 4, "projective") == (2 * 27 - 9 - 1) // 2
    with pytest.raises(ValueError):
        ab_zero_threshold(2, 1)
    with pytest.raises(ValueError):
        ab_zero_threshold(2, 4, "bogus")


def test_ab_check_distribution():
    rep = ab_check(_block_code(2, 2, 2))
    assert rep.satisfied is True and rep.method == "distribution"
    assert (rep.w_min, rep.w_max) == (6, 10)
    assert rep.zero_count == 9 and rep.threshold == 11 and rep.threshold_hit is False
    rep3 = ab_check(_block_code(3, 3, 2))
    assert rep3.satisfied is False
    assert (rep3.w_min, rep3.w_max) == (336, 516)


def test_ab_check_threshold_fallback():
    # r=3, k=2 over GF(2): 49 punctured zeros tops the 47 threshold, so the
    # verdict survives even when the distribution is out of budget
    code = _block_code(2, 3, 2)
    rep = ab_check(code, Config(weight_budget=10))
    assert rep.satisfied is False and rep.method == "threshold"
    assert rep.zero_count == 49 and rep.threshold == 47
    # below the threshold nothing can be concluded without the distribution
    rep2 = ab_check(_block_code(2, 2, 2), Config(weight_budget=10))
    assert rep2.satisfied is None and rep2.method == "none"


@pytest.mark.parametrize("projective", [False, True])
def test_ab_check_takes_no_threshold_verdict_when_f_vanishes_on_every_column(projective):
    # f = 0: every nonzero codeword is some v.x, of weight 18 affine or 9
    # projective, so the ratio holds; the zero count reaches the threshold
    # only because u*f is the zero word, which the threshold argument excludes
    f = DenseTable(field_from_order(3), 3, [0] * 27)
    builder = build_projective_code if projective else build_affine_code
    with pytest.warns(DegenerateDimensionWarning):
        code = builder(f)
    weight = 9 if projective else 18
    exact = ab_check(code)
    assert (exact.satisfied, exact.method, exact.w_min, exact.w_max) == (True, "distribution", weight, weight)
    blind = ab_check(code, Config(weight_budget=0))
    assert (blind.satisfied, blind.method) == (None, "none")
    for rep in (exact, blind):
        assert (rep.zero_count, rep.threshold, rep.threshold_hit) == (code.length, None, None)


def test_ab_check_takes_no_threshold_verdict_on_a_raw_code_with_a_function():
    # the [15,4] simplex code over GF(2): its columns are the 15 nonzero
    # points of GF(2)^4, so every nonzero weight is 8 and the ratio holds.
    # Its rows hold no f row, so x1*x2*x3*x4 vanishing on 14 of the points
    # (past the affine threshold 11) says nothing about its weights
    field = field_from_order(2)
    rows = [[(x >> i) & 1 for x in range(1, 16)] for i in range(4)]
    code = LinearCode(field, rows, mode="raw", ambient_n=4, function=MonomialBlocks(field, 4, 1))
    exact = ab_check(code)
    assert (exact.satisfied, exact.method, exact.w_min, exact.w_max) == (True, "distribution", 8, 8)
    blind = ab_check(code, Config(weight_budget=0))
    assert (blind.satisfied, blind.method) == (None, "none")
    for rep in (exact, blind):
        assert (rep.zero_count, rep.threshold, rep.threshold_hit) == (None, None, None)


_SURVEY_FAMILIES = {2: ([2, 3, 4], 2), 3: ([2, 3], 1)}


@pytest.mark.parametrize("q", sorted(_SURVEY_FAMILIES))
@pytest.mark.parametrize("mode", ["affine", "projective"])
def test_survey_rows_agree_with_is_minimal_and_ab_check(q, mode):
    r_values, k = _SURVEY_FAMILIES[q]
    rows = survey_family(q, r_values, k, mode)
    assert [row["r"] for row in rows] == r_values
    for row in rows:
        code = _block_code(q, row["r"], k, projective=mode == "projective")
        minimality = is_minimal(code, "both")
        ab = ab_check(code)
        assert (row["minimal"], row["minimality_method"]) == (minimality.minimal, minimality.method)
        assert (row["ab_satisfied"], row["ab_method"], row["w_min"], row["w_max"]) == (
            ab.satisfied, ab.method, ab.w_min, ab.w_max
        )
        assert (row["zero_count"], row["threshold"], row["threshold_hit"]) == (
            ab.zero_count, ab.threshold, ab.threshold_hit
        )
        assert row["minimality_method"] == "bruteforce+weightsum" and row["ab_method"] == "distribution"


def test_survey_reaches_each_fallback():
    [row] = survey_family(3, [2], 2, config=Config(pair_budget=2_000_000))
    assert (row["minimality_method"], row["ab_method"]) == ("bruteforce", "distribution")
    assert row["minimal"] is is_minimal(_block_code(3, 2, 2), "brute").minimal
    rows = survey_family(2, [2, 3], 2, "projective", Config(pair_budget=1000, weight_budget=1000))
    assert [row["minimality_method"] for row in rows] == ["theorem", "theorem"]
    assert [row["minimal"] for row in rows] == [True, True]
    # r = 2 still admits the weight distribution: 31 classes x 15 columns = 465 ops
    assert [(row["ab_method"], row["ab_satisfied"]) for row in rows] == [("distribution", True), ("threshold", False)]


def test_survey_enumerates_each_built_zero_set_once(monkeypatch):
    import cutcodes.codes as codes

    calls = []

    def counted(f, mode):
        calls.append((f.r, mode))
        return zero_set(f, mode)

    monkeypatch.setattr(codes, "zero_set", counted)
    # r = 4 has 255 points, past the cap, so its code is never built
    rows = survey_family(2, [2, 3, 4], 2, config=Config(point_cap=100))
    assert [row["dim"] for row in rows] == [5, 7, 9]
    assert calls == [(2, "affine_star"), (3, "affine_star")]


def test_ab_r_threshold_frozen():
    for q in (2, 3):
        value, r_min = ab_r_threshold(q)
        assert abs(value - R_CROSSOVER[q]) < 1e-9
        assert r_min == R_MIN[q]
    with pytest.raises(ValueError):
        ab_r_threshold(1)


def test_generator_matrix_roundtrip_affine():
    code = _block_code(2, 2, 2)
    text = format_generator_matrix(code)
    assert text.splitlines()[0] == "2 15 5 affine"
    back = parse_generator_matrix(text)
    assert back.mode == "affine" and back.ambient_n == 4
    assert np.array_equal(back.rows, code.rows)
    assert weight_distribution(back) == weight_distribution(code)


def test_generator_matrix_roundtrip_projective_and_gf4():
    proj = _block_code(3, 2, 2, projective=True)
    back = parse_generator_matrix(format_generator_matrix(proj))
    assert back.mode == "projective" and back.length == 40
    assert np.array_equal(back.columns, proj.columns)
    gf4 = build_affine_code(MonomialBlocks(field_from_order(4), 2, 1))
    text = format_generator_matrix(gf4)
    assert text.splitlines()[0] == "4 15 3 affine 1 1 1"
    back4 = parse_generator_matrix(text)
    assert back4.field == gf4.field
    assert np.array_equal(back4.rows, gf4.rows)


def test_generator_matrix_degenerate_exports_raw():
    field = field_from_order(3)
    with pytest.warns(DegenerateDimensionWarning):
        code = build_affine_code(PolynomialSpec(field, 2, [(1, (1, 0))]))
    text = format_generator_matrix(code)
    assert text.splitlines()[0].endswith(" raw")
    back = parse_generator_matrix(text)
    assert back.mode == "raw" and back.dim == code.dim


def test_generator_matrix_parse_errors():
    good = format_generator_matrix(_block_code(2, 2, 2))
    with pytest.raises(ParseError):
        parse_generator_matrix("")
    with pytest.raises(ParseError):
        parse_generator_matrix("2 3\n1 0 1\n")  # short header
    with pytest.raises(ParseError):
        parse_generator_matrix("2 3 1 bogus\n1 0 1\n")
    with pytest.raises(ParseError):
        parse_generator_matrix("6 3 1 raw\n1 0 1\n")  # bad order
    with pytest.raises(ParseError):
        parse_generator_matrix("2 3 2 raw\n1 0 1\n")  # missing row
    with pytest.raises(ParseError):
        parse_generator_matrix("2 3 1 raw\n1 0 2\n")  # entry out of range
    with pytest.raises(ParseError):
        parse_generator_matrix("2 3 1 raw\n1 0\n")  # short row
    with pytest.raises(ParseError):
        parse_generator_matrix("2 3 2 raw\n1 0 1\n1 0 1\n")  # rank below header
    with pytest.raises(ParseError):
        parse_generator_matrix("2 3 0 raw\n")  # dim 0, no rows
    with pytest.raises(ParseError):
        # affine head with a non-matching length
        parse_generator_matrix("2 3 5 affine\n" + "\n".join(["1 0 1"] * 5) + "\n")
    # comments and blank lines are fine
    assert parse_generator_matrix("# c\n" + good).dim == 5


def test_permute_columns_invariance():
    code = _block_code(3, 2, 2)
    rng = np.random.RandomState(11)
    perm = rng.permutation(code.length)
    shuffled = permute_columns(code, perm)
    assert weight_distribution(shuffled) == weight_distribution(code)
    assert is_minimal_bruteforce(shuffled).minimal is True
    with pytest.raises(ValueError):
        permute_columns(code, [0, 1])
    with pytest.raises(ValueError):
        permute_columns(code, [0] * code.length)


def test_budget_guards():
    f = MonomialBlocks(field_from_order(2), 2, 2)
    with pytest.raises(BudgetExceeded):
        build_affine_code(f, Config(point_cap=3))
    code = build_affine_code(f)
    with pytest.raises(BudgetExceeded):
        weight_distribution(code, Config(weight_budget=5))
    with pytest.raises(BudgetExceeded):
        is_minimal_bruteforce(code, Config(pair_budget=5))
    with pytest.raises(BudgetExceeded):
        is_minimal_weightsum(code, Config(pair_budget=5))
    with pytest.raises(BudgetExceeded):
        build_projective_code(f, Config(point_cap=3))


def test_raw_code_basics():
    rows = [[1, 0, 1], [1, 0, 1], [0, 1, 0]]
    code = LinearCode(field_from_order(2), rows)
    assert code.dim == 2  # duplicate row dropped from the basis
    assert code.length == 3
    assert code.num_classes == 3
    with pytest.raises(ValueError):
        LinearCode(field_from_order(2), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        LinearCode(field_from_order(2), [[1, 0]], mode="bogus")
    # entries and normal coordinates outside 0..q-1 are refused, not read mod p
    for q, rows, bad in [
        (3, [[1, 5, 0], [0, 1, 1]], 5),
        (4, [[1, 5, 0], [0, 1, 1]], 5),
        (3, [[1, -1, 0], [0, 1, 1]], -1),
        (3, np.array([[1, 0, 0], [0, 1, -2]]), -2),
    ]:
        with pytest.raises(ValueError, match=f"entry {bad} outside 0..{q - 1}"):
            LinearCode(field_from_order(q), rows)
    space = Space(field_from_order(3), 2)
    for v, bad in [((1, 4), 4), ((-1, 1), -1)]:
        with pytest.raises(ValueError, match=f"coordinate {bad} outside 0..2"):
            space.hyperplane(v)


def test_non_integral_entries_are_refused():
    gf3 = field_from_order(3)
    for rows, bad in [([[1.5, 0, 1], [0, 1, 2.9]], 1.5), (np.array([[1, 0, 1], [0, np.nan, 2]]), "nan")]:
        with pytest.raises(ValueError, match=f"entry {bad} is not an integer"):
            LinearCode(gf3, rows)
    # integral entries of any dtype read as before
    want = LinearCode(gf3, [[1, 0, 1], [0, 1, 2]]).rows
    for dtype in (np.float64, np.float32, np.uint8, np.int16, object):
        assert np.array_equal(LinearCode(gf3, np.array([[1, 0, 1], [0, 1, 2]], dtype=dtype)).rows, want)
