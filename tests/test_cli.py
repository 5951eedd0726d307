import json
import subprocess
import sys

import pytest

from cutcodes import (
    DenseTable,
    MonomialBlocks,
    build_affine_code,
    field_from_order,
    save_function_table,
    save_point_set,
    zero_set,
)
from cutcodes.cli import main
from helpers import WD_Q2_R2_K2


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_text_and_out(tmp_path, capsys):
    target = tmp_path / "gen.txt"
    code, out, _ = run_cli(
        capsys, "build", "--q", "2", "--family", "frk", "--r", "2", "--k", "2",
        "--out", str(target),
    )
    assert code == 0
    assert "length: 15" in out and "dim: 5" in out
    assert target.read_text().splitlines()[0] == "2 15 5 affine"


def test_build_defaults_to_block_family(capsys):
    code, out, _ = run_cli(capsys, "build", "--q", "3", "--r", "2", "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 80 and payload["dim"] == 5


def test_build_staircase_and_projective(capsys):
    code, out, _ = run_cli(
        capsys, "build", "--q", "3", "--family", "staircase",
        "--n", "4", "--k", "2", "--alphas", "1,2", "--projective", "--json",
    )
    assert code == 0
    assert json.loads(out)["length"] == 40


def test_build_from_table_file(tmp_path, capsys):
    f = MonomialBlocks(field_from_order(2), 2, 2)
    table = tmp_path / "f.txt"
    save_function_table(table, f)
    code, out, _ = run_cli(capsys, "build", "--table", str(table), "--json")
    assert code == 0
    assert json.loads(out)["length"] == 15


def test_build_polyzero(tmp_path, capsys):
    poly = tmp_path / "poly.txt"
    poly.write_text("3 2\n1 1 1\n")  # x1 * x2
    code, out, _ = run_cli(
        capsys, "build", "--family", "polyzero", "--poly", str(poly),
        "--projective", "--json",
    )
    assert code == 0
    assert json.loads(out)["length"] == 4


def test_analyze_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--q", "2", "--family", "frk", "--r", "2", "--k", "2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"length", "dim", "weights", "minimal", "method", "ab"}
    assert payload["length"] == 15 and payload["dim"] == 5
    assert payload["weights"] == {str(w): c for w, c in WD_Q2_R2_K2.items()}
    assert payload["minimal"] is True
    assert payload["method"] == "bruteforce+weightsum"
    assert payload["ab"] == {"w_min": 6, "w_max": 10, "satisfied": True}


def test_analyze_expectations_pass(capsys):
    code, _, _ = run_cli(
        capsys, "analyze", "--q", "2", "--family", "frk", "--r", "3", "--k", "2",
        "--minimality", "brute", "--expect-minimal", "--expect-ab-fail",
    )
    assert code == 0


def test_analyze_expect_minimal_fails(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 3 2 raw\n1 0 0\n0 1 1\n")
    code, _, err = run_cli(
        capsys, "analyze", "--in", str(matrix), "--minimality", "brute",
        "--expect-minimal",
    )
    assert code == 1
    assert "not verified minimal" in err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["expectation"] == "minimal" and payload["minimal"] is False
    assert payload["witness"] is not None


def test_analyze_expect_ab_fail_fails(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--q", "2", "--family", "frk", "--r", "2", "--k", "2",
        "--minimality", "brute", "--expect-ab-fail",
    )
    assert code == 1
    assert "not violated" in err
    payload = json.loads(err.strip().splitlines()[-1])
    # the stderr witness carries the exact integers that decide the ratio
    assert payload["w_max"] * (payload["q"] - 1) < payload["w_min"] * payload["q"]


def test_analyze_weights_and_ab_flags_gate_text_output(capsys):
    argv = ["analyze", "--q", "2", "--family", "frk", "--r", "2", "--k", "2",
            "--minimality", "brute"]
    code, out, _ = run_cli(capsys, *argv, "--weights")
    assert code == 0
    assert '"8": 15' in out
    assert "ratio condition" not in out
    code, out, _ = run_cli(capsys, *argv, "--ab")
    assert code == 0
    assert "weights:" not in out
    assert "ratio condition: w_min=6 w_max=10 satisfied=True" in out


def test_analyze_failed_minimality_witness_reverifies(tmp_path, capsys):
    field = field_from_order(2)
    f = DenseTable(field, 2, [0, 0, 0, 1])  # x1 * x2, a non-minimal [3,3] code
    table = tmp_path / "f.txt"
    save_function_table(table, f)
    code, _, err = run_cli(
        capsys, "analyze", "--table", str(table), "--minimality", "brute",
        "--expect-minimal",
    )
    assert code == 1
    witness = json.loads(err.strip().splitlines()[-1])["witness"]
    built = build_affine_code(DenseTable(field, 2, [0, 0, 0, 1]))
    container = built.word_from_message(witness["container_message"])
    contained = built.word_from_message(witness["contained_message"])
    assert set(i for i, t in enumerate(contained) if t) <= set(
        i for i, t in enumerate(container) if t
    )
    assert list(container) != list(contained)


def test_analyze_theorem_method(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--q", "2", "--family", "frk", "--r", "2", "--k", "2",
        "--minimality", "theorem", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal"] is True and payload["method"] == "theorem"


def test_analyze_theorem_needs_function(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 3 2 raw\n1 0 0\n0 1 1\n")
    code, _, err = run_cli(
        capsys, "analyze", "--matrix", str(matrix), "--minimality", "theorem"
    )
    assert code == 2
    assert "usage error" in err


def test_blocking_subcommand(tmp_path, capsys):
    f = MonomialBlocks(field_from_order(2), 2, 2)
    path = tmp_path / "zeros.txt"
    save_point_set(path, zero_set(f, "affine_star"))
    code, out, _ = run_cli(
        capsys, "blocking", "--in", str(path), "--k", "1", "--cutting", "--s", "2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["blocking"] is True and payload["cutting"] is True
    assert payload["ks_blocking"] is False
    assert payload["witnesses"]["contained_subspace"] is not None


def test_blocking_cutting_check_is_opt_in(tmp_path, capsys):
    f = MonomialBlocks(field_from_order(2), 2, 2)
    path = tmp_path / "zeros.txt"
    save_point_set(path, zero_set(f, "affine_star"))
    code, out, _ = run_cli(capsys, "blocking", "--in", str(path), "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocking"] is True
    assert payload["cutting"] is None
    assert payload["witnesses"]["trace_subspace"] is None


def test_blocking_normalize_projective(tmp_path, capsys):
    f = MonomialBlocks(field_from_order(3), 2, 2)
    path = tmp_path / "zeros.txt"
    save_point_set(path, zero_set(f, "affine_star"))
    code, out, _ = run_cli(
        capsys, "blocking", "--in", str(path), "--k", "1",
        "--flavor", "projective", "--normalize", "--cutting", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["set_size"] == 16
    assert payload["cutting"] is True


def test_blocking_origin_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n0 0 0\n1 0 0\n")
    code, _, err = run_cli(capsys, "blocking", "--in", str(path), "--k", "1")
    assert code == 3
    assert "OriginInSet" in err and "origin" in err.lower()


def test_blocking_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n")
    code, _, err = run_cli(capsys, "blocking", "--in", str(path), "--k", "1")
    assert code == 3
    assert "input error" in err


def test_analyze_matrix_of_dim_zero_is_an_input_error(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 3 0 raw\n")
    code, out, err = run_cli(capsys, "analyze", "--matrix", str(matrix))
    assert code == 3
    assert out == "" and "input error" in err


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "build", "--family", "frk", "--r", "2", "--k", "2")
    assert code == 2 and "need --q" in err
    code, _, err = run_cli(capsys, "build", "--q", "2", "--family", "frk", "--r", "2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "build", "--q", "3", "--family", "staircase", "--n", "4", "--k", "2"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "build", "--family", "polyzero")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "analyze --q 3 --r 1 --k 2",
        "analyze --q 3 --r 2 --k 0",
        "build --q 2 --r 2 --k -1",
        "survey --q 2 --r 2 --k 0",
        "survey --q 2 --r x..3 --k 2",
        "survey --q 2 --r 2,y --k 2",
        "analyze --q 4 --modulus 1,x --r 2 --k 2",
        "analyze --q 3 --modulus 1,1 --r 2 --k 2",
        "analyze --q 3 --family staircase --n 2 --k 5 --alphas 1",
        "analyze --q 3 --family staircase --n 3 --k 2 --alphas a",
    ],
)
def test_bad_parameters_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_table_q_conflict(tmp_path, capsys):
    f = MonomialBlocks(field_from_order(2), 2, 2)
    table = tmp_path / "f.txt"
    save_function_table(table, f)
    code, _, err = run_cli(capsys, "build", "--table", str(table), "--q", "3")
    assert code == 2
    assert "contradicts" in err


def test_budget_flag_and_env(tmp_path, capsys, monkeypatch):
    argv = ["analyze", "--q", "2", "--family", "frk", "--r", "2", "--k", "2",
            "--minimality", "brute"]
    code, _, err = run_cli(capsys, *argv, "--pair-budget", "5")
    assert code == 2 and "over budget" in err
    monkeypatch.setenv("CUTCODES_PAIR_BUDGET", "5")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "over budget" in err
    # an explicit flag beats the environment
    code, _, _ = run_cli(capsys, *argv, "--pair-budget", str(10**10))
    assert code == 0


def test_config_file_budgets(tmp_path, capsys, monkeypatch):
    argv = ["analyze", "--q", "2", "--family", "frk", "--r", "2", "--k", "2",
            "--minimality", "brute"]
    cfgfile = tmp_path / "budgets.cfg"
    cfgfile.write_text("# comment\npair_budget = 5\n\nweight_budget=1000000\n")
    code, _, err = run_cli(capsys, *argv, "--config", str(cfgfile))
    assert code == 2 and "over budget" in err
    # the environment beats the config file
    monkeypatch.setenv("CUTCODES_PAIR_BUDGET", str(10**10))
    code, _, _ = run_cli(capsys, *argv, "--config", str(cfgfile))
    assert code == 0
    # malformed lines are usage errors
    bad = tmp_path / "bad.cfg"
    bad.write_text("pair_budget five\n")
    code, _, err = run_cli(capsys, *argv, "--config", str(bad))
    assert code == 2 and "usage error" in err


def test_build_over_point_cap(capsys):
    code, _, err = run_cli(
        capsys, "build", "--q", "4", "--family", "frk", "--r", "3", "--k", "7"
    )
    assert code == 2
    assert "over budget" in err


def test_survey_empty_range(capsys):
    code, _, err = run_cli(capsys, "survey", "--q", "2", "--r", "5..4", "--k", "2")
    assert code == 2
    assert "empty" in err


# (argv, expected fields of each row); one case per fallback route
SURVEY_FALLBACKS = [
    (
        ("--q", "2", "--r", "5", "--k", "2", "--pair-budget", "1000", "--weight-budget", "1000"),
        [dict(minimal=True, minimality_method="theorem", ab_satisfied=False,
              ab_method="threshold", w_min=None, w_max=None)],
    ),
    (
        # the weight-sum scan alone is refused
        ("--q", "3", "--r", "2", "--k", "2", "--pair-budget", "2000000"),
        [dict(minimal=True, minimality_method="bruteforce", ab_method="distribution",
              w_min=48, w_max=57)],
    ),
    (
        # no code is built: the row's dim is n + 1
        ("--q", "2", "--r", "4", "--k", "2", "--point-cap", "100"),
        [dict(dim=9, minimal=True, minimality_method="theorem", ab_satisfied=False,
              ab_method="threshold", w_min=None, w_max=None)],
    ),
    (
        ("--q", "3", "--r", "2,3", "--k", "2", "--projective"),
        [dict(length=40, minimality_method="bruteforce+weightsum", ab_satisfied=False,
              w_min=19, w_max=32),
         dict(length=364, minimality_method="bruteforce+weightsum", ab_satisfied=False,
              w_min=168, w_max=258)],
    ),
]


def test_survey_degrades_to_certificates_under_budget(capsys):
    for argv, expected in SURVEY_FALLBACKS:
        code, out, _ = run_cli(capsys, "survey", *argv, "--format", "json")
        assert code == 0, argv
        rows = json.loads(out)
        assert [{key: row[key] for key in want} for row, want in zip(rows, expected)] == expected, argv
        assert len(rows) == len(expected), argv


def test_survey_refuses_a_bad_r_before_building_any_code(capsys, monkeypatch):
    import cutcodes.codes

    built = []
    monkeypatch.setattr(
        cutcodes.codes, "build_affine_code", lambda *a, **kw: built.append(a) or None
    )
    # r = 2 alone would build its code at once
    code, out, err = run_cli(capsys, "survey", "--q", "2", "--r", "2,1", "--k", "2")
    assert (code, out) == (2, "")
    assert "usage error: block degree must be >= 2" in err
    with pytest.raises(ValueError, match="block degree"):
        cutcodes.codes.survey_family(2, [2, 1], 2)
    assert built == []


def test_survey_tsv(capsys):
    code, out, _ = run_cli(capsys, "survey", "--q", "2", "--r", "2..4", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split("\t")
    idx_ab = header.index("ab_satisfied")
    idx_min = header.index("minimal")
    idx_thm = header.index("theorem_applies")
    values = [ln.split("\t") for ln in lines[1:]]
    assert [v[idx_ab] for v in values] == ["True", "False", "False"]
    assert [v[idx_min] for v in values] == ["True", "True", "True"]
    assert [v[idx_thm] for v in values] == ["True", "True", "True"]


def test_survey_json_q3(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--q", "3", "--r", "2,3", "--k", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["ab_satisfied"] for row in rows] == [True, False]
    assert [row["minimal"] for row in rows] == [True, True]
    assert [row["length"] for row in rows] == [80, 728]
    assert rows[1]["w_min"] == 336 and rows[1]["w_max"] == 516


def test_repro_subcommand(capsys):
    code, out, _ = run_cli(capsys, "repro")
    assert code == 0
    assert "8/8 checks passed" in out
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cutcodes.cli", "build", "--q", "2", "--family",
         "frk", "--r", "2", "--k", "2", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["length"] == 15


def test_order_above_two_to_sixteen_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--q", "65537", "--r", "2", "--k", "2")
    assert code == 2 and out == ""
    assert err == "error: order 65537 exceeds the largest supported order 65536\n"


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser on the first call and reuses it; a reused parser
    # must answer exactly like a fresh one, usage errors included
    import cutcodes.cli as cli

    path = tmp_path / "set.txt"
    save_point_set(path, zero_set(MonomialBlocks(field_from_order(2), 2, 2), "affine_star"))
    runs = [
        ("build", "--q", "2", "--r", "2", "--k", "2", "--json"),
        ("build", "--family", "polyzero"),
        ("blocking", "--json", "--cutting", "--k", "2", "--in", str(path)),
        ("analyze", "--q", "2", "--r", "2", "--k", "2", "--minimality", "nope"),
        ("blocking", "--k", "1", "--s", "1", "--in", str(path)),
        ("build", "--q", "3", "--r", "2", "--k", "2"),
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    cli._parser.cache_clear()
    shared = [outcome(argv) for argv in runs]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 2, 0, ("exit", 2), 0, 0]
    # nothing is built at import
    done = subprocess.run(
        [sys.executable, "-c", "import cutcodes.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "0"


def test_analyze_matrix_row_fault_names_the_file_line(tmp_path, capsys):
    # the bad entry is on file line 3, below a comment and the header
    matrix = tmp_path / "m.txt"
    matrix.write_text("# c\n2 3 1 raw\n1 0 2\n")
    code, out, err = run_cli(capsys, "analyze", "--matrix", str(matrix))
    assert code == 3
    assert out == "" and "ParseError: line 3: entry outside 0..1" in err
