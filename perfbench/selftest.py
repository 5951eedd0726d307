"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run; the
smoke test runs one pass of every workload and takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import jobs as joblib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# percentile rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, p",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_beyond(n, p):
    assert stats.tail_percentile(n) == p
    assert n - stats.rank(p, n) >= stats.MIN_BEYOND


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))  # 40 samples
    assert stats.percentile(values, 75.0) == 30
    assert stats.percentile(values, 50.0) == 20


def test_reported_sample_counts():
    class FakeRunner:
        jobs = [joblib.Job(f"j{i}", "g") for i in range(40)]
        reference = {"j0": {"refused": True}, "j1": {"refused": True}, "j2": {"refused": True}}

    per_job = [[0.001 * (i + 1)] * 3 for i in range(40)]
    metrics, samples = run.end_to_end(FakeRunner(), [1.0, 2.0, 3.0], per_job, [0.2, 0.1, 0.3])
    assert metrics["wall_s"]["value"] == 2.0
    assert metrics["setup_s"]["value"] == 0.2
    assert metrics["job_s.tail"]["value"] == pytest.approx(0.030)
    assert metrics["refuse_s.p50"]["value"] == pytest.approx(0.002)
    assert samples["job_s.tail"] == "p75 over 40 per-job medians (10 beyond)"
    assert samples["refuse_s.p50"].startswith("median over 3 jobs")


# self time ----------------------------------------------------------------


def _synthetic_tracer():
    """job(0..10) > ab_check(1..9) > weight_distribution(2..5), zero_set(6..7)."""
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.job = 0
    job = tracer.enter("job")
    ab = tracer.enter("codes.ab_check")
    wd = tracer.enter("codes.weight_distribution")
    tracer.exit(wd)
    zs = tracer.enter("functions.zero_set")
    tracer.exit(zs)
    tracer.exit(ab)
    tracer.exit(job)
    return tracer


def test_self_time_subtracts_direct_children():
    m = spans.layer_metrics(_synthetic_tracer(), refused_jobs=set(), cli_jobs={0})
    assert m["codes.ab_check_s"] == pytest.approx(8.0 - 3.0 - 1.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0)
    assert m["codes.weight_distribution_s"] == pytest.approx(3.0)
    assert m["functions.zero_set_s"] == pytest.approx(1.0)


def test_wasted_time_counts_outermost_codes_spans_of_refused_jobs():
    m = spans.layer_metrics(_synthetic_tracer(), refused_jobs={0}, cli_jobs={0})
    assert m["codes.wasted_s"] == pytest.approx(8.0)


def test_nested_spans_of_one_name_count_once():
    ticks = iter([0.0, 1.0, 2.0, 4.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.enter("functions.evaluate_block")
    inner = tracer.enter("functions.evaluate_block")
    tracer.exit(inner)
    tracer.exit(outer)
    m = spans.layer_metrics(tracer, set(), set())
    assert m["functions.evaluate_block_s"] == pytest.approx(4.0)


def test_wrappers_reach_every_binding_and_are_removed():
    cutcodes = run.import_program()
    before = cutcodes.cli.weight_distribution
    tracer = spans.Tracer()
    with spans.Installed(tracer):
        assert cutcodes.cli.weight_distribution is cutcodes.codes.weight_distribution
        assert cutcodes.cli.weight_distribution is not before
        assert cutcodes.codes.theorem_hypotheses is cutcodes.blocking.theorem_hypotheses
    assert cutcodes.cli.weight_distribution is before


# correctness gate ---------------------------------------------------------


def _analyze_job():
    job = joblib.Job("analyze/frk/q2r2k2-aff", "frk-q2", ("analyze", "--json", "--q", "2", "--r", "2", "--k", "2"))
    cutcodes = run.import_program()
    got = gate.outcome(job, run.run_job(cutcodes, job, {}))
    return job, got


def test_gate_accepts_the_frozen_reference():
    job, got = _analyze_job()
    ref = json.loads((HERE / "reference.json").read_text())["jobs"][job.id]
    assert gate.check(job, got, ref) is None


def test_gate_flags_a_corrupted_reference():
    job, got = _analyze_job()
    ref = json.loads((HERE / "reference.json").read_text())["jobs"][job.id]
    ref["expect"]["weights"]["6"] += 1
    assert "weights" in gate.check(job, got, ref)


def test_gate_flags_a_corrupted_witness(tmp_path):
    jobs = joblib.build("refute", 0, tmp_path)
    job = next(j for j in jobs if j.id.startswith("refute/matrix/"))
    got = gate.outcome(job, run.run_job(run.import_program(), job, {}))
    assert got["exit"] == 1 and gate.verify_witness(job, got) is None
    wit = got["witness"]
    wit["container_message"], wit["contained_message"] = wit["contained_message"], wit["container_message"]
    assert gate.verify_witness(job, got) is not None


def test_refused_job_answered_later_must_match_the_certified_route():
    ref = {"refused": True, "answer": {"minimal": True, "ab": {"w_min": 1, "w_max": 2, "satisfied": False}}}
    job = joblib.Job("x", "refusal", ("analyze",))
    assert gate.check(job, {"exit": 2, "refused": True}, ref) is None
    assert gate.check(job, {"exit": 0, "minimal": True, "ab": ref["answer"]["ab"]}, ref) is None
    assert gate.check(job, {"exit": 0, "minimal": False, "ab": ref["answer"]["ab"]}, ref) is not None
    assert gate.check(job, {"exit": 2, "refused": False}, ref) is not None


# smoke --------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(joblib.WORKLOADS))
def test_one_pass_of_each_workload_is_correct(workload, capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
