"""Benchmark of the cutcodes package: one workload per process.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 24 --trace 0

Workloads (see jobs.py): analyze, certify, refute. One client runs the
workload's jobs one after another in a closed loop on one thread, pass
after pass, until --seconds are used up (at least MIN_PASSES passes). Each
job calls the real entry point in-process and its output is checked
against reference.json; a wrong output makes the run fail with exit 1.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics from the traced ones, plus
the tracing overhead; it writes the spans of its last traced pass under
.perfbench_out/. The last line of stdout is the result JSON; the line
before it is a report with sample counts and the environment.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_REPEATS = 7

import gate  # noqa: E402
import jobs as joblib  # noqa: E402
import stats  # noqa: E402

_SETUP = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cutcodes
from cutcodes.bulk import ops_for
for q in sys.argv[2].split(","):
    ops_for(cutcodes.field_from_order(int(q)))
print(repr(time.perf_counter() - t0))
"""


def import_program():
    """Import cutcodes from this checkout's src/, never from elsewhere."""
    if not (SRC / "cutcodes" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cutcodes package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cutcodes
    import cutcodes.cli

    if Path(cutcodes.__file__).resolve().parent != SRC / "cutcodes":
        raise SystemExit(f"perfbench: imported cutcodes from {cutcodes.__file__}, not {SRC}")
    return cutcodes


def setup_sample(fields) -> float:
    """Fresh-process time to import cutcodes and build every field and FieldOps."""
    argv = [sys.executable, "-c", _SETUP, str(SRC), ",".join(map(str, fields))]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def run_job(cutcodes, job, fields):
    if job.kind == "theorem":
        q, r, k, mode = job.theorem
        try:
            f = cutcodes.functions.MonomialBlocks(fields[q], r, k)
            return cutcodes.blocking.theorem_hypotheses(f, mode).to_dict()
        except Exception as exc:  # the gate decides whether it was the expected refusal
            return exc
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cutcodes.cli.main(job.resolved_argv())
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


class Runner:
    def __init__(self, cutcodes, jobs, reference, seed):
        self.cutcodes = cutcodes
        self.jobs = jobs
        self.reference = reference
        self.fields = {q: cutcodes.field_from_order(q) for q in {j.theorem[0] for j in jobs if j.theorem}}
        self.order = list(range(len(jobs)))
        random.Random(f"order:{seed}").shuffle(self.order)
        self.attempted = 0
        self.failures = []
        self.refused = set()

    def run_pass(self, tracer=None):
        """One pass over every job; returns (wall seconds, per-job seconds)."""
        clock = time.perf_counter
        times = [0.0] * len(self.jobs)
        results = [None] * len(self.jobs)
        start = clock()
        for idx in self.order:
            job = self.jobs[idx]
            if tracer is not None:
                tracer.job = idx
                span = tracer.enter("job")
            t = clock()
            results[idx] = run_job(self.cutcodes, job, self.fields)
            times[idx] = clock() - t
            if tracer is not None:
                tracer.exit(span)
                tracer.job = None
        wall = clock() - start
        for idx, job in enumerate(self.jobs):
            self._check(idx, job, results[idx])
        return wall, times

    def _check(self, idx, job, result):
        self.attempted += 1
        got = gate.outcome(job, result)
        if got.get("refused"):
            self.refused.add(idx)
        ref = self.reference.get(job.id)
        try:
            reason = "no reference entry" if ref is None else gate.check(job, got, ref)
        except Exception as exc:  # a malformed output fails its job, not the run
            reason = f"cannot check the output: {exc!r}"
        if reason:
            self.failures.append({"job": job.id, "why": reason})


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, walls, per_job, setup) -> tuple:
    """The end-to-end metrics and the sample counts behind them."""
    jobs = runner.jobs
    job_med = [stats.median(t) for t in per_job]
    refusal = [job_med[i] for i, j in enumerate(jobs) if runner.reference.get(j.id, {}).get("refused")]
    p = stats.tail_percentile(len(job_med))
    metrics = {
        "setup_s": metric(stats.median(setup), "s"),
        "wall_s": metric(stats.median(walls), "s"),
        "job_s.p50": metric(stats.median(job_med), "s"),
        "job_s.tail": metric(stats.percentile(job_med, p), "s"),
        "refuse_s.p50": metric(stats.median(refusal), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "pass_walls": walls,
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(walls)} passes",
        "job_s.p50": f"median over {len(jobs)} jobs of each job's median over {len(walls)} passes",
        "job_s.tail": f"p{p:g} over {len(jobs)} per-job medians ({len(jobs) - stats.rank(p, len(jobs))} beyond)",
        "refuse_s.p50": f"median over {len(refusal)} jobs the reference records as refused",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, samples


def _enough(passes: int, need: int, start: float, seconds: float, walls: list) -> bool:
    """Stop once `need` passes are done and another would overrun `seconds`."""
    elapsed = time.perf_counter() - start
    return passes >= need and elapsed + stats.median(walls) > seconds


def measure(runner, seconds, workload):
    """Untraced passes until the time is used; returns (metrics, samples, passes).

    One set-up sample follows each pass, so that set-up and passes see the
    same spread of machine load; samples are topped up to SETUP_REPEATS.
    """
    start = time.perf_counter()
    fields = joblib.FIELDS[workload]
    setup_sample(fields)  # warm-up: may compile bytecode
    walls, per_job, setup = [], [[] for _ in runner.jobs], []
    while True:
        wall, times = runner.run_pass()
        walls.append(wall)
        for i, t in enumerate(times):
            per_job[i].append(t)
        setup.append(setup_sample(fields))
        if _enough(len(walls), MIN_PASSES, start, seconds, walls):
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(fields))
    metrics, samples = end_to_end(runner, walls, per_job, setup)
    return metrics, samples, len(walls)


def measure_traced(runner, seconds, spans_path):
    """Untraced and traced passes in turn; per-layer metrics from the traced ones."""
    import spans as tracing

    start = time.perf_counter()
    tracer = tracing.Tracer()
    cli_jobs = {i for i, j in enumerate(runner.jobs) if j.kind == "cli"}
    walls, traced = [], []
    while True:
        walls.append(runner.run_pass()[0])
        tracer.reset()
        with tracing.Installed(tracer):
            wall, _ = runner.run_pass(tracer)
        traced.append((wall, tracing.layer_metrics(tracer, runner.refused, cli_jobs)))
        if _enough(len(walls), 1, start, seconds, [2 * w for w in walls]):
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(tracer, spans_path, [j.id for j in runner.jobs])
    layers = {k: stats.median([m[k] for _, m in traced]) for k in traced[0][1]}
    layers["trace.overhead"] = stats.median([w for w, _ in traced]) / stats.median(walls) - 1.0
    metrics = {k: metric(v, tracing.UNITS[k]) for k, v in layers.items()}
    samples = {
        "per_layer": f"median over {len(traced)} traced passes",
        "trace.overhead": f"median of {len(traced)} traced over median of {len(walls)} untraced passes",
    }
    return metrics, samples, 2 * len(walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(joblib.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cutcodes = import_program()
    warnings.simplefilter("ignore")  # warnings are not part of any outcome
    reference = json.loads((HERE / "reference.json").read_text())["jobs"]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = joblib.build(args.workload, args.seed, workdir)
        runner = Runner(cutcodes, jobs, reference, args.seed)
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, samples, passes = measure_traced(runner, args.seconds, spans_path)
        else:
            metrics, samples, passes = measure(runner, args.seconds, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "passes": passes,
        "fail_ratio": {"value": failed / runner.attempted, "unit": "ratio"},
        "samples": samples,
        "failures": runner.failures[:20],
        "environment": environment(),
    }
    print(json.dumps(report, sort_keys=True))
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
