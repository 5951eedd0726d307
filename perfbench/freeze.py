"""Rebuild reference.json from the current program, with cross-checks.

    python3 perfbench/freeze.py [--workload NAME ...]

Run it only on a commit whose answers are trusted; a commit that claims a
speed-up must not re-freeze. Every job runs on the inputs of two seeds, and
the seed-independent part of the outcome must agree between them. Each job
is then cross-checked by a route independent of the one that answered
where that is cheap: weights by plain message enumeration, minimality by a
plain support-containment scan, cutting by the pairwise method, and the
shift condition by a direct scan. Jobs over budget record the verdict of a
certified route instead: the theorem audit for minimality and the exact
weight distribution for the ratio condition, or, for point sets, a verdict
known by construction.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import gate
import jobs as joblib
import run
from gf import all_points

FREEZE_SEEDS = (0, 1)
_NAIVE_WORDS = 5 * 10**7
_NAIVE_PAIRS = 1500


def naive_words(gf, rows) -> np.ndarray:
    """Every codeword, one per message, by plain enumeration."""
    dim = rows.shape[0]
    msgs = np.array(list(itertools.product(range(gf.q), repeat=dim)), dtype=np.int64)
    words = np.zeros((msgs.shape[0], rows.shape[1]), dtype=np.int64)
    for i in range(dim):
        words = gf.add[words, gf.mul[msgs[:, i][:, None], rows[i][None, :]]]
    return msgs, words


def naive_checks(job, got) -> list:
    """Weights, ratio verdict and minimality of an analyze job, recomputed."""
    src = job.input if job.input is not None else job.code()
    gf = joblib.gf_for(src.q)
    rows = src.rows
    if gf.q ** rows.shape[0] * rows.shape[1] > _NAIVE_WORDS:
        return []
    msgs, words = naive_words(gf, rows)
    wts = (words != 0).sum(axis=1)
    vals, counts = np.unique(wts, return_counts=True)
    problems = []
    weights = {str(int(w)): int(c) for w, c in zip(vals, counts)}
    if got.get("weights") is not None and weights != got["weights"]:
        problems.append("weights differ from plain enumeration")
    nz = sorted(int(w) for w in vals if w > 0)
    if got.get("ab") and got["ab"].get("w_min") is not None:
        if (nz[0], nz[-1]) != (got["ab"]["w_min"], got["ab"]["w_max"]):
            problems.append("w_min/w_max differ from plain enumeration")
    reps = msgs[np.array([m[np.nonzero(m)[0][0]] == 1 if m.any() else False for m in msgs])]
    if got.get("minimal") is not None and len(reps) <= _NAIVE_PAIRS:
        supp = np.array([gf.combine(m, rows) != 0 for m in reps])
        minimal = True
        for i in range(len(supp)):
            inside = ~(supp & ~supp[i]).any(axis=1)  # supp(j) within supp(i)
            inside[i] = False
            if inside.any():
                minimal = False
                break
        if minimal != got["minimal"]:
            problems.append("minimality differs from a plain containment scan")
    return problems


def pairwise_check(cutcodes, job, got) -> list:
    """The cutting verdict again, by the literal pairwise definition."""
    space, pset = cutcodes.geometry.load_point_set(job.path)
    k = int(got["k"])
    try:
        verdict, _ = cutcodes.blocking.is_cutting(pset, k, got["flavor"], method="pairwise")
    except cutcodes.errors.BudgetExceeded:
        return []
    return [] if verdict == got["cutting"] else ["cutting differs from the pairwise route"]


def shift_check(job, report) -> list:
    """For every v != 0, f + v.x must vanish at some x where f does not."""
    q, r, k, _ = job.theorem
    gf = joblib.gf_for(q)
    pts = all_points(q, r * k)
    f = joblib.block_family(gf, r, k, pts)
    support = f != 0
    ok = True
    for v in pts[1:]:
        dot = np.zeros(len(pts), dtype=np.int64)
        for i, vi in enumerate(v):
            if vi:
                dot = gf.add[dot, gf.mul[vi, pts[:, i]]]
        if not (support & (gf.add[f, dot] == 0)).any():
            ok = False
            break
    return [] if ok == report["shift_ok"] else ["shift condition differs from a direct scan"]


def certified_answer(cutcodes, job) -> dict:
    """What a refused job must answer, from routes that do not need the budget."""
    if job.argv[0] == "blocking":  # verdicts known by construction, see jobs.py
        holds = "/full-" in job.id
        return {"blocking": holds, "cutting": holds}
    args = cutcodes.cli.build_parser().parse_args(list(job.argv))
    cfg = cutcodes.Config(pair_budget=10**10, weight_budget=10**11)
    code = cutcodes.cli._resolve_code(args, cfg)
    ab = cutcodes.ab_check(code, cfg)
    if ab.method != "distribution":
        raise SystemExit(f"{job.id}: no exact weight distribution to certify against")
    if ab.threshold_hit and ab.satisfied:
        raise SystemExit(f"{job.id}: zero-count threshold contradicts the distribution")
    theorem = cutcodes.theorem_hypotheses(code.function, code.mode)
    if not theorem.applies:
        raise SystemExit(f"{job.id}: the theorem does not certify minimality; pick another job")
    return {
        "length": code.length,
        "dim": code.dim,
        "weights": {str(w): c for w, c in sorted(ab.weights.items())},
        "minimal": True,
        "ab": {"w_min": ab.w_min, "w_max": ab.w_max, "satisfied": ab.satisfied},
    }


def freeze_job(cutcodes, runs, idx) -> dict:
    """runs: one (jobs, fields) per freeze seed; returns the reference entry."""
    seen = []
    for jobs, fields in runs:
        job = jobs[idx]
        got = gate.outcome(job, run.run_job(cutcodes, job, fields))
        seen.append((job, got))
    job, got = seen[0]
    views = [gate.comparable(j, g) for j, g in seen]
    if any(v != views[0] for v in views):
        raise SystemExit(f"{job.id}: outcome depends on the seed: {views}")
    if got.get("refused"):
        return {"refused": True, "answer": certified_answer(cutcodes, job)}
    if got["exit"] not in (0, 1):
        raise SystemExit(f"{job.id}: unexpected outcome {got}")
    problems = []
    for j, g in seen:
        if j.input is not None:
            reason = gate.verify_witness(j, g)
            if reason:
                problems.append(reason)
    if job.kind == "theorem":
        problems += shift_check(job, got["report"])
    elif job.argv[0] == "analyze":
        problems += naive_checks(job, got)
        if got["exit"] == 1 and job.input is None:
            code = job.code()
            reason = gate.verify_pair(joblib.gf_for(code.q), code.rows, got["witness"])
            problems += [reason] if reason else []
    else:
        problems += pairwise_check(cutcodes, job, got)
    if problems:
        raise SystemExit(f"{job.id}: cross-check failed: {problems}")
    return {"expect": views[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rebuild perfbench/reference.json")
    ap.add_argument("--workload", action="append", choices=sorted(joblib.WORKLOADS))
    args = ap.parse_args(argv)
    cutcodes = run.import_program()
    warnings.simplefilter("ignore")
    path = run.HERE / "reference.json"
    ref_jobs = json.loads(path.read_text())["jobs"] if path.exists() else {}
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in args.workload or sorted(joblib.WORKLOADS):
            runs = []
            for seed in FREEZE_SEEDS:
                jobs = joblib.build(name, seed, Path(tmp) / f"{name}-{seed}")
                runs.append((jobs, run.Runner(cutcodes, jobs, {}, seed).fields))
            for stale in [k for k in ref_jobs if k.startswith(name + "/")]:
                del ref_jobs[stale]
            for idx, job in enumerate(runs[0][0]):
                ref_jobs[job.id] = freeze_job(cutcodes, runs, idx)
                print(f"froze {job.id}", file=sys.stderr, flush=True)
    doc = {
        "about": "Frozen outcomes per job id; written by perfbench/freeze.py with cross-checks.",
        "commit": run.git_commit(),
        "jobs": dict(sorted(ref_jobs.items())),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
