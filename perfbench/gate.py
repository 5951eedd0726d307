"""Correctness gate: each job's outcome against the frozen reference.

An outcome keeps only what the reference can fix for every seed: exit
code, verdicts, weight distribution, w_min/w_max, set sizes and dimensions,
and which witnesses are present. Witnesses on seed-transformed inputs are
re-derived here with the benchmark's own field arithmetic; witnesses on
seed-free inputs are compared with the frozen ones exactly.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from gf import encode
from jobs import Job, gf_for

REFUSAL = "over budget"
_ANALYZE_KEYS = ("length", "dim", "weights", "minimal", "ab")
_BLOCKING_KEYS = ("flavor", "k", "s", "set_size", "dimension", "blocking", "cutting", "ks_blocking")


def outcome(job: Job, result) -> dict:
    """Normalise a raw job result into the comparable outcome dict.

    result is (exit code, stdout, stderr) for command lines, or the
    theorem report's dict (or an exception) for API calls.
    """
    if job.kind == "theorem":
        if isinstance(result, BaseException):
            refused = type(result).__name__ == "BudgetExceeded"
            return {"exit": 2 if refused else -1, "refused": refused, "error": repr(result)}
        return {"exit": 0, "report": result}
    rc, out, err = result
    if rc == 2:
        return {"exit": 2, "refused": err.startswith(REFUSAL)}
    if rc not in (0, 1):
        return {"exit": rc, "error": err.strip()[-300:]}
    try:
        doc = json.loads(out)
    except ValueError:
        return {"exit": rc, "error": "stdout is not JSON"}
    if job.argv[0] == "analyze":
        got = {"exit": rc, **{k: doc.get(k) for k in _ANALYZE_KEYS}}
        if rc == 1:  # the expectation failure's JSON payload is the last stderr line
            try:
                got["witness"] = json.loads(err.strip().splitlines()[-1]).get("witness")
            except (ValueError, IndexError, AttributeError):
                got["witness"] = None
        return got
    got = {"exit": rc, **{k: doc.get(k) for k in _BLOCKING_KEYS}}
    got["witnesses"] = doc.get("witnesses", {})
    return got


def comparable(job: Job, got: dict) -> dict:
    """The part of an outcome the reference fixes for every seed."""
    out = {k: v for k, v in got.items() if k not in ("witness", "witnesses")}
    if "witnesses" in got:
        out["witness_keys"] = sorted(k for k, v in got["witnesses"].items() if v is not None)
    if "witness" in got:
        out["has_witness"] = got["witness"] is not None
    if job.input is None:  # seed-free input: the witnesses themselves are fixed
        for key in ("witness", "witnesses"):
            if key in got:
                out[key] = got[key]
    return out


def check(job: Job, got: dict, ref: dict) -> Optional[str]:
    """None when the outcome is correct, else a one-line reason."""
    if ref.get("refused"):
        if got.get("exit") == 2 and got.get("refused"):
            return None
        return _check_answer(got, ref.get("answer") or {})
    want = ref["expect"]
    have = comparable(job, got)
    if have != want:
        diff = sorted(k for k in set(have) | set(want) if have.get(k) != want.get(k))
        return f"differs from reference in {diff}"
    if job.input is not None:
        return verify_witness(job, got)
    return None


def _check_answer(got: dict, answer: dict) -> Optional[str]:
    """A refused-at-reference job answered now must match its certified verdict."""
    if got.get("exit") not in (0, 1):
        return f"expected a refusal or a certified answer, got exit {got.get('exit')}"
    if not answer:
        return "answered a job whose reference has no certified verdict"
    for key, want in answer.items():
        if got.get(key) != want:
            return f"answer {key}={got.get(key)!r} disagrees with the certified {want!r}"
    return None


# witness re-verification ---------------------------------------------------


def verify_witness(job: Job, got: dict) -> Optional[str]:
    inp = job.input
    gf = gf_for(inp.q)
    if "witness" in got:
        wit = got.get("witness")
        if got["exit"] == 1 and got.get("minimal") is False:
            return verify_pair(gf, inp.rows, wit)
        return None
    if "witnesses" in got:
        return _verify_blocking(gf, inp, job, got)
    return None


def verify_pair(gf, rows, wit) -> Optional[str]:
    """supp(contained) inside supp(container), and the two not proportional."""
    if not wit:
        return "non-minimal verdict without a witness"
    big = gf.combine(wit["container_message"], rows)
    small = gf.combine(wit["contained_message"], rows)
    if not small.any():
        return "witness contained codeword is zero"
    if (small != 0)[big == 0].any():
        return "witness supports are not nested"
    if gf.rank([big, small]) != 2:
        return "witness codewords are proportional"
    return None


def _span_codes(gf, rows, q: int) -> np.ndarray:
    return encode(gf.span_points(rows), q)


def _verify_blocking(gf, inp, job: Job, got: dict) -> Optional[str]:
    q = inp.q
    n = inp.pts.shape[1]
    member = np.zeros(q**n, dtype=bool)
    member[encode(inp.pts, q)] = True
    member[0] = False
    k = int(got["k"])
    d = n - k
    wit = got["witnesses"]
    if got["blocking"] is False:
        rows = wit.get("missed_subspace")
        if rows is None or gf.rank(rows) != d:
            return "missed subspace has the wrong dimension"
        if member[_span_codes(gf, rows, q)].any():
            return "missed subspace meets the set"
    if got["cutting"] is False:
        t, c = wit.get("trace_subspace"), wit.get("containing_subspace")
        if t is None or c is None or gf.rank(t) != d or gf.rank(c) != d:
            return "cutting witness subspaces have the wrong dimension"
        if gf.rank(list(t) + list(c)) == d:
            return "cutting witness names the same subspace twice"
        in_c = np.zeros(q**n, dtype=bool)
        in_c[_span_codes(gf, c, q)] = True
        trace = _span_codes(gf, t, q)
        if (member[trace] & ~in_c[trace]).any():
            return "trace is not inside the containing subspace"
    if got["ks_blocking"] is False and got["blocking"] is True:
        rows = wit.get("contained_subspace")
        lin_s = int(got["s"]) + (1 if inp.flavor == "projective" else 0)
        if rows is None or gf.rank(rows) != lin_s:
            return "contained subspace has the wrong dimension"
        pts = gf.span_points(rows)
        pts = pts[pts.any(axis=1)]
        if inp.flavor == "projective":
            pts = gf.canonical(pts)
        if not member[encode(pts, q)].all():
            return "contained subspace is not inside the set"
    return None
