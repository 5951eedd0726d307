"""The three workloads as fixed lists of jobs, and their seeded inputs.

A job is one request a user makes: a `cutcodes` command line, run in-process
through `cutcodes.cli.main`, or one public API call. Jobs that read a file
get it generated from the run's seed by an equivalence transform of a fixed
base instance: a random invertible change of coordinates for functions and
for point sets whose scans run in full, a random point order for point
sets whose scans stop at the first witness, and a random column
permutation and scaling for generator matrices. Weights, minimality, the
ratio condition and every blocking/cutting/(k,s) verdict are invariant
under these transforms, so one frozen reference serves every seed; the
witnesses the program reports are re-verified from scratch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from gf import GF, all_points, block_family, encode, staircase

_GF_CACHE: dict = {}


def gf_for(q: int) -> GF:
    if q not in _GF_CACHE:
        _GF_CACHE[q] = GF(q)
    return _GF_CACHE[q]


@dataclass
class Input:
    """A generated input file plus what the gate needs to re-verify witnesses.

    For codes, rows are the generator rows in the order the program keeps
    them as its basis; for point sets, pts holds the points of the file.
    """

    text: str
    q: int
    rows: Optional[np.ndarray] = None
    pts: Optional[np.ndarray] = None
    flavor: Optional[str] = None


@dataclass
class Job:
    id: str
    group: str
    argv: tuple = ()
    theorem: Optional[tuple] = None  # (q, r, k, mode) for the API jobs
    make_input: Optional[Callable[[random.Random], Input]] = None
    code: Optional[Callable[[], Input]] = None  # seed-free code, for freezing
    input: Optional[Input] = field(default=None, repr=False)
    path: Optional[str] = None

    @property
    def kind(self) -> str:
        return "theorem" if self.theorem else "cli"

    def resolved_argv(self) -> list:
        return [a.replace("{in}", self.path or "") for a in self.argv]


# inputs ------------------------------------------------------------------


def _columns(q: int, n: int, mode: str) -> np.ndarray:
    pts = all_points(q, n)[1:]
    if mode == "projective":
        first = pts[np.arange(pts.shape[0]), np.argmax(pts != 0, axis=1)]
        pts = pts[first == 1]
    return pts


def greedy_basis(gf: GF, rows: np.ndarray) -> np.ndarray:
    """The rows a greedy left-to-right pivot scan keeps, as cutcodes does."""
    kept = []
    for row in rows:
        if gf.rank(kept + [row]) > len(kept):
            kept.append(row)
    return np.array(kept, dtype=np.int64)


def structured_rows(q: int, n: int, fvals: Callable, mode: str) -> np.ndarray:
    """Generator rows (f, x_1, ..., x_n) over affine or projective columns."""
    cols = _columns(q, n, mode)
    rows = np.vstack([fvals(cols)[None, :], cols.T])
    return greedy_basis(gf_for(q), rows)


def _frk_fn(q, r, k):
    return lambda pts: block_family(gf_for(q), r, k, pts)


def _frk_zeros(r, k):
    return zeros_of(lambda gf, y: block_family(gf, r, k, y))


def _stair_zeros(alphas):
    return zeros_of(lambda gf, y: staircase(alphas, y))


def _points_text(q: int, n: int, pts: np.ndarray) -> str:
    lines = [f"{q} {n}"] + [" ".join(map(str, p)) for p in pts.tolist()]
    return "\n".join(lines) + "\n"


def point_set_input(q: int, n: int, flavor: str, keep, move: bool = True):
    """The points x with keep(gf, A.x) true, listed in a seeded random order.

    keep selects the base set among all points, given as rows. With move,
    A is a random invertible matrix and the file holds the preimage of the
    base set, canonicalised for the projective flavor; without, A is the
    identity, so scans that stop at their first witness do the same work
    for every seed.
    """

    def make(rng):
        gf = gf_for(q)
        pts = all_points(q, n)
        mask = keep(gf, gf.matvec_rows(gf.random_invertible(rng, n), pts) if move else pts)
        mask[0] = False
        pts = pts[mask]
        if flavor == "projective":
            pts = np.unique(gf.canonical(pts), axis=0)
        order = list(range(pts.shape[0]))
        rng.shuffle(order)
        pts = pts[order]
        return Input(_points_text(q, n, pts), q, pts=pts, flavor=flavor)

    return make


def zeros_of(fn):
    """Zero set of fn(gf, points): block family or staircase."""
    return lambda gf, y: fn(gf, y) == 0


def random_subset(q: int, n: int, size: int, flavor: str, inst: int):
    """A sparse random set of size points (canonical ones if projective), fixed by inst.

    Meant for point_set_input(..., move=False): it selects base points as given.
    """
    rng = random.Random(f"points:{q}:{n}:{size}:{flavor}:{inst}")
    cand = _columns(q, n, "projective" if flavor == "projective" else "affine")
    base = np.zeros(q**n, dtype=bool)
    base[encode(cand[sorted(rng.sample(range(cand.shape[0]), size))], q)] = True
    return lambda gf, y: base[encode(y, q)]


# The full set is k-blocking and cutting for every k; the complement of a
# hyperplane H misses every subspace inside H, so it is neither. Both
# verdicts are known without computation.
def everything(gf, y):
    return np.ones(y.shape[0], dtype=bool)


def off_hyperplane(gf, y):
    return y[:, 0] != 0


def _table_text(q: int, n: int, values: np.ndarray) -> str:
    pts = all_points(q, n)
    lines = [f"{q} {n}"]
    for e in np.nonzero(values)[0].tolist():
        lines.append(" ".join(map(str, pts[e].tolist())) + f" {int(values[e])}")
    return "\n".join(lines) + "\n"


def random_function(q: int, n: int, inst: int) -> np.ndarray:
    """Values of a random f on GF(q)^n with f(0) = 0, fixed by inst."""
    rng = random.Random(f"table:{q}:{n}:{inst}")
    return np.array([0] + [rng.randrange(q) for _ in range(q**n - 1)], dtype=np.int64)


def table_input(q: int, n: int, inst: int):
    """The function x -> h(A.x) for a fixed random h and a random A."""

    def make(rng):
        gf = gf_for(q)
        h = random_function(q, n, inst)
        a = gf.random_invertible(rng, n)
        g = h[encode(gf.matvec_rows(a, all_points(q, n)), q)]
        rows = structured_rows(q, n, lambda c: g[encode(c, q)], "affine")
        return Input(_table_text(q, n, g), q, rows=rows)

    return make


def _matrix_text(q: int, rows: np.ndarray) -> str:
    dim, length = rows.shape
    lines = [f"{q} {length} {dim} raw"] + [" ".join(map(str, r)) for r in rows.tolist()]
    return "\n".join(lines) + "\n"


def _equivalent(gf: GF, rng: random.Random, rows: np.ndarray) -> np.ndarray:
    """G.P.D: a random column permutation P and nonzero column scaling D.

    Supports move with their columns, so weights, minimality and the
    witness pair stay, and the scans do the same work for every seed.
    """
    length = rows.shape[1]
    perm = list(range(length))
    rng.shuffle(perm)
    scale = np.array([rng.randrange(1, gf.q) for _ in range(length)])
    return gf.mul[scale[None, :], rows[:, perm]]


def random_matrix(q: int, dim: int, length: int, inst: int) -> np.ndarray:
    """A random full-rank dim x length matrix over GF(q), fixed by inst."""
    gf = gf_for(q)
    rng = random.Random(f"matrix:{q}:{dim}:{length}:{inst}")
    while True:
        rows = np.array([[rng.randrange(q) for _ in range(length)] for _ in range(dim)])
        if gf.rank(rows) == dim:
            return rows


def matrix_input(q: int, base: Callable[[], np.ndarray]):
    """A generator-matrix file of a code equivalent to base()."""

    def make(rng):
        rows = _equivalent(gf_for(q), rng, base())
        return Input(_matrix_text(q, rows), q, rows=rows)

    return make


# workloads ---------------------------------------------------------------

A = ("analyze", "--json")


def _frk(q, r, k, mode="affine"):
    return ("--q", str(q), "--r", str(r), "--k", str(k)) + (("--projective",) if mode == "projective" else ())


def _stair(q, n, alphas, mode="affine"):
    return (
        "--family", "staircase", "--q", str(q), "--n", str(n), "--k", str(len(alphas)),
        "--alphas", ",".join(map(str, alphas)),
    ) + (("--projective",) if mode == "projective" else ())


def _frk_code(q, r, k, mode):
    return lambda: Input("", q, rows=structured_rows(q, r * k, _frk_fn(q, r, k), mode))


def _stair_code(q, n, alphas, mode):
    return lambda: Input("", q, rows=structured_rows(q, n, lambda c: staircase(alphas, c), mode))


def _short(mode):
    return "aff" if mode == "affine" else "proj"


def analyze_jobs() -> list:
    jobs = []
    # Block-family codes at q = 2: the prime path of bulk (int64 cast and %)
    # inside the class enumeration, the brute-force scan and the literal
    # weight-sum scan, with every verdict positive. (2,4,2) projective and
    # (2,2,4) affine are the largest, and set the latency tail.
    for q, r, k, mode in [
        (2, 2, 2, "affine"), (2, 2, 2, "projective"), (2, 3, 2, "affine"),
        (2, 3, 2, "projective"), (2, 2, 3, "affine"), (2, 2, 3, "projective"),
        (2, 4, 2, "projective"), (2, 2, 4, "affine"),
    ]:
        jobs.append(Job(f"analyze/frk/q{q}r{r}k{k}-{_short(mode)}", "frk-q2", A + _frk(q, r, k, mode), code=_frk_code(q, r, k, mode)))
    # q = 3: the same prime path with p > 2, where the weight-sum scan runs
    # q-1 subtractions per class pair.
    for q, r, k, mode in [(3, 2, 2, "affine"), (3, 2, 2, "projective")]:
        jobs.append(Job(f"analyze/frk/q{q}r{r}k{k}-{_short(mode)}", "frk-odd", A + _frk(q, r, k, mode), code=_frk_code(q, r, k, mode)))
    # Staircase codes over GF(3): a second function family through the same
    # layers; n=5 with k=3 is a mid-sized weight-sum scan.
    for q, n, alphas in [(3, 4, (1, 1)), (3, 5, (1, 2, 1))]:
        jobs.append(Job(f"analyze/staircase/q{q}n{n}a{''.join(map(str, alphas))}-aff", "staircase", A + _stair(q, n, alphas), code=_stair_code(q, n, alphas, "affine")))
    # q = 4, an extension field: bulk's table-gather path instead of %.
    for mode in ("affine", "projective"):
        jobs.append(Job(f"analyze/frk/q4r2k2-{_short(mode)}", "frk-ext", A + _frk(4, 2, 2, mode), code=_frk_code(4, 2, 2, mode)))
    # Random functions as --table files, moved by the seed's change of
    # coordinates: dense tables through the same scans, one field per size.
    for q, n, insts in [(2, 6, (0, 1, 2, 3)), (3, 4, (0, 1, 2, 3)), (5, 3, (0, 1, 2)), (4, 3, (0, 1, 2)), (7, 2, (0, 1, 2))]:
        for inst in insts:
            jobs.append(Job(f"analyze/table/q{q}n{n}i{inst}", "table", A + ("--table", "{in}"), make_input=table_input(q, n, inst)))
    # Generator-matrix files (--matrix) of codes equivalent to minimal
    # block-family codes: the raw mode, with no function and no zero set.
    for q, r, k, mode in [(2, 3, 2, "affine"), (2, 2, 3, "projective"), (3, 2, 2, "affine"), (4, 2, 2, "projective")]:
        base = _frk_code(q, r, k, mode)
        jobs.append(Job(f"analyze/matrix/q{q}r{r}k{k}-{_short(mode)}", "matrix", A + ("--matrix", "{in}"), make_input=matrix_input(q, lambda b=base: b().rows)))
    # Requests past the default pair budget: each must end in exit 2 after
    # the weight distribution, the cost a refused analyze still pays.
    for q, r, k, mode in [(7, 2, 2, "affine"), (8, 2, 2, "projective"), (9, 2, 2, "projective"), (4, 3, 2, "projective"), (8, 2, 2, "affine")]:
        jobs.append(Job(f"analyze/refuse/q{q}r{r}k{k}-{_short(mode)}", "refusal", A + _frk(q, r, k, mode), code=_frk_code(q, r, k, mode)))
    return jobs


def certify_jobs() -> list:
    jobs = []
    B = ("blocking", "--json", "--cutting")

    def zero_job(name, group, q, n, fn, flavor, ks):
        jobs.append(Job(
            f"certify/{name}-{flavor[:4]}", group,
            B + ks + ("--flavor", flavor, "--in", "{in}"),
            make_input=point_set_input(q, n, flavor, fn),
        ))

    # Zero sets of block-family functions after a random change of
    # coordinates, in both flavors: blocking, cutting (span route) and the
    # (1, s) exclusion all hold, so every hyperplane is scanned. These are
    # the certificates the minimality theorem needs.
    for q, r, k in [(2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 4, 2), (2, 2, 4), (3, 2, 2), (3, 3, 2), (3, 2, 3), (4, 2, 2), (5, 2, 2)]:
        n = r * k
        for flavor in ("vectorial", "projective"):
            s = n - 1 if flavor == "vectorial" else n - 2
            zero_job(f"zeroset/q{q}r{r}k{k}", "zeroset-k1", q, n, _frk_zeros(r, k), flavor, ("--k", "1", "--s", str(s)))
    # Zero sets of staircase functions (odd q), the second family whose
    # cutting property the theory covers.
    for q, n, alphas in [(3, 4, (1, 1)), (3, 5, (1, 2)), (5, 4, (1, 2))]:
        for flavor in ("vectorial", "projective"):
            s = n - 1 if flavor == "vectorial" else n - 2
            name = f"staircase/q{q}n{n}a{''.join(map(str, alphas))}"
            zero_job(name, "staircase", q, n, _stair_zeros(alphas), flavor, ("--k", "1", "--s", str(s)))
    # q=2, n=10: the largest cutting check below the known 89 s case at n=12.
    zero_job("zeroset/q2r5k2", "zeroset-n10", 2, 10, _frk_zeros(5, 2), "vectorial", ("--k", "1", "--s", "9"))
    # k = 2: cutting over codimension-2 subspaces, the generic (non-dot)
    # subspace enumeration with one RowReducer per subspace.
    for q, r, k, flavor in [(2, 3, 2, "vectorial"), (2, 2, 3, "projective")]:
        zero_job(f"zeroset-k2/q{q}r{r}k{k}", "zeroset-k2", q, r * k, _frk_zeros(r, k), flavor, ("--k", "2"))
    # The theorem audit as an API call at q = 7, 8, 9, where the shift
    # condition (one dot_all and one field add per vector v) dominates.
    for q, mode in [(7, "affine"), (8, "projective"), (9, "projective")]:
        jobs.append(Job(f"certify/theorem/q{q}r2k2-{_short(mode)}", "theorem", theorem=(q, 2, 2, mode)))
    # Codimension-2 checks on large spaces, past the generic subspace cap:
    # exit 2 once the set is read and checked against its flavor, so the
    # latency is the cost of failing fast on a big space. Two points are
    # fewer than the q+1 of a line, the smallest set meeting every
    # codimension-2 subspace (Bose-Burton), so neither verdict can hold.
    for q, n, inst in [(q, n, i) for q, n in ((3, 12), (7, 7)) for i in range(4)]:
        jobs.append(Job(
            f"certify/refuse/sparse-q{q}n{n}i{inst}-proj", "refusal",
            B + ("--k", "2", "--flavor", "projective", "--in", "{in}"),
            make_input=point_set_input(q, n, "projective", random_subset(q, n, 2, "projective", inst), move=False),
        ))
    return jobs


def refute_jobs() -> list:
    jobs = []
    X = A + ("--expect-minimal",)
    # Random raw generator matrices, mostly not minimal: the weight
    # distribution runs in full, then both scans stop at the first contained
    # pair, and exit 1 carries the witness pair. One field per size.
    for q, dim, length, insts in [
        (2, 9, 40, range(3)), (3, 6, 40, range(3)), (3, 7, 40, range(3)),
        (4, 6, 30, range(2)), (5, 5, 30, range(2)), (7, 4, 25, range(1)),
    ]:
        for inst in insts:
            jobs.append(Job(
                f"refute/matrix/q{q}d{dim}n{length}i{inst}", "matrix",
                X + ("--matrix", "{in}"),
                make_input=matrix_input(q, lambda q=q, d=dim, n=length, i=inst: random_matrix(q, d, n, i)),
            ))
    # Structured codes that are not minimal (k = 1 block family, projective
    # staircases): early exits on codes built from a function.
    for q, r, k, mode in [
        (5, 4, 1, "affine"), (3, 6, 1, "affine"), (4, 4, 1, "affine"), (7, 3, 1, "affine"),
        (3, 5, 1, "projective"), (2, 9, 1, "affine"),
    ]:
        jobs.append(Job(f"refute/frk/q{q}r{r}k{k}-{_short(mode)}", "frk-nonminimal", X + _frk(q, r, k, mode), code=_frk_code(q, r, k, mode)))
    for q, n, alphas in [(3, 6, (1, 2)), (5, 4, (1, 1))]:
        jobs.append(Job(f"refute/staircase/q{q}n{n}a{''.join(map(str, alphas))}-proj", "frk-nonminimal", X + _stair(q, n, alphas, "projective"), code=_stair_code(q, n, alphas, "projective")))
    # The theorem route on functions whose hypotheses fail: no verdict.
    for q, r, k in [(3, 5, 1), (7, 3, 1)]:
        jobs.append(Job(f"refute/theorem-route/q{q}r{r}k{k}-aff", "theorem-fails", A + ("--minimality", "theorem") + _frk(q, r, k), code=_frk_code(q, r, k, "affine")))
    # Sparse random point sets that fail blocking, cutting or the (k,s)
    # exclusion, each with witnesses; k = 1 with --s and k = 2.
    B = ("blocking", "--json", "--cutting")
    for q, n, size, flavor, ks, insts in [
        (2, 7, 40, "vectorial", ("--k", "1", "--s", "3"), range(2)),
        (2, 8, 60, "vectorial", ("--k", "1", "--s", "2"), range(2)),
        (2, 9, 80, "vectorial", ("--k", "1", "--s", "2"), range(1)),
        (2, 6, 30, "vectorial", ("--k", "2"), range(2)),
        (2, 7, 50, "vectorial", ("--k", "2"), range(2)),
        (3, 5, 30, "vectorial", ("--k", "1", "--s", "1"), range(2)),
        (3, 5, 40, "projective", ("--k", "1", "--s", "1"), range(2)),
        (3, 5, 50, "vectorial", ("--k", "2"), range(2)),
        (4, 4, 30, "vectorial", ("--k", "1", "--s", "1"), range(2)),
        (5, 4, 30, "projective", ("--k", "1", "--s", "0"), range(2)),
    ]:
        for inst in insts:
            jobs.append(Job(
                f"refute/points/q{q}n{n}m{size}{flavor[:4]}-{'k' + ks[1]}-i{inst}", "points",
                B + ks + ("--flavor", flavor, "--in", "{in}"),
                make_input=point_set_input(q, n, flavor, random_subset(q, n, size, flavor, inst), move=False),
            ))
    # Requests over budget, which must end in exit 2 as early as the budget
    # checks allow: q=7 projective scans brute force for about 0.7 s before
    # the weight-sum budget refuses it; q=2, n=12 pays two weight
    # distributions first; the point sets are refused once read.
    for q, r, k, mode in [(8, 2, 2, "affine"), (4, 3, 2, "projective"), (7, 2, 2, "projective"), (2, 4, 3, "affine"), (7, 2, 2, "affine"), (9, 2, 2, "projective")]:
        jobs.append(Job(f"refute/refuse/q{q}r{r}k{k}-{_short(mode)}", "refusal", A + _frk(q, r, k, mode), code=_frk_code(q, r, k, mode)))
    for q, n, flavor, hole in [(2, 13, "vectorial", True), (3, 9, "projective", True), (5, 6, "projective", False)]:
        jobs.append(Job(
            f"refute/refuse/{'hole' if hole else 'full'}-q{q}n{n}-{flavor[:4]}", "refusal",
            ("blocking", "--json", "--cutting", "--k", "2", "--flavor", flavor, "--in", "{in}"),
            make_input=point_set_input(q, n, flavor, off_hyperplane if hole else everything),
        ))
    return jobs


WORKLOADS = {"analyze": analyze_jobs, "certify": certify_jobs, "refute": refute_jobs}

# every field order a workload's jobs construct, for the set-up measurement
FIELDS = {
    "analyze": (2, 3, 4, 5, 7, 8, 9),
    "certify": (2, 3, 4, 5, 7, 8, 9),
    "refute": (2, 3, 4, 5, 7, 8, 9),
}


def build(workload: str, seed: int, workdir: Path) -> list:
    """The workload's jobs with their input files written under workdir."""
    jobs = WORKLOADS[workload]()
    workdir.mkdir(parents=True, exist_ok=True)
    for idx, job in enumerate(jobs):
        if job.make_input is None:
            continue
        job.input = job.make_input(random.Random(f"{seed}:{job.id}"))
        path = workdir / f"{idx:03d}.txt"
        path.write_text(job.input.text)
        job.path = str(path)
    return jobs
