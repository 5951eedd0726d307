"""Linear codes built from functions on GF(q)^n, and their certificates.

The affine code evaluates u*f(x) + v.x over all nonzero points x in
encoding order; the projective variant runs over canonical projective
representatives and needs a scalar-compatible f. Generating rows are the
f evaluations (row 0) followed by the n coordinate forms, so for
full-rank codes the message digits are exactly (u, v_1, ..., v_n) with u
least significant in the message index.

Every enumerative route reads one class table per code, filled by a single
pass over the scalar-class representatives: their weights, packed
supports and messages. Minimality has three independent routes:
brute-force support containment over scalar classes, the weight-sum
criterion (kept as a literal sum, not reduced to set containment; each
weight wt(c' - a*c) is looked up by the message m' - a*m, not recomputed
over the full length), and the blocking-set theorem certificate.
Enumerative routes are budget-gated, checked before any work, and fail
loudly instead of degrading silently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .blocking import require_hypothesis_budget, theorem_hypotheses
from .bulk import FieldOps, ops_for
from .errors import (
    BudgetExceeded,
    CutcodesError,
    DegenerateDimensionWarning,
    NotScalarCompatible,
    ParseError,
)
from .field import Field, field_from_order
from .functions import (
    FunctionSpec,
    MonomialBlocks,
    monomial_blocks_zero_count,
    scalar_compatible,
    zero_set,
)
from .geometry import Space

DEFAULT_PAIR_BUDGET = 10**10
DEFAULT_WEIGHT_BUDGET = 10**9
DEFAULT_POINT_CAP = 10**7
_BLOCK_ELEMS = 1 << 26
_SCAN_ELEMS = 1 << 14  # message digits per weight-sum block


@dataclass
class Config:
    """Work limits for the enumerative routes; costs are elementwise ops."""

    pair_budget: int = DEFAULT_PAIR_BUDGET
    weight_budget: int = DEFAULT_WEIGHT_BUDGET
    point_cap: int = DEFAULT_POINT_CAP


# enumerative routes: (name in refusals, Config field, cost in elementwise
# ops from the class count R, the length and q)
_ROUTES = {
    "weights": ("weight distribution", "weight_budget", lambda R, n, q: R * n),
    "brute": ("brute-force scan", "pair_budget", lambda R, n, q: R * (R - 1) * n),
    "weightsum": ("weight-sum scan", "pair_budget", lambda R, n, q: R * (R - 1) * (q - 1) * n),
    "minimal-words": ("minimal-word scan", "pair_budget", lambda R, n, q: R * (R - 1) * n),
}

# the budgeted routes behind each is_minimal method
METHOD_ROUTES = {
    "brute": ("brute",),
    "weightsum": ("weightsum",),
    "both": ("brute", "weightsum"),
    "theorem": ("theorem",),
}


def require_budgets(code: LinearCode, routes, config: Optional[Config] = None):
    """Refuse, before any work, the first route in order that is over budget.

    The theorem route checks the hypothesis-scan budget of the code's function.
    """
    cfg = config or Config()
    for route in routes:
        if route == "theorem":
            if code.function is not None:
                require_hypothesis_budget(code.function.space)
            continue
        what, key, cost_of = _ROUTES[route]
        cost = cost_of(code.num_classes, code.length, code.field.q)
        budget = getattr(cfg, key)
        if cost > budget:
            raise BudgetExceeded(f"{what} needs about {cost:.2e} ops, budget {budget:.2e}")


class LinearCode:
    """A linear code given by generating rows over a fixed column order.

    mode is one of affine, projective, raw. For the structured modes,
    columns[j] is the point encoding behind coordinate j and rows are the
    n+1 structured generators (f first); dim may drop below n+1 when f is
    linear on nonzero points or vanishes almost everywhere.
    """

    def __init__(
        self,
        field: Field,
        rows: np.ndarray,
        mode: str = "raw",
        columns: Optional[np.ndarray] = None,
        ambient_n: Optional[int] = None,
        function: Optional[FunctionSpec] = None,
    ):
        if mode not in ("affine", "projective", "raw"):
            raise ValueError(f"unknown mode {mode!r}")
        self.field = field
        self.ops = ops_for(field)
        self.rows = np.asarray(rows, dtype=self.ops.dtype)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise ValueError("need a nonempty 2d row matrix")
        self.mode = mode
        self.columns = columns
        self.ambient_n = ambient_n
        self.function = function
        self.basis_indices = _independent_rows(self.ops, self.rows)
        self.basis = self.rows[self.basis_indices]
        self.dim = len(self.basis_indices)
        self._classes = None  # ClassTable, filled on first use
        if mode != "raw" and ambient_n is not None and self.dim < ambient_n + 1:
            warnings.warn(
                f"code dimension {self.dim} below {ambient_n + 1}: "
                "the function is linear on nonzero points or vanishes off a hyperplane",
                DegenerateDimensionWarning,
                stacklevel=3,
            )

    @property
    def length(self) -> int:
        return self.rows.shape[1]

    @property
    def num_codewords(self) -> int:
        return self.field.q**self.dim

    @property
    def num_classes(self) -> int:
        return (self.field.q**self.dim - 1) // (self.field.q - 1)

    def word(self, u: int, v) -> np.ndarray:
        """The structured codeword u*f + v.x; needs the structured rows."""
        if self.mode == "raw" or self.ambient_n is None:
            raise ValueError("structured codewords need an affine/projective code")
        if len(v) != self.ambient_n:
            raise ValueError(f"v needs {self.ambient_n} coordinates")
        ops = self.ops
        out = ops.mul_scalar(int(u), self.rows[0])
        for i, vi in enumerate(v):
            if vi:
                out = ops.add(out, ops.mul_scalar(int(vi), self.rows[1 + i]))
        return out

    def word_from_message(self, message) -> np.ndarray:
        if len(message) != self.dim:
            raise ValueError(f"message needs {self.dim} digits")
        ops = self.ops
        out = np.zeros(self.length, dtype=ops.dtype)
        for digit, row in zip(message, self.basis):
            if digit:
                out = ops.add(out, ops.mul_scalar(int(digit), row))
        return out

    def __repr__(self):
        return (
            f"LinearCode[{self.length},{self.dim}] over GF({self.field.q}), "
            f"mode={self.mode}"
        )


def _independent_rows(ops: FieldOps, rows: np.ndarray) -> list:
    """Greedy pivot selection; returns indices of an independent subset."""
    field = ops.field
    reduced = []
    picked = []
    for idx in range(rows.shape[0]):
        r = rows[idx].copy()
        for pc, rr in reduced:
            c = int(r[pc])
            if c:
                r = ops.sub(r, ops.mul_scalar(c, rr))
        nz = np.nonzero(r)[0]
        if nz.size:
            pc = int(nz[0])
            rr = ops.mul_scalar(field.inv(int(r[pc])), r)
            reduced.append((pc, rr))
            picked.append(idx)
    return picked


def _structured_rows(f: FunctionSpec, encodings: np.ndarray) -> np.ndarray:
    ops = ops_for(f.field)
    q = f.field.q
    rows = np.empty((f.n + 1, encodings.size), dtype=ops.dtype)
    rows[0] = f.evaluate_block(encodings)
    for i in range(f.n):
        rows[1 + i] = ((encodings // q**i) % q).astype(ops.dtype)
    return rows


def build_affine_code(f: FunctionSpec, config: Optional[Config] = None) -> LinearCode:
    """The code of length q^n - 1 with columns over all nonzero points."""
    cfg = config or Config()
    space = f.space
    if space.size - 1 > cfg.point_cap:
        raise BudgetExceeded(
            f"code length {space.size - 1} exceeds the point cap {cfg.point_cap}"
        )
    cols = space.affine_point_encodings()
    return LinearCode(
        f.field,
        _structured_rows(f, cols),
        mode="affine",
        columns=cols,
        ambient_n=f.n,
        function=f,
    )


def build_projective_code(f: FunctionSpec, config: Optional[Config] = None) -> LinearCode:
    """Columns over canonical projective representatives; f must be scalar compatible."""
    cfg = config or Config()
    space = f.space
    if space.size > cfg.point_cap:
        raise BudgetExceeded(
            f"space size {space.size} exceeds the point cap {cfg.point_cap}"
        )
    if scalar_compatible(f) is None:
        raise NotScalarCompatible(
            "projective code needs f(lam*x) = lam^d f(x) on nonzero points"
        )
    cols = space.projective_point_encodings()
    return LinearCode(
        f.field,
        _structured_rows(f, cols),
        mode="projective",
        columns=cols,
        ambient_n=f.n,
        function=f,
    )


# scalar-class representatives: messages whose first nonzero digit is 1,
# enumerated by leading position t, then by the integer g formed by the
# digits above t (digit t+1 least significant). Every nonzero codeword is
# a unique nonzero multiple of exactly one representative.
def _class_messages(dim: int, q: int, dtype) -> np.ndarray:
    """The R x dim message digits of every class representative, in order."""
    msgs = np.zeros(((q**dim - 1) // (q - 1), dim), dtype=dtype)
    row = 0
    for t in range(dim):
        count = q ** (dim - 1 - t)
        block = msgs[row : row + count]
        block[:, t] = 1
        g = np.arange(count)
        for j in range(t + 1, dim):
            block[:, j] = g % q
            g //= q
        row += count
    return msgs


def _doubling_blocks(lead: np.ndarray, tail, ops: FieldOps, q: int, cap: int):
    """Blocks of lead + span(tail) combos, ascending g."""
    total = q ** len(tail)
    if total * lead.size <= cap:
        words = lead[None, :]
        for row in tail:
            layers = [words]
            for lam in range(1, q):
                layers.append(ops.add(words, ops.mul_scalar(lam, row)[None, :]))
            words = np.concatenate(layers, axis=0)
        yield words
        return
    last = tail[-1]
    for lam in range(q):
        shifted = lead if lam == 0 else ops.add(lead, ops.mul_scalar(lam, last))
        yield from _doubling_blocks(shifted, tail[:-1], ops, q, cap)


def _class_blocks(code: LinearCode):
    """Yield word blocks over all class representatives in canonical order."""
    q = code.field.q
    basis = code.basis
    for t in range(code.dim):
        tail = [basis[j] for j in range(t + 1, code.dim)]
        yield from _doubling_blocks(basis[t], tail, code.ops, q, _BLOCK_ELEMS)


@dataclass
class ClassTable:
    """Every class representative in canonical order: its weight, its
    support as an int (bit j for coordinate j) and its message digits."""

    weights: np.ndarray
    supports: list
    messages: np.ndarray


def _class_table(code: LinearCode) -> ClassTable:
    """The code's class table, built by one enumeration pass on first use."""
    if code._classes is None:
        weights = np.empty(code.num_classes, dtype=np.int64)
        supports = []
        for words in _class_blocks(code):
            nz = words != 0
            weights[len(supports) : len(supports) + len(nz)] = nz.sum(axis=1)
            packed = np.packbits(nz, axis=1, bitorder="little")
            supports.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
        messages = _class_messages(code.dim, code.field.q, code.ops.dtype)
        code._classes = ClassTable(weights, supports, messages)
    return code._classes


def weight_distribution(code: LinearCode, config: Optional[Config] = None) -> dict:
    """Exact weight counts over all q^dim codewords, via scalar classes."""
    require_budgets(code, ("weights",), config)
    counts: dict = {0: 1}
    mult = code.field.q - 1
    wts, reps = np.unique(_class_table(code).weights, return_counts=True)
    for w, c in zip(wts.tolist(), reps.tolist()):
        counts[w] = counts.get(w, 0) + c * mult
    return counts


@dataclass
class MinimalityReport:
    minimal: Optional[bool]
    method: str
    pairs_checked: int = 0
    witness: Optional[dict] = None
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "minimal": self.minimal,
            "method": self.method,
            "pairs_checked": self.pairs_checked,
            "witness": self.witness,
            "notes": self.notes,
        }


def _first_inside(i: int, supports: list, weights: list):
    """The first class j != i whose support lies inside supp(c_i), or None."""
    si = supports[i]
    wi = weights[i]
    for j, sj in enumerate(supports):
        if j != i and weights[j] <= wi and sj & si == sj:
            return j
    return None


def is_minimal_bruteforce(
    code: LinearCode, config: Optional[Config] = None
) -> MinimalityReport:
    """Direct support-containment scan over ordered pairs of class reps.

    A pair with supp(c_j) inside supp(c_i), i != j, kills minimality; the
    witness is the first such pair in (i, j) order.
    """
    require_budgets(code, ("brute",), config)
    table = _class_table(code)
    supports, weights = table.supports, table.weights.tolist()
    R = len(weights)
    for i in range(R):
        j = _first_inside(i, supports, weights)
        if j is not None:
            witness = {
                "container_message": table.messages[i].tolist(),
                "contained_message": table.messages[j].tolist(),
            }
            # pairs (i, j') with j' != i, up to and including the hit
            pairs = i * (R - 1) + j + (j < i)
            return MinimalityReport(False, "bruteforce", pairs, witness)
    return MinimalityReport(True, "bruteforce", R * (R - 1))


def is_minimal_weightsum(
    code: LinearCode, config: Optional[Config] = None
) -> MinimalityReport:
    """Weight-sum minimality criterion, evaluated literally.

    For ordered independent pairs (c, c'), minimality fails exactly when
    sum over nonzero a of wt(c' - a*c) equals (q-1)*wt(c') - wt(c). The sum
    is computed as stated, keeping this an independent route rather than a
    restatement of support containment. c' - a*c has message m' - a*m, so
    each weight is looked up by message index (sum of digit_l * q^l) in a
    q^dim table filled from the class weights and their nonzero multiples.
    Classes i are scanned in blocks; the witness is the first hit in (i, j)
    order.
    """
    require_budgets(code, ("weightsum",), config)
    table = _class_table(code)
    q = code.field.q
    ops = code.ops
    msgs = table.messages
    wt = table.weights
    R = len(wt)
    place = q ** np.arange(code.dim, dtype=np.int64)
    lookup = np.zeros(q**code.dim, dtype=np.int64)
    for a in range(1, q):
        lookup[ops.mul_scalar(a, msgs) @ place] = wt
    # digits of -a*m_i for every nonzero a and class i, shape (q-1, R, dim)
    neg_multiples = np.stack([ops.neg(ops.mul_scalar(a, msgs)) for a in range(1, q)])
    rows = max(1, _SCAN_ELEMS // max(1, (q - 1) * R * code.dim))
    for i0 in range(0, R, rows):
        i1 = min(R, i0 + rows)
        # weights of c_j - a*c_i for classes i0 <= i < i1, every a and every j
        diffs = ops.add(msgs[None, None], neg_multiples[:, i0:i1, None])
        sums = lookup[diffs @ place].sum(axis=0)
        eq = sums == (q - 1) * wt[None, :] - wt[i0:i1, None]
        eq[np.arange(i1 - i0), np.arange(i0, i1)] = False
        hit_rows = np.nonzero(eq.any(axis=1))[0]
        if hit_rows.size:
            i = i0 + int(hit_rows[0])
            j = int(np.argmax(eq[hit_rows[0]]))
            # equality at (i, j) certifies supp(c_i) inside supp(c_j)
            witness = {
                "container_message": msgs[j].tolist(),
                "contained_message": msgs[i].tolist(),
            }
            return MinimalityReport(False, "weightsum", (i + 1) * (R - 1), witness)
    return MinimalityReport(True, "weightsum", R * (R - 1))


def is_minimal_theorem(code: LinearCode) -> MinimalityReport:
    """Blocking-set certificate; None when the hypotheses do not all hold."""
    if code.function is None or code.mode == "raw":
        raise ValueError("the theorem route needs a structured code with its function")
    report = theorem_hypotheses(code.function, code.mode)
    if report.applies:
        return MinimalityReport(True, "theorem", notes="all hypotheses certified")
    return MinimalityReport(
        None,
        "theorem",
        notes="hypotheses not fully certified; no verdict",
        witness={k: v for k, v in report.witnesses.items() if v is not None} or None,
    )


def is_minimal(
    code: LinearCode, method: str = "both", config: Optional[Config] = None
) -> MinimalityReport:
    """Dispatch: brute | weightsum | both (cross-checked) | theorem."""
    require_budgets(code, METHOD_ROUTES.get(method, ()), config)
    if method == "brute":
        return is_minimal_bruteforce(code, config)
    if method == "weightsum":
        return is_minimal_weightsum(code, config)
    if method == "theorem":
        return is_minimal_theorem(code)
    if method == "both":
        brute = is_minimal_bruteforce(code, config)
        wsum = is_minimal_weightsum(code, config)
        if brute.minimal != wsum.minimal:
            raise RuntimeError(
                f"minimality routes disagree: bruteforce={brute.minimal}, "
                f"weightsum={wsum.minimal}"
            )
        return MinimalityReport(
            brute.minimal,
            "bruteforce+weightsum",
            brute.pairs_checked + wsum.pairs_checked,
            brute.witness,
            notes="independent routes agree",
        )
    raise ValueError(f"unknown minimality method {method!r}")


def minimal_codewords(code: LinearCode, config: Optional[Config] = None) -> list:
    """Messages (one per scalar class) of the minimal codewords."""
    require_budgets(code, ("minimal-words",), config)
    table = _class_table(code)
    supports, weights = table.supports, table.weights.tolist()
    return [
        tuple(table.messages[i].tolist())
        for i in range(len(weights))
        if _first_inside(i, supports, weights) is None
    ]


@dataclass
class ABReport:
    """Exact weight-ratio condition w_max/w_min < q/(q-1), plus context."""

    satisfied: Optional[bool]
    method: str
    w_min: Optional[int] = None
    w_max: Optional[int] = None
    zero_count: Optional[int] = None
    threshold: Optional[int] = None
    threshold_hit: Optional[bool] = None
    weights: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "method": self.method,
            "w_min": self.w_min,
            "w_max": self.w_max,
            "zero_count": self.zero_count,
            "threshold": self.threshold,
            "threshold_hit": self.threshold_hit,
        }


def ab_zero_threshold(q: int, n: int, mode: str = "affine") -> int:
    """Zero-count level at which the weight ratio is forced to q/(q-1).

    Affine: 2q^(n-1) - q^(n-2) - 1 punctured zeros. Projective: the same
    divided (exactly) by q-1.
    """
    if n < 2:
        raise ValueError("threshold needs n >= 2")
    t = 2 * q ** (n - 1) - q ** (n - 2) - 1
    if mode == "affine":
        return t
    if mode == "projective":
        assert t % (q - 1) == 0
        return t // (q - 1)
    raise ValueError(f"unknown mode {mode!r}")


def ab_ratio_satisfied(w_min: int, w_max: int, q: int) -> bool:
    """w_max/w_min < q/(q-1), in exact integers."""
    return w_max * (q - 1) < w_min * q


def ab_check(code: LinearCode, config: Optional[Config] = None) -> ABReport:
    """Exact verdict from the full weight distribution (budget permitting)."""
    cfg = config or Config()
    zero_count = None
    threshold = None
    hit = None
    if code.function is not None and code.ambient_n is not None and code.ambient_n >= 2:
        mode = code.mode if code.mode != "raw" else "affine"
        zmode = "affine_star" if mode == "affine" else "projective"
        zero_count = len(zero_set(code.function, zmode))
        threshold = ab_zero_threshold(code.field.q, code.ambient_n, mode)
        hit = zero_count >= threshold
    try:
        weights = weight_distribution(code, cfg)
    except BudgetExceeded:
        if hit:
            return ABReport(
                False, "threshold", zero_count=zero_count, threshold=threshold, threshold_hit=hit
            )
        return ABReport(
            None, "none", zero_count=zero_count, threshold=threshold, threshold_hit=hit
        )
    nonzero = [w for w in weights if w > 0]
    w_min = min(nonzero)
    w_max = max(nonzero)
    satisfied = ab_ratio_satisfied(w_min, w_max, code.field.q)
    if hit and satisfied:
        raise RuntimeError("zero-count threshold contradicts the exact weight ratio")
    return ABReport(
        satisfied,
        "distribution",
        w_min=w_min,
        w_max=w_max,
        zero_count=zero_count,
        threshold=threshold,
        threshold_hit=hit,
        weights=weights,
    )


def ab_r_threshold(q: int) -> tuple:
    """Block degree beyond which the family is forced to violate the ratio.

    Returns (real threshold, least integer r at or above it). Derived from
    comparing the zero count of the block family with the zero-count level:
    r >= 2 + log_{1-1/q}((q - sqrt(q)) / (q - 1)).
    """
    if q < 2:
        raise ValueError("need a prime power q >= 2")
    value = 2.0 + math.log((q - math.sqrt(q)) / (q - 1)) / math.log(1.0 - 1.0 / q)
    r_min = math.ceil(value - 1e-12)
    return value, r_min


def survey_family(
    q: int,
    r_values,
    k: int,
    mode: str = "affine",
    config: Optional[Config] = None,
    modulus=None,
) -> list:
    """One row per block degree r: parameters, certificates, verdicts.

    Zero counts come from the closed form, cross-checked by enumeration on
    spaces small enough to scan; enumerated and certified verdicts must
    agree or the survey raises. Verdicts that no route could reach within
    budget are None, with the method fields saying why.
    """
    cfg = config or Config()
    field = field_from_order(q, modulus)
    rows = []
    for r in r_values:
        f = MonomialBlocks(field, r, k)
        n = f.n
        space_size = q**n
        zero_full = monomial_blocks_zero_count(q, r, k)
        zero_star = zero_full - 1
        if space_size <= cfg.point_cap:
            scanned = len(zero_set(f, "affine_star"))
            if scanned != zero_star:
                raise RuntimeError(
                    f"zero-count formula disagrees with enumeration at r={r}: "
                    f"{zero_star} vs {scanned}"
                )
        if mode == "affine":
            zero_count = zero_star
            length = space_size - 1
        else:
            assert zero_star % (q - 1) == 0
            zero_count = zero_star // (q - 1)
            length = (space_size - 1) // (q - 1)
        threshold = ab_zero_threshold(q, n, mode)
        hit = zero_count >= threshold
        row = {
            "q": q,
            "r": r,
            "k": k,
            "n": n,
            "length": length,
            "zero_count": zero_count,
            "threshold": threshold,
            "threshold_hit": hit,
        }
        try:
            theorem = theorem_hypotheses(f, mode)
            applies = theorem.applies
        except BudgetExceeded:
            applies = None
        row["theorem_applies"] = applies
        code = None
        if length <= cfg.point_cap and space_size <= cfg.point_cap:
            builder = build_affine_code if mode == "affine" else build_projective_code
            code = builder(f, cfg)
            row["dim"] = code.dim
        else:
            row["dim"] = n + 1
        minimal = None
        mmethod = "none"
        if code is not None:
            verdicts = {}
            for name, fn in (
                ("bruteforce", is_minimal_bruteforce),
                ("weightsum", is_minimal_weightsum),
            ):
                try:
                    verdicts[name] = fn(code, cfg).minimal
                except BudgetExceeded:
                    pass
            if len(set(verdicts.values())) > 1:
                raise RuntimeError(f"minimality routes disagree at r={r}: {verdicts}")
            if verdicts:
                minimal = next(iter(verdicts.values()))
                mmethod = "+".join(sorted(verdicts))
        if minimal is None and applies:
            minimal = True
            mmethod = "theorem"
        elif minimal is not None and applies and minimal is not True:
            raise RuntimeError(
                f"theorem certificate contradicts enumeration at r={r}"
            )
        row["minimal"] = minimal
        row["minimality_method"] = mmethod
        ab_satisfied = None
        ab_method = "none"
        w_min = w_max = None
        if code is not None:
            ab = ab_check(code, cfg)
            ab_satisfied = ab.satisfied
            ab_method = ab.method
            w_min, w_max = ab.w_min, ab.w_max
        if ab_satisfied is None and hit:
            ab_satisfied = False
            ab_method = "threshold"
        row["ab_satisfied"] = ab_satisfied
        row["ab_method"] = ab_method
        row["w_min"] = w_min
        row["w_max"] = w_max
        rows.append(row)
    return rows


def permute_columns(code: LinearCode, perm) -> LinearCode:
    """Reorder coordinates; labels travel with their columns."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(code.length)):
        raise ValueError("not a permutation of the coordinates")
    cols = code.columns[perm] if code.columns is not None else None
    return LinearCode(
        code.field,
        code.rows[:, perm],
        mode=code.mode,
        columns=cols,
        ambient_n=code.ambient_n,
        function=code.function,
    )


# generator-matrix files: header "q length dim mode [modulus]", then dim
# rows of element codes. Structured modes only round-trip at full rank;
# write degenerate codes as raw.
def format_generator_matrix(code: LinearCode) -> str:
    mode = code.mode
    if mode != "raw" and (
        code.ambient_n is None or code.dim != code.ambient_n + 1
    ):
        mode = "raw"
    head = f"{code.field.q} {code.length} {code.dim} {mode}"
    if code.field.m > 1:
        head += " " + " ".join(str(c) for c in code.field.modulus)
    lines = [head]
    for row in code.basis:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def write_generator_matrix(path, code: LinearCode):
    Path(path).write_text(format_generator_matrix(code))


def parse_generator_matrix(text: str) -> LinearCode:
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if not lines:
        raise ParseError("empty generator-matrix file")
    head = lines[0].split()
    if len(head) < 4:
        raise ParseError("header needs 'q length dim mode'")
    try:
        q, length, dim = int(head[0]), int(head[1]), int(head[2])
    except ValueError as exc:
        raise ParseError("non-integer in header") from exc
    mode = head[3]
    if mode not in ("affine", "projective", "raw"):
        raise ParseError(f"unknown mode {mode!r}")
    try:
        modulus = tuple(int(x) for x in head[4:]) or None
    except ValueError as exc:
        raise ParseError("non-integer modulus coefficient") from exc
    try:
        field = field_from_order(q, modulus)
    except (ValueError, CutcodesError) as exc:
        raise ParseError(str(exc)) from exc
    if len(lines) - 1 != dim:
        raise ParseError(f"expected {dim} rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != length:
            raise ParseError(f"row {lineno}: expected {length} entries")
        try:
            vals = [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"row {lineno}: non-integer entry") from exc
        if any(not 0 <= x < q for x in vals):
            raise ParseError(f"row {lineno}: entry outside 0..{q - 1}")
        rows.append(vals)
    columns = None
    ambient = None
    if mode != "raw":
        n = dim - 1
        space = Space(field, max(n, 1))
        expected = (
            space.size - 1 if mode == "affine" else (space.size - 1) // (q - 1)
        )
        if n < 1 or expected != length:
            raise ParseError(
                f"{mode} mode: length {length} does not match dimension {dim}"
            )
        columns = (
            space.affine_point_encodings()
            if mode == "affine"
            else space.projective_point_encodings()
        )
        ambient = n
    code = LinearCode(
        field, np.array(rows), mode=mode, columns=columns, ambient_n=ambient
    )
    if code.dim != dim:
        raise ParseError(f"stored rows have rank {code.dim}, header claims {dim}")
    return code


def load_generator_matrix(path) -> LinearCode:
    return parse_generator_matrix(Path(path).read_text())
