"""Blocking-set and cutting-set certificates.

A vectorial k-blocking set lives in GF(q)^n minus the origin and meets
every (n-k)-dimensional linear subspace; it is cutting when its trace on
each such subspace spans it. The projective flavor works on canonical
representatives in PG(n-1, q); a projective subspace of projective
dimension s is handled through the linear subspace of dimension s+1.
All scans run in the canonical subspace order of Space.subspaces, so
witnesses are deterministic: always the first failure in that order.
A request checks its set against the flavor once: the public is_blocking,
is_cutting and is_ks_blocking each check it, blocking_report once through
is_blocking, and theorem_hypotheses not at all, since zero_set builds valid
sets; past the check they share the unchecked cores _blocking and _cutting.

Every codimension k and containment dimension s reads |S n K| block by
block from Space.subspace_blocks, in the same canonical order, on whichever
side of K is smaller: the sum of the bitmap over K's q^d points (d = dim K),
or the set's hyperplane counts c[h] = |S n H_h| (PointSet.hyperplane_counts,
one exact transform) summed over the q^(n-d) vectors of ann K; for a
hyperplane, ann K = span(h) and the sum reads c[h] itself.
Blocking looks for a count of 0 and the exclusion for a count equal to all
of K. Cutting always reads the annihilator side: for every hyperplane
K n H_g of K it compares the hyperplane counts summed over g + ann K with
those summed over ann K (see _first_uncut_subspace), once K's count
leaves the check open: a K with fewer than d points of the set fails, and
one with more than a hyperplane of K holds is spanned. Scans of d < n - 1
stay under _GENERIC_POINT_CAP, checked before any count; hyperplanes are
charged the same cap by Space.scan_hyperplane_counts, the one route of
theirs that visits points.

support_spans reads the counts of the function's zero set (in
theorem_hypotheses the ones already taken), since supp(f) lies in H exactly
when every point off H is a zero. The shift condition reads the same
transform of the function's values over its support. Over a large field
with few hyperplanes, where Space.counts_by_transform finds the transform
dearer than a scan, the hyperplane counts come from the points of each
hyperplane and the shift condition keeps its loop over v. The container
of a failing trace is the first other subspace K whose annihilator lies in
the trace's (see _first_container), read from the same annihilator blocks;
set_dimension and the trace's basis come from one numpy elimination
(Space.span_basis). method="pairwise" and hyperplane_pair_oracle remain
literal cross-checks; the pairwise loop is charged its subspace_count(d)^2
pairs times q^n against _GENERIC_POINT_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .bulk import ops_for
from .errors import (
    BudgetExceeded,
    DimensionOutOfRange,
    NonCanonicalPoint,
    NotScalarCompatible,
    OriginInSet,
    SameHyperplane,
    ZeroNormal,
)
from .functions import FunctionSpec, scalar_compatible, zero_set
from .geometry import _COUNT_CHUNK, _GENERIC_POINT_CAP, PointSet, Space, SubspaceBasis

DEFAULT_OP_BUDGET = 4 * 10**9


def _validate(pset: PointSet, k: int, flavor: str):
    space = pset.space
    if space.n < 2:
        raise DimensionOutOfRange("blocking checks need ambient dimension >= 2")
    if not 1 <= k <= space.n - 1:
        raise DimensionOutOfRange(f"k must be in 1..{space.n - 1}, got {k}")
    if flavor == "vectorial":
        if pset.has_origin():
            raise OriginInSet("vectorial blocking sets exclude the origin")
    elif flavor == "projective":
        if not bool((space.leading_digits(pset.encodings()) == 1).all()):
            raise NonCanonicalPoint(
                "projective point sets must hold canonical representatives"
            )
    else:
        raise ValueError(f"unknown flavor {flavor!r}")


def _require_point_cap(space: Space, d: int):
    """Refuse, before any count, a scan of the d-dimensional subspaces past the cap.

    Hyperplanes (d = n - 1) are exempt here: their counts are the set's
    hyperplane counts, taken once from one transform or from a scan that
    checks the cap itself.
    """
    if d < space.n - 1 and space.subspace_count(d) * space.q**d > _GENERIC_POINT_CAP:
        raise BudgetExceeded(
            f"enumerating {space.subspace_count(d)} subspaces of dimension {d} "
            "exceeds the point cap"
        )


def _on_points(space: Space, d: int) -> bool:
    """Count over K's q^d points rather than the q^(n-d) vectors of ann K?"""
    return d <= space.n - d


def _subspace_counts(pset: PointSet, d: int, side: Optional[str] = None):
    """(start, pivots, enc, |S n K|) per canonical block of d-dim subspaces K.

    enc comes from the given side of Space.subspace_blocks, by default the
    smaller one (see _on_points). On the points side the count sums the
    bitmap over K's q^d points. On the annihilator side (codimension
    k = n - d) it reads the hyperplane counts c (c[0] = |S|) over the q^k
    vectors w of ann K: a point of K lies on every H_w and a point off K on
    q^(k-1) of them, so sum_w c[w] = (q^k - q^(k-1)) |S n K| + q^(k-1) |S|.
    """
    space = pset.space
    q, k = space.q, space.n - d
    if side is None:
        side = "points" if _on_points(space, d) else "annihilator"
    if side == "points":
        for start, pivots, enc in space.subspace_blocks(d, "points"):
            yield start, pivots, enc, np.count_nonzero(pset.bits[enc], axis=1)
        return
    c = pset.hyperplane_counts()
    off = q ** (k - 1) * len(pset)
    for start, pivots, enc in space.subspace_blocks(d, "annihilator"):
        yield start, pivots, enc, (c[enc].sum(axis=1) - off) // (q**k - q ** (k - 1))


def _first_count(pset: PointSet, d: int, count: int) -> Optional[int]:
    """Canonical index of the first d-dim subspace K with |S n K| = count."""
    for start, _, _, hits in _subspace_counts(pset, d):
        b = _first(hits == count)
        if b is not None:
            return start + b
    return None


def set_dimension(pset: PointSet, flavor: str = "vectorial") -> int:
    """Dimension of the span; projective flavor reports projective dimension."""
    dim = len(pset.space.span_basis(pset.encodings()))
    return dim - 1 if flavor == "projective" else dim


def is_blocking(pset: PointSet, k: int, flavor: str = "vectorial"):
    """Does the set meet every codimension-k subspace? (verdict, missed one)."""
    _validate(pset, k, flavor)
    return _blocking(pset, k)


def _blocking(pset: PointSet, k: int):
    """is_blocking on a set already validated for k and its flavor."""
    space = pset.space
    _require_point_cap(space, space.n - k)
    h = _first_count(pset, space.n - k, 0)
    return (True, None) if h is None else (False, space.subspace_basis(space.n - k, h))


def _first(flags) -> Optional[int]:
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


def _first_uncut_subspace(pset: PointSet, d: int, flavor: str) -> Optional[int]:
    """Canonical index of the first d-dim subspace K (d <= n - 1) the trace does not span.

    The trace S n K fails to span K exactly when it lies in a hyperplane
    K n H_g of K, with g taken up to scalars over K's pivot coordinates
    (those g give every hyperplane of K once). A point x of S off K lies on
    q^(k-1) of the hyperplanes H_(g+u), u in ann K, and a point of K on q^k
    of them if g.x = 0 and on none otherwise, so the trace lies in H_g iff
    sum_(u in ann K) c[g + u] = sum_(u in ann K) c[u] (the column g = 0).
    For a hyperplane K = H_h (k = 1) that column is (q - 1) c[h] + |S|, and
    g ranges over the codimension-2 flags of H_h. The sums take one gather
    per vector u, not a reduction over an axis only q^k long; g depends
    only on the pivot pattern, so Space.translate takes its digits once per
    pattern and each u costs a few row takes.

    Two counting rules settle a K without the check. A K holding fewer
    than d points of the set fails, which bounds the scan. A K holding more
    points than a hyperplane of K can, room = q^(d-1) - 1 nonzero points
    (or (q^(d-1) - 1) / (q - 1) canonical representatives for the
    projective flavor), is spanned and skipped. Only the K a count block
    leaves open are checked, about _COUNT_CHUNK sums (reps.size * q^k per
    K) at a time, in order and before the block's first K of too few
    points, so the first failure in canonical order wins.
    """
    space = pset.space
    small = Space(space.field, d)
    reps = np.concatenate([[0], small.projective_point_encodings()])
    digits = small.decode_block(reps)
    room = space.q ** (d - 1) - 1
    if flavor == "projective":
        room //= space.q - 1
    c = pset.hyperplane_counts()
    chunk = max(1, _COUNT_CHUNK // (reps.size * space.q ** (space.n - d)))
    last = None
    for start, pivots, enc, hits in _subspace_counts(pset, d, "annihilator"):
        stop = _first(hits < d)
        left = np.flatnonzero(hits[:stop] <= room)  # the K left to check
        if left.size and pivots != last:  # g depends only on the pivot pattern
            g = digits @ space.places[list(pivots)]
            plus_g, at_g, last = space.translate(g[None, :]), c[g], pivots
        for lo in range(0, left.size, chunk):
            rows = left[lo : lo + chunk]
            sums = np.repeat(at_g[None, :], rows.size, axis=0)  # u = 0
            for u in enc[rows].T[1:]:
                sums += c[plus_g(u[:, None])]
            b = _first((sums[:, 1:] == sums[:, :1]).any(axis=1))
            if b is not None:
                return start + int(rows[b])
        if stop is not None:
            return start + stop
    return None


def _first_container(pset: PointSet, sub: SubspaceBasis, skip: int) -> SubspaceBasis:
    """First subspace of sub's dimension, in canonical order, holding the
    trace S n sub, other than sub itself (at position skip).

    A subspace K contains the trace exactly when ann K lies in ann(trace),
    the vectors orthogonal to the trace's echelon basis (Space.span_basis);
    the annihilator blocks of subspace_blocks list ann K for every K.
    """
    space, d = pset.space, sub.dim
    points = sub.point_encodings()
    trace = points[pset.bits[points]]
    ann = np.ones(space.size, dtype=bool)
    for row in space.span_basis(trace):
        ann &= space.dot_all(row) == 0
    for start, _, enc in space.subspace_blocks(d, "annihilator"):
        inside = ann[enc].all(axis=1)
        if start <= skip < start + inside.size:
            inside[skip - start] = False
        b = _first(inside)
        if b is not None:
            return space.subspace_basis(d, start + b)
    raise AssertionError("a low-rank trace always has a second container")


def is_cutting(pset: PointSet, k: int, flavor: str = "vectorial", method: str = "span"):
    """Cutting k-blocking verdict.

    span: the trace on every codimension-k subspace must span it. pairwise:
    literal definition, the trace must not land inside any other subspace of
    the same dimension. Both return (verdict, (subspace, container) | None)
    and agree exactly, witnesses included.
    """
    _validate(pset, k, flavor)
    return _cutting(pset, k, flavor, method)


def _cutting(pset: PointSet, k: int, flavor: str, method: str = "span"):
    """is_cutting on a set already validated for k and its flavor."""
    if method not in ("span", "pairwise"):
        raise ValueError(f"unknown cutting method {method!r}")
    space = pset.space
    d = space.n - k
    if method == "pairwise":
        pairs = space.subspace_count(d) ** 2
        if pairs * space.size > _GENERIC_POINT_CAP:
            raise BudgetExceeded(
                f"the pairwise cutting check compares {pairs} pairs of subspaces "
                f"over {space.size} points, cap {_GENERIC_POINT_CAP}"
            )
        entries = [(sub, sub.point_set().bits) for sub in space.subspaces(d)]
        for sub, members in entries:
            trace = pset.bits & members
            trace[0] = False
            for other, omembers in entries:
                if other == sub:
                    continue
                if not (trace & ~omembers).any():
                    return False, (sub, other)
        return True, None
    _require_point_cap(space, d)
    h = _first_uncut_subspace(pset, d, flavor)
    if h is None:
        return True, None
    sub = space.subspace_basis(d, h)
    return False, (sub, _first_container(pset, sub, h))


def is_ks_blocking(pset: PointSet, k: int, s: int, flavor: str = "vectorial"):
    """(k, s)-blocking verdict: k-blocking and no s-dim subspace inside.

    Vectorial: s is a linear dimension and containment ignores the origin.
    Projective: s is a projective dimension; the subspace counts as contained
    when all its canonical representatives lie in the set.
    Returns (verdict, {"missed": ..., "contained": ...}).
    """
    _validate(pset, k, flavor)
    lin_s = _linear_s(pset.space, s, flavor)
    return _ks_verdict(pset, lin_s, flavor, *_blocking(pset, k))


def _linear_s(space: Space, s: int, flavor: str) -> int:
    lin_s = s + 1 if flavor == "projective" else s
    if not 1 <= lin_s <= space.n - 1:
        raise DimensionOutOfRange(f"s={s} out of range for {flavor} flavor")
    return lin_s


def _ks_verdict(pset: PointSet, lin_s: int, flavor: str, blocked: bool, missed):
    """is_ks_blocking's result, given the k-blocking verdict already found."""
    if not blocked:
        return False, {"missed": missed, "contained": None}
    contained = _contained_subspace(pset, lin_s, flavor)
    if contained is not None:
        return False, {"missed": None, "contained": contained}
    return True, {"missed": None, "contained": None}


def _contained_subspace(pset: PointSet, lin_s: int, flavor: str):
    """First subspace of linear dimension lin_s whose points all lie in the set."""
    space = pset.space
    full = space.q**lin_s - 1
    if flavor == "projective":
        full //= space.q - 1
    _require_point_cap(space, lin_s)
    h = _first_count(pset, lin_s, full)
    return None if h is None else space.subspace_basis(lin_s, h)


def support_spans(f: FunctionSpec):
    """Necessary condition: supp(f) lies in no hyperplane. (verdict, normal)."""
    return _support_spans(zero_set(f, "affine_star"), 1)


def _support_spans(zeros: PointSet, cone: int):
    """support_spans from the counts |Z n H| of f's zero set Z.

    Each point of zeros stands for `cone` nonzero zeros of f: 1 for the
    affine zero set, q - 1 for the canonical representatives of a cone.
    supp(f) lies in H_v exactly when every point off H_v is a zero, that is
    when cone * |Z - H_v| = q^n - q^(n-1), or
    |Z n H_v| = |Z| - q^(n-1) (q - 1) / cone.
    """
    space = zeros.space
    h = _first_count(zeros, space.n - 1, len(zeros) - (space.size - space.size // space.q) // cone)
    return (True, None) if h is None else (False, space.hyperplane_basis(h).normal())


def shift_vanishes_on_support(f: FunctionSpec):
    """For every nonzero v, f + v.x must vanish somewhere f does not.

    Returns (verdict, first failing v in encoding order as a tuple | None).
    """
    space = f.space
    tab = f.table()
    support = tab != 0
    if space.counts_by_transform(space.size):
        ve = _first(space.shift_counts(support, tab)[1:] == 0)
        return (True, None) if ve is None else (False, space.decode(ve + 1))
    ops = ops_for(f.field)
    for ve in range(1, space.size):
        v = space.decode(ve)
        if not (support & (ops.add(tab, space.dot_all(v)) == 0)).any():
            return False, v
    return True, None


def hyperplane_pair_oracle(f: FunctionSpec, v, v_prime) -> bool:
    """Literal scan for a point separating two hyperplanes through the zeros.

    True iff some nonzero x satisfies u*f(x) + v.x = 0 for every scalar u
    while u'*f(x) + v'.x != 0 for every scalar u'. Deliberately follows the
    quantifier structure rather than the equivalent set formulation; costs
    O(q^n * q) and is meant for small spaces and cross-checks.
    """
    space = f.space
    fld = f.field
    if not any(v) or not any(v_prime):
        raise ZeroNormal("hyperplane normals must be nonzero")
    if space.canonical_representative(v) == space.canonical_representative(v_prime):
        raise SameHyperplane("the pair oracle needs two distinct hyperplanes")
    for e in range(1, space.size):
        x = space.decode(e)
        fx = f.evaluate(x)
        dv = space.dot(v, x)
        dvp = space.dot(v_prime, x)
        if any(fld.add(fld.mul(u, fx), dv) != 0 for u in fld.elements()):
            continue
        if all(
            fld.add(fld.mul(up, fx), dvp) != 0 for up in fld.elements()
        ):
            return True
    return False


def _sub_json(sub: Optional[SubspaceBasis]):
    return sub.as_lists() if sub is not None else None


@dataclass
class BlockingReport:
    """Result bundle for one point set, JSON-friendly.

    cutting and ks_blocking are None when their check was not requested.
    """

    flavor: str
    k: int
    s: Optional[int]
    set_size: int
    dimension: int
    blocking: bool
    cutting: Optional[bool]
    ks_blocking: Optional[bool]
    witnesses: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(vars(self))


def blocking_report(
    pset: PointSet,
    k: int,
    flavor: str = "vectorial",
    s: Optional[int] = None,
    method: str = "span",
    check_cutting: bool = True,
) -> BlockingReport:
    blocked, missed = is_blocking(pset, k, flavor)  # the one validation
    cutting: Optional[bool] = None
    cut_wit = None
    if check_cutting:
        cutting, cut_wit = _cutting(pset, k, flavor, method)
    ks_ok = None
    witnesses = {
        "missed_subspace": _sub_json(missed),
        "trace_subspace": _sub_json(cut_wit[0]) if cut_wit else None,
        "containing_subspace": _sub_json(cut_wit[1]) if cut_wit else None,
        "contained_subspace": None,
    }
    if s is not None:
        lin_s = _linear_s(pset.space, s, flavor)
        ks_ok, ks_wit = _ks_verdict(pset, lin_s, flavor, blocked, missed)
        witnesses["contained_subspace"] = _sub_json(ks_wit["contained"])
    return BlockingReport(
        flavor=flavor,
        k=k,
        s=s,
        set_size=len(pset),
        dimension=set_dimension(pset, flavor),
        blocking=blocked,
        cutting=cutting,
        ks_blocking=ks_ok,
        witnesses=witnesses,
    )


@dataclass
class TheoremReport:
    """Hypothesis audit for the minimality theorem, affine or projective mode.

    applies is True only when every certified hypothesis holds; it then
    guarantees minimality of the matching code construction.
    """

    mode: str
    zero_set_size: int
    dimension: int
    dimension_ok: bool
    cutting_ok: bool
    exclusion_ok: bool
    shift_ok: bool
    support_spans_ok: bool
    witnesses: dict = dc_field(default_factory=dict)

    @property
    def applies(self) -> bool:
        return (
            self.dimension_ok and self.cutting_ok and self.exclusion_ok and self.shift_ok
        )

    def to_dict(self) -> dict:
        """Every field, with applies added before the witnesses."""
        out = dict(vars(self), applies=self.applies)
        out["witnesses"] = out.pop("witnesses")
        return out


def require_hypothesis_budget(space: Space, op_budget: int = DEFAULT_OP_BUDGET):
    """Refuse, before any work, a hypothesis scan over space beyond op_budget."""
    if space.n < 2:
        raise DimensionOutOfRange("theorem checks need ambient dimension >= 2")
    hyperplanes = space.subspace_count(space.n - 1)
    cost = space.size * space.size + 3 * hyperplanes * space.size * space.n
    if cost > op_budget:
        raise BudgetExceeded(
            f"hypothesis scan needs about {cost:.2e} ops, budget {op_budget:.2e}"
        )


def theorem_hypotheses(
    f: FunctionSpec, mode: str = "affine", op_budget: int = DEFAULT_OP_BUDGET
) -> TheoremReport:
    """Check the sufficient conditions for minimality of the built code.

    Affine mode: the punctured zero set must be a full-dimensional cutting
    vectorial (1, n-1)-blocking set, and every shifted function must vanish
    on the support. Projective mode: the projective zero set must be a
    cutting projective (1, n-2)-blocking set of full projective dimension;
    needs a scalar-compatible f.
    """
    space = f.space
    require_hypothesis_budget(space, op_budget)
    if mode == "affine":
        pset = zero_set(f, "affine_star")
        flavor = "vectorial"
        want_dim = space.n
    elif mode == "projective":
        if scalar_compatible(f) is None:
            raise NotScalarCompatible("projective mode needs scalar compatibility")
        pset = zero_set(f, "projective")
        flavor = "projective"
        want_dim = space.n - 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    dim = set_dimension(pset, flavor)
    cutting, cut_wit = _cutting(pset, 1, flavor)  # zero_set gives a valid set
    # affine (1, n-1)- and projective (1, n-2)-blocking both exclude linear dimension n - 1
    contained = _contained_subspace(pset, space.n - 1, flavor)
    exclusion_ok = contained is None
    shift_ok, shift_wit = shift_vanishes_on_support(f)
    spans_ok, span_wit = _support_spans(pset, 1 if mode == "affine" else space.q - 1)
    witnesses = {
        "trace_subspace": _sub_json(cut_wit[0]) if cut_wit else None,
        "containing_subspace": _sub_json(cut_wit[1]) if cut_wit else None,
        "contained_subspace": _sub_json(contained),
        "shift_vector": list(shift_wit) if shift_wit else None,
        "unspanned_normal": list(span_wit) if span_wit else None,
    }
    return TheoremReport(
        mode=mode,
        zero_set_size=len(pset),
        dimension=dim,
        dimension_ok=dim == want_dim,
        cutting_ok=cutting,
        exclusion_ok=exclusion_ok,
        shift_ok=shift_ok,
        support_spans_ok=spans_ok,
        witnesses=witnesses,
    )
