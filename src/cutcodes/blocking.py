"""Blocking-set and cutting-set certificates.

A vectorial k-blocking set lives in GF(q)^n minus the origin and meets
every (n-k)-dimensional linear subspace; it is cutting when its trace on
each such subspace spans it. The projective flavor works on canonical
representatives in PG(n-1, q); a projective subspace of projective
dimension s is handled through the linear subspace of dimension s+1.
All scans run in the canonical subspace order of Space.subspaces, so
witnesses are deterministic: always the first failure in that order.
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
from .geometry import PointSet, RowReducer, Space, SubspaceBasis

DEFAULT_OP_BUDGET = 4 * 10**9

_GENERIC_POINT_CAP = 1 << 24


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
        if not bool((~pset.bits | space.projective_mask()).all()):
            raise NonCanonicalPoint(
                "projective point sets must hold canonical representatives"
            )
    else:
        raise ValueError(f"unknown flavor {flavor!r}")


def _subspace_members(sub: SubspaceBasis, fast_mask: Optional[np.ndarray]):
    """Boolean membership array of a subspace over all encodings."""
    if fast_mask is not None:
        return fast_mask
    space = sub.space
    bits = np.zeros(space.size, dtype=bool)
    bits[sub.point_encodings()] = True
    return bits


def _iter_subspace_masks(space: Space, d: int):
    """(subspace, membership bits) in canonical order; hyperplanes via dot."""
    fast = d == space.n - 1
    if not fast and space.subspace_count(d) * space.q**d > _GENERIC_POINT_CAP:
        raise BudgetExceeded(
            f"enumerating {space.subspace_count(d)} subspaces of dimension {d} "
            "exceeds the point cap"
        )
    for sub in space.subspaces(d):
        if fast:
            yield sub, space.dot_all(sub.normal()) == 0
        else:
            yield sub, _subspace_members(sub, None)


def set_dimension(pset: PointSet, flavor: str = "vectorial") -> int:
    """Dimension of the span; projective flavor reports projective dimension."""
    space = pset.space
    red = RowReducer(space.field)
    for e in pset.encodings():
        red.absorb(space.decode(int(e)))
        if red.rank == space.n:
            break
    return red.rank - 1 if flavor == "projective" else red.rank


def is_blocking(pset: PointSet, k: int, flavor: str = "vectorial"):
    """Does the set meet every codimension-k subspace? (verdict, missed one)."""
    _validate(pset, k, flavor)
    space = pset.space
    for sub, members in _iter_subspace_masks(space, space.n - k):
        hit = pset.bits & members
        hit[0] = False
        if not hit.any():
            return False, sub
    return True, None


def _first_container(space: Space, d: int, rows, skip: SubspaceBasis):
    """First d-dim subspace (canonical order) containing all rows, not skip."""
    for other in space.subspaces(d):
        if other == skip:
            continue
        if all(other.contains(r) for r in rows):
            return other
    raise AssertionError("a low-rank trace always has a second container")


def is_cutting(pset: PointSet, k: int, flavor: str = "vectorial", method: str = "span"):
    """Cutting k-blocking verdict.

    span: the trace on every codimension-k subspace must span it. pairwise:
    literal definition, the trace must not land inside any other subspace of
    the same dimension. Both return (verdict, (subspace, container) | None)
    and agree exactly, witnesses included.
    """
    _validate(pset, k, flavor)
    if method not in ("span", "pairwise"):
        raise ValueError(f"unknown cutting method {method!r}")
    space = pset.space
    d = space.n - k
    if method == "pairwise":
        if space.subspace_count(d) * space.size > _GENERIC_POINT_CAP:
            raise BudgetExceeded("pairwise cutting check only fits small spaces")
        entries = list(_iter_subspace_masks(space, d))
        for sub, members in entries:
            trace = pset.bits & members
            trace[0] = False
            for other, omembers in entries:
                if other == sub:
                    continue
                if not (trace & ~omembers).any():
                    return False, (sub, other)
        return True, None
    for sub, members in _iter_subspace_masks(space, d):
        trace = np.nonzero(pset.bits & members)[0]
        red = RowReducer(space.field)
        for e in trace:
            if e == 0:
                continue
            red.absorb(space.decode(int(e)))
            if red.rank == d:
                break
        if red.rank < d:
            rows = [r for _, r in red.rows]
            return False, (sub, _first_container(space, d, rows, sub))
    return True, None


def is_ks_blocking(pset: PointSet, k: int, s: int, flavor: str = "vectorial"):
    """(k, s)-blocking verdict: k-blocking and no s-dim subspace inside.

    Vectorial: s is a linear dimension and containment ignores the origin.
    Projective: s is a projective dimension; the subspace counts as contained
    when all its canonical representatives lie in the set.
    Returns (verdict, {"missed": ..., "contained": ...}).
    """
    _validate(pset, k, flavor)
    space = pset.space
    lin_s = s + 1 if flavor == "projective" else s
    if not 1 <= lin_s <= space.n - 1:
        raise DimensionOutOfRange(f"s={s} out of range for {flavor} flavor")
    blocked, missed = is_blocking(pset, k, flavor)
    if not blocked:
        return False, {"missed": missed, "contained": None}
    contained = _contained_subspace(pset, lin_s, flavor)
    if contained is not None:
        return False, {"missed": None, "contained": contained}
    return True, {"missed": None, "contained": None}


def _contained_subspace(pset: PointSet, lin_s: int, flavor: str):
    """First subspace of linear dimension lin_s whose points all lie in the set."""
    space = pset.space
    if flavor == "projective":
        relevant = space.projective_mask()
    else:
        relevant = np.ones(space.size, dtype=bool)
        relevant[0] = False
    for sub, members in _iter_subspace_masks(space, lin_s):
        if not (members & relevant & ~pset.bits).any():
            return sub
    return None


def support_spans(f: FunctionSpec):
    """Necessary condition: supp(f) lies in no hyperplane. (verdict, normal)."""
    space = f.space
    tab = f.table()
    red = RowReducer(space.field)
    for e in np.nonzero(tab)[0]:
        if e == 0:
            continue
        red.absorb(space.decode(int(e)))
        if red.rank == space.n:
            return True, None
    support = tab != 0
    support[0] = False
    for sub in space.subspaces(space.n - 1):
        v = sub.normal()
        if not (support & (space.dot_all(v) != 0)).any():
            return False, v
    raise AssertionError("a non-spanning support lies in some hyperplane")


def shift_vanishes_on_support(f: FunctionSpec):
    """For every nonzero v, f + v.x must vanish somewhere f does not.

    Returns (verdict, first failing v as a tuple | None).
    """
    space = f.space
    ops_tab = f.table()
    support = ops_tab != 0
    ops = ops_for(f.field)
    for ve in range(1, space.size):
        v = space.decode(ve)
        shifted = ops.add(ops_tab, space.dot_all(v))
        if not (support & (shifted == 0)).any():
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
        return {
            "flavor": self.flavor,
            "k": self.k,
            "s": self.s,
            "set_size": self.set_size,
            "dimension": self.dimension,
            "blocking": self.blocking,
            "cutting": self.cutting,
            "ks_blocking": self.ks_blocking,
            "witnesses": self.witnesses,
        }


def blocking_report(
    pset: PointSet,
    k: int,
    flavor: str = "vectorial",
    s: Optional[int] = None,
    method: str = "span",
    check_cutting: bool = True,
) -> BlockingReport:
    _validate(pset, k, flavor)
    blocked, missed = is_blocking(pset, k, flavor)
    cutting: Optional[bool] = None
    cut_wit = None
    if check_cutting:
        cutting, cut_wit = is_cutting(pset, k, flavor, method=method)
    ks_ok = None
    witnesses = {
        "missed_subspace": _sub_json(missed),
        "trace_subspace": _sub_json(cut_wit[0]) if cut_wit else None,
        "containing_subspace": _sub_json(cut_wit[1]) if cut_wit else None,
        "contained_subspace": None,
    }
    if s is not None:
        ks_ok, ks_wit = is_ks_blocking(pset, k, s, flavor)
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
        return {
            "mode": self.mode,
            "zero_set_size": self.zero_set_size,
            "dimension": self.dimension,
            "dimension_ok": self.dimension_ok,
            "cutting_ok": self.cutting_ok,
            "exclusion_ok": self.exclusion_ok,
            "shift_ok": self.shift_ok,
            "support_spans_ok": self.support_spans_ok,
            "applies": self.applies,
            "witnesses": self.witnesses,
        }


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
        s = space.n - 1
    elif mode == "projective":
        if scalar_compatible(f) is None:
            raise NotScalarCompatible("projective mode needs scalar compatibility")
        pset = zero_set(f, "projective")
        flavor = "projective"
        want_dim = space.n - 1
        s = space.n - 2
    else:
        raise ValueError(f"unknown mode {mode!r}")
    dim = set_dimension(pset, flavor)
    cutting, cut_wit = is_cutting(pset, 1, flavor)
    lin_s = s + 1 if flavor == "projective" else s
    contained = _contained_subspace(pset, lin_s, flavor)
    exclusion_ok = contained is None
    shift_ok, shift_wit = shift_vanishes_on_support(f)
    spans_ok, span_wit = support_spans(f)
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
