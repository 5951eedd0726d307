"""Functions f: GF(q)^n -> GF(q), the raw material for code construction.

Structured families evaluate in vectorized blocks over point encodings;
arbitrary functions come in as dense tables. Scalar compatibility means
f(lam*x) = lam^d * f(x) for all nonzero lam and all nonzero x, the property
that makes the projective construction well defined.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from .bulk import ops_for
from .errors import EvenOrderWarning, NotScalarCompatible
from .field import Field
from .geometry import PointSet, Space, _format_rows, _read_header, _Rows, _space_zeros

_CHUNK = 1 << 20
_SCAN_LIMIT = 1 << 22


class FunctionSpec:
    """Base class: a function from GF(q)^n to GF(q)."""

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise ValueError(f"arity must be >= 1, got {n}")
        self.field = field
        self.n = n
        self._space = None
        self._table = None

    @property
    def space(self) -> Space:
        if self._space is None:
            self._space = Space(self.field, self.n)
        return self._space

    def evaluate(self, coords) -> int:
        raise NotImplementedError

    def evaluate_block(self, enc: np.ndarray) -> np.ndarray:
        space = self.space
        ops = ops_for(self.field)
        flat = np.asarray(enc, dtype=np.int64).ravel()
        return np.array(
            [self.evaluate(space.decode(int(e))) for e in flat], dtype=ops.dtype
        )

    def table(self) -> np.ndarray:
        """Values at every encoding 0..q^n-1, computed once."""
        if self._table is None:
            size = self.space.size
            ops = ops_for(self.field)
            out = np.empty(size, dtype=ops.dtype)
            for start in range(0, size, _CHUNK):
                stop = min(start + _CHUNK, size)
                out[start:stop] = self.evaluate_block(
                    np.arange(start, stop, dtype=np.int64)
                )
            self._table = out
        return self._table

    def scalar_degree(self) -> Optional[int]:
        """Least d with f(lam*x) = lam^d f(x) on nonzero points, else None."""
        return _scan_scalar_degree(self)

    def describe(self) -> str:
        return f"{type(self).__name__}(q={self.field.q}, n={self.n})"


class DenseTable(FunctionSpec):
    """A function given by its full value table, indexed by encoding."""

    def __init__(self, field: Field, n: int, values):
        super().__init__(field, n)
        ops = ops_for(field)
        vals = np.asarray(values, dtype=np.int64)
        if vals.shape != (self.space.size,):
            raise ValueError(
                f"table needs {self.space.size} values, got {vals.shape}"
            )
        if vals.size and (vals.min() < 0 or vals.max() >= field.q):
            raise ValueError("table value outside 0..q-1")
        self._table = vals.astype(ops.dtype)
        self._scalar_scanned = False
        self._scalar_deg = None

    def evaluate(self, coords) -> int:
        return int(self._table[self.space.encode(coords)])

    def evaluate_block(self, enc) -> np.ndarray:
        return self._table[np.asarray(enc, dtype=np.int64)]

    def scalar_degree(self) -> Optional[int]:
        if not self._scalar_scanned:
            self._scalar_deg = _scan_scalar_degree(self)
            self._scalar_scanned = True
        return self._scalar_deg


class MonomialBlocks(FunctionSpec):
    """Sum of k disjoint degree-r monomial blocks on n = r*k variables.

    f(x) = sum_j x_{jr+1} * ... * x_{jr+r} for j = 0..k-1.
    """

    def __init__(self, field: Field, r: int, k: int):
        if r < 2:
            raise ValueError(f"block degree must be >= 2, got {r}")
        if k < 1:
            raise ValueError(f"block count must be >= 1, got {k}")
        super().__init__(field, r * k)
        self.r = r
        self.k = k

    def evaluate(self, coords) -> int:
        f = self.field
        acc = 0
        for j in range(self.k):
            term = coords[j * self.r]
            for i in range(1, self.r):
                term = f.mul(term, coords[j * self.r + i])
            acc = f.add(acc, term)
        return acc

    def evaluate_block(self, enc) -> np.ndarray:
        ops = ops_for(self.field)
        q = self.field.q
        enc = np.asarray(enc, dtype=np.int64)
        out = np.zeros(enc.shape, dtype=ops.dtype)
        for j in range(self.k):
            base = j * self.r
            block = ((enc // q**base) % q).astype(ops.dtype)
            for i in range(1, self.r):
                digit = ((enc // q ** (base + i)) % q).astype(ops.dtype)
                block = ops.mul(block, digit)
            out = ops.add(out, block)
        return out

    def scalar_degree(self) -> Optional[int]:
        if self.field.q == 2:
            return 0
        return self.r % (self.field.q - 1)

    def describe(self) -> str:
        return f"MonomialBlocks(q={self.field.q}, r={self.r}, k={self.k})"


class WeightStaircase(FunctionSpec):
    """Value depends only on the Hamming weight of the point, for small weights.

    f(x) = alphas[w-1] when wt(x) = w <= k, else 0. Scalar-invariant by
    construction; its cutting behaviour is only guaranteed for odd q.
    """

    def __init__(self, field: Field, n: int, k: int, alphas):
        if n <= 3:
            raise ValueError(f"staircase needs n > 3, got {n}")
        if not 2 <= k <= n - 2:
            raise ValueError(f"staircase needs 2 <= k <= n-2, got k={k}")
        alphas = tuple(int(a) for a in alphas)
        if len(alphas) != k:
            raise ValueError(f"need {k} step values, got {len(alphas)}")
        if any(not 0 < a < field.q for a in alphas):
            raise ValueError("step values must be nonzero field elements")
        if field.q % 2 == 0:
            warnings.warn(
                "staircase cutting guarantee is only established for odd q",
                EvenOrderWarning,
                stacklevel=2,
            )
        super().__init__(field, n)
        self.k = k
        self.alphas = alphas

    def evaluate(self, coords) -> int:
        w = sum(1 for c in coords if c)
        if 1 <= w <= self.k:
            return self.alphas[w - 1]
        return 0

    def evaluate_block(self, enc) -> np.ndarray:
        ops = ops_for(self.field)
        q = self.field.q
        enc = np.asarray(enc, dtype=np.int64)
        wt = np.zeros(enc.shape, dtype=np.int16)
        for i in range(self.n):
            wt += ((enc // q**i) % q != 0)
        out = np.zeros(enc.shape, dtype=ops.dtype)
        for w in range(1, self.k + 1):
            out[wt == w] = self.alphas[w - 1]
        return out

    def scalar_degree(self) -> Optional[int]:
        return 0

    def describe(self) -> str:
        return (
            f"WeightStaircase(q={self.field.q}, n={self.n}, k={self.k}, "
            f"alphas={list(self.alphas)})"
        )


class PolynomialSpec(FunctionSpec):
    """A polynomial in n variables, kept as (coefficient, exponent tuple) terms.

    Exponents are reduced with x^q = x (so e -> ((e-1) mod (q-1)) + 1 for
    e > 0), duplicate monomials are merged, zero terms dropped. Evaluation
    uses the x^0 = 1 convention at every point including the origin.
    """

    def __init__(self, field: Field, n: int, monomials):
        super().__init__(field, n)
        q = field.q
        merged: dict = {}
        for coeff, exps in monomials:
            coeff = int(coeff)
            if not 0 <= coeff < q:
                raise ValueError(f"coefficient {coeff} outside 0..{q - 1}")
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise ValueError(f"monomial needs {n} exponents, got {len(exps)}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            red = tuple(e if e == 0 else ((e - 1) % (q - 1)) + 1 for e in exps)
            merged[red] = field.add(merged.get(red, 0), coeff)
        self.monomials = tuple(
            (c, e) for e, c in sorted(merged.items()) if c != 0
        )

    @property
    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for _, e in self.monomials}
        return len(degrees) <= 1

    def evaluate(self, coords) -> int:
        f = self.field
        acc = 0
        for coeff, exps in self.monomials:
            term = coeff
            for x, e in zip(coords, exps):
                if e:
                    term = f.mul(term, f.pow(x, e))
            acc = f.add(acc, term)
        return acc

    def evaluate_block(self, enc) -> np.ndarray:
        ops = ops_for(self.field)
        f = self.field
        q = f.q
        enc = np.asarray(enc, dtype=np.int64)
        out = np.zeros(enc.shape, dtype=ops.dtype)
        for coeff, exps in self.monomials:
            term = np.full(enc.shape, coeff, dtype=ops.dtype)
            for i, e in enumerate(exps):
                if e:
                    powtab = np.array(
                        [f.pow(a, e) for a in range(q)], dtype=ops.dtype
                    )
                    digit = ((enc // q**i) % q).astype(np.int64)
                    term = ops.mul(term, powtab[digit])
            out = ops.add(out, term)
        return out

    def describe(self) -> str:
        return (
            f"PolynomialSpec(q={self.field.q}, n={self.n}, "
            f"terms={len(self.monomials)})"
        )


class PolyZeroIndicator(FunctionSpec):
    """f(x) = 1 exactly on the zero set of a polynomial whose zeros form a cone."""

    def __init__(self, poly: PolynomialSpec):
        super().__init__(poly.field, poly.n)
        self.poly = poly
        if not poly.is_homogeneous:
            if self.space.size > _SCAN_LIMIT:
                raise NotScalarCompatible(
                    "inhomogeneous polynomial too large to verify cone zeros"
                )
            if _scan_scalar_degree(self) != 0:
                raise NotScalarCompatible(
                    "polynomial zero set is not closed under scaling"
                )

    def evaluate(self, coords) -> int:
        return 1 if self.poly.evaluate(coords) == 0 else 0

    def evaluate_block(self, enc) -> np.ndarray:
        ops = ops_for(self.field)
        return (self.poly.evaluate_block(enc) == 0).astype(ops.dtype)

    def scalar_degree(self) -> Optional[int]:
        return 0

    def describe(self) -> str:
        return f"PolyZeroIndicator(q={self.field.q}, n={self.n})"


def _scan_scalar_degree(f: FunctionSpec) -> Optional[int]:
    """Exhaustive check of f(lam*x) = lam^d f(x); least valid d, else None."""
    space = f.space
    q = space.q
    if q == 2:
        return 0
    if space.size > _SCAN_LIMIT:
        raise NotScalarCompatible(
            f"table of size {space.size} too large for the scalar scan"
        )
    field = f.field
    ops = ops_for(field)
    tab = f.table()
    cols = space.digit_columns()
    candidates = list(range(q - 1))
    for lam in range(2, q):
        scaled_enc = space.encode_block(ops.mul_scalar(lam, cols))
        lhs = tab[scaled_enc][1:].astype(np.int64)
        base = tab[1:]
        candidates = [
            d
            for d in candidates
            if np.array_equal(
                lhs, ops.mul_scalar(field.pow(lam, d), base).astype(np.int64)
            )
        ]
        if not candidates:
            return None
    return candidates[0]


def scalar_compatible(f: FunctionSpec) -> Optional[int]:
    """Least exponent d certifying f(lam*x) = lam^d f(x), or None."""
    return f.scalar_degree()


def zero_set(f: FunctionSpec, mode: str = "affine_star") -> PointSet:
    """Zero locus of f as a point set.

    affine_star: nonzero points only; affine: origin included; projective:
    canonical representatives (needs scalar compatibility).
    """
    space = f.space
    zero = f.table() == 0
    if mode == "affine":
        bits = zero.copy()
    elif mode == "affine_star":
        bits = zero.copy()
        bits[0] = False
    elif mode == "projective":
        if scalar_compatible(f) is None:
            raise NotScalarCompatible(
                "projective zero set needs a scalar-compatible function"
            )
        bits = zero & space.projective_mask()
    else:
        raise ValueError(f"unknown zero-set mode {mode!r}")
    return PointSet(space, bits)


def monomial_blocks_zero_count(q: int, r: int, k: int) -> int:
    """Closed-form size of the zero set of the monomial-blocks function.

    Counts all zeros including the origin. The block recursion in
    monomial_blocks_zero_count_recursive counts the same set by an
    independent route, which keeps either formula checkable against
    the other.
    """
    if r < 1 or k < 1 or q < 2:
        raise ValueError("need q >= 2, r >= 1, k >= 1")
    return (q - 1) * q ** (k - 1) * (q ** (r - 1) - (q - 1) ** (r - 1)) ** k + q ** (
        r * k - 1
    )


def monomial_blocks_zero_count_recursive(q: int, r: int, k: int) -> int:
    """Same count by the block recursion; independent of the closed form."""
    if r < 1 or k < 1 or q < 2:
        raise ValueError("need q >= 2, r >= 1, k >= 1")
    # a single block x_1*...*x_r vanishes iff some factor does
    z = q**r - (q - 1) ** r
    total = q**r
    for _ in range(1, k):
        # appending a block: previous zeros need a vanishing block; previous
        # nonzero sums s need the block to hit -s, and a nonzero target is
        # hit by exactly (q-1)^(r-1) blocks (free nonzero factors, last fixed)
        z = z * (q**r - (q - 1) ** r) + (total - z) * (q - 1) ** (r - 1)
        total *= q**r
    return z


def linear_form(f: FunctionSpec) -> Optional[tuple]:
    """v with f(x) = v . x on every nonzero point, or None."""
    space = f.space
    tab = f.table()
    v = tuple(int(tab[space.q**i]) for i in range(space.n))
    dv = space.dot_all(v)
    if np.array_equal(dv[1:].astype(np.int64), tab[1:].astype(np.int64)):
        return v
    return None


def is_linear(f: FunctionSpec) -> bool:
    """True when f agrees with a linear form on all nonzero points."""
    return linear_form(f) is not None


# function-table files: header "q n [modulus]", rows "x_1 ... x_n value",
# unlisted points default to 0, duplicate points rejected.
def parse_function_table(text: str) -> DenseTable:
    space, lines = _read_header(text, "function-table")
    n, q = space.n, space.q
    values = _space_zeros(space, np.int64)
    rows = _Rows(lines, n + 1, f"expected {n} coordinates and a value", "non-integer entry")
    rows.check_range(slice(n, None), q, lambda x: f"value {x} outside 0..{q - 1}")
    rows.check_range(slice(0, n), q, lambda x: f"coordinate {x} outside 0..{q - 1}")
    enc = space.encode_block(rows.values[:, :n])
    rows.check_repeats(enc, n)
    values[enc] = rows.done()[:, n]
    return DenseTable(space.field, n, values)


def load_function_table(path) -> DenseTable:
    return parse_function_table(Path(path).read_text())


def format_function_table(f: FunctionSpec) -> str:
    """Nonzero entries only, in encoding order; zeros are implicit."""
    space = f.space
    tab = f.table()
    enc = np.flatnonzero(tab)
    rows = np.column_stack([space.decode_block(enc), tab[enc].astype(np.int64)])
    return _format_rows(f"{space.q} {space.n}", space.field, rows)


def save_function_table(path, f: FunctionSpec):
    Path(path).write_text(format_function_table(f))


# polynomial files: header "q n [modulus]", rows "coeff e_1 ... e_n".
def parse_polynomial(text: str) -> PolynomialSpec:
    space, lines = _read_header(text, "polynomial")
    n, q = space.n, space.q
    rows = _Rows(lines, n + 1, f"expected a coefficient and {n} exponents", "non-integer entry")
    rows.check_range(slice(0, 1), q, lambda x: f"coefficient {x} outside 0..{q - 1}")
    rows.check((rows.values[:, 1:] < 0).any(axis=1), "negative exponent")
    # exponents may pass int64; PolynomialSpec reduces them as Python ints
    return PolynomialSpec(space.field, n, ((row[0], row[1:]) for row in rows.done().tolist()))


def load_polynomial(path) -> PolynomialSpec:
    return parse_polynomial(Path(path).read_text())
