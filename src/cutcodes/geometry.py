"""Points, subspaces, and point sets of GF(q)^n.

A point (x_1, ..., x_n) is encoded as the integer sum x_i * q^(i-1), so x_1
is the least significant digit and the nonzero points of the space are
exactly the encodings 1..q^n-1 in order. Subspaces are enumerated through
canonical reduced-row-echelon bases, one per subspace, ordered first by
pivot-column set (lexicographic) and then by the free entries.
Space.subspace_blocks walks that order in numpy blocks, giving for each
subspace either its points or the vectors of its annihilator, and
Space.subspace_basis rebuilds the basis at any position, so a witness read
from a block is the same subspace the canonical scan would have reported.
An annihilator enumeration of at most _COUNT_CHUNK entries (for instance
the hyperplanes' q-element lines span(h) in a small space) is built once
per Space and re-sliced for every caller, so blocking, cutting, the
exclusion and the hyperplane normals share one build; the points side,
whose scans often stop at their first block, is built afresh each time.

Hyperplane counts come from one exact transform instead of a scan per
hyperplane: Space.shift_counts gives #{x in a set : values[x] + v.x = 0}
for every v at once, so a point set's column c[v] = |S n H_v| (cached on
the PointSet) answers every hyperplane question. Space.hyperplane_normals
lists one normal per hyperplane in the canonical subspaces(n-1) order.
The transform costs about n * q^2 steps per count and holds size * q
entries, so it pays for many counts over a small field; over a large one
with few hyperplanes (q^2 above their number, or size * q above
_COUNT_CAP) Space.hyperplane_counts sums the set over each hyperplane's
points instead.

Space.translate adds encodings digitwise (XOR in characteristic 2). Its two
callers add one row of encodings to a block of columns: the cutting scan
(blocking._first_uncut_subspace) adds each annihilator vector to a pivot
pattern's g, and the weight-sum scan (codes.is_minimal_weightsum) adds the
-a*m_i of a block of classes to every class message m_j.

The four input file formats (point sets here, function tables and
polynomials in functions, generator matrices in codes) share one row
reader, _Rows, which holds the error policy, and one writer, _format_rows.
A "q n" header whose q^n encodings numpy cannot allocate is refused with
BudgetExceeded.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .bulk import echelon, ops_for
from .errors import BudgetExceeded, DimensionOutOfRange, ParseError, ZeroNormal
from .field import Field, field_from_order

_DIGIT_CACHE_LIMIT = 1 << 22
_COUNT_CHUNK = 1 << 18  # elements per temporary array of the count transform
_COUNT_CAP = 1 << 22  # histogram entries (size * q) the count transform may hold
_VECTOR_TOKENS = 160  # point-file tokens below which int() parses faster than numpy


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of GF(q)^n, exact integer."""
    if d < 0 or d > n:
        return 0
    num = 1
    den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


class RowReducer:
    """Incremental Gaussian elimination over a field; tracks a reduced basis.

    One vector at a time in Python: the tests' literal oracles use it, while
    the package's own ranks come from bulk.echelon.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows = []  # (pivot index, coeff tuple) with unit pivot

    def reduce(self, vec) -> list:
        f = self.field
        v = list(vec)
        for pivot, row in self.rows:
            c = v[pivot]
            if c:
                for j in range(pivot, len(v)):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def absorb(self, vec) -> bool:
        """Add vec to the span; True if it was independent."""
        f = self.field
        v = self.reduce(vec)
        for pivot, c in enumerate(v):
            if c:
                inv = f.inv(c)
                row = tuple(f.mul(inv, x) for x in v)
                self.rows.append((pivot, row))
                self.rows.sort(key=lambda r: r[0])
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


class Space:
    """The ambient space GF(q)^n with the digit point-encoding."""

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {n}")
        self.field = field
        self.n = n
        self.q = field.q
        self.size = field.q**n
        self._digit_cols = None
        self._proj_encodings = None
        self._proj_mask = None
        self._annihilator_blocks = {}  # d -> subspace_blocks(d, "annihilator"), when small
        self._sum_tables = {}  # width -> _sum_table(width), for translate

    # point encoding -------------------------------------------------------
    @functools.cached_property
    def places(self) -> np.ndarray:
        """q^i, the weight of coordinate x_(i+1) in an encoding."""
        return self.q ** np.arange(self.n, dtype=np.int64)

    def encode(self, coords) -> int:
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        e = 0
        for x in reversed(coords):
            if not 0 <= x < self.q:
                raise ValueError(f"coordinate {x} outside 0..{self.q - 1}")
            e = e * self.q + x
        return e

    def decode(self, e: int) -> tuple:
        if not 0 <= e < self.size:
            raise ValueError(f"encoding {e} outside 0..{self.size - 1}")
        out = []
        for _ in range(self.n):
            out.append(e % self.q)
            e //= self.q
        return tuple(out)

    def digit_columns(self) -> np.ndarray:
        """size x n array; column i holds coordinate x_(i+1) of every point."""
        if self._digit_cols is not None:
            return self._digit_cols
        ops = ops_for(self.field)
        enc = np.arange(self.size, dtype=np.int64)
        cols = np.empty((self.size, self.n), dtype=ops.dtype)
        for i in range(self.n):
            cols[:, i] = (enc // self.q**i) % self.q
        if self.size <= _DIGIT_CACHE_LIMIT:
            self._digit_cols = cols
        return cols

    def encode_block(self, digits: np.ndarray) -> np.ndarray:
        return digits.astype(np.int64) @ self.places

    # enumeration ----------------------------------------------------------
    def num_affine_points(self) -> int:
        return self.size - 1

    def num_projective_points(self) -> int:
        return (self.size - 1) // (self.q - 1)

    def affine_point_encodings(self) -> np.ndarray:
        """All nonzero points, in encoding order."""
        return np.arange(1, self.size, dtype=np.int64)

    def canonical_representative(self, coords) -> tuple:
        f = self.field
        for x in coords:
            if x:
                inv = f.inv(x)
                return tuple(f.mul(inv, c) for c in coords)
        raise ZeroNormal("the origin has no projective representative")

    def leading_digits(self, enc) -> np.ndarray:
        """First nonzero coordinate of each encoding; 0 for the origin."""
        enc = np.asarray(enc, dtype=np.int64)
        first = np.zeros(enc.shape, dtype=np.int64)
        for i in range(self.n):
            first = np.where(first == 0, (enc // self.q**i) % self.q, first)
        return first

    def projective_mask(self) -> np.ndarray:
        """Boolean over encodings: canonical representatives (first nonzero digit 1)."""
        if self._proj_mask is not None:
            return self._proj_mask
        mask = self.leading_digits(np.arange(self.size)) == 1
        if self.size <= _DIGIT_CACHE_LIMIT:
            self._proj_mask = mask
        return mask

    def projective_point_encodings(self) -> np.ndarray:
        if self._proj_encodings is None:
            enc = np.nonzero(self.projective_mask())[0]
            assert enc.size == self.num_projective_points()
            self._proj_encodings = enc
        return self._proj_encodings

    def projective_points(self):
        for e in self.projective_point_encodings():
            yield self.decode(int(e))

    # bilinear form --------------------------------------------------------
    def dot(self, u, v) -> int:
        f = self.field
        acc = 0
        for a, b in zip(u, v):
            acc = f.add(acc, f.mul(a, b))
        return acc

    def dot_all(self, v) -> np.ndarray:
        """v . x for every encoding x, vectorized."""
        ops = ops_for(self.field)
        cols = self.digit_columns()
        acc = np.zeros(self.size, dtype=ops.dtype)
        for i, vi in enumerate(v):
            if vi:
                acc = ops.add(acc, ops.mul_scalar(int(vi), cols[:, i]))
        return acc

    def hyperplane(self, v, punctured: bool = True) -> "PointSet":
        """{x : v . x = 0}, origin removed unless punctured=False."""
        if not any(v):
            raise ZeroNormal("hyperplane normal must be nonzero")
        bits = self.dot_all(v) == 0
        if punctured:
            bits = bits.copy()
            bits[0] = False
        return PointSet(self, bits)

    def decode_block(self, enc) -> np.ndarray:
        """Coordinates of an array of encodings, along a new last axis."""
        enc = np.asarray(enc, dtype=np.int64)
        return (enc[..., None] // self.places) % self.q

    def translate(self, w):
        """The map u -> encodings of u + w, for arrays u that broadcast with w.

        In characteristic 2 the field adds by XOR and q = 2^m gives every
        coordinate its own bits, so the encodings XOR whole. Otherwise the
        coordinates add in groups of n // 2 digits (two groups for even n,
        three for odd n, the last of one digit), each through one digitwise
        sum table of q^(2 * width) <= q^n entries (_sum_table, built once
        per Space); for n = 1 the encodings are the field elements. For
        a row w of shape (1, B) and columns u of shape (..., 1), the tables'
        columns at w's digits are taken once, so each u costs one row take
        per group. Both callers use that shape: the cutting scan
        (blocking._first_uncut_subspace) with u of shape (rows, 1), the
        weight-sum scan (codes.is_minimal_weightsum) with u of shape
        (q-1, rows, 1).
        """
        w = np.asarray(w, dtype=np.int64)
        if self.field.p == 2:
            return lambda u: np.asarray(u, dtype=np.int64) ^ w
        if self.n == 1:
            ops = ops_for(self.field)
            return lambda u: ops.add(ops.asarray(u), ops.asarray(w)).astype(np.int64)
        # (table, place of the group's lowest digit, q^width, w's group index)
        groups = [
            (self._sum_table(width), self.q**lo, self.q**width, (w // self.q**lo) % self.q**width)
            for lo, width in self._digit_groups()
        ]

        def add_any(u):
            u = np.asarray(u, dtype=np.int64)
            out = 0
            for table, place, size, wg in groups:
                out = out + table[(u // place) % size, wg] * place
            return out

        if w.ndim != 2 or w.shape[0] != 1:
            return add_any
        cols = [table[:, wg[0]] * place for table, place, _, wg in groups]

        def add(u):
            u = np.asarray(u, dtype=np.int64)
            if u.ndim < 2 or u.shape[-1] != 1:
                return add_any(u)
            u = u[..., 0]
            out = cols[0][u % groups[0][2]]
            for col, (_, place, size, _) in zip(cols[1:], groups[1:]):
                out += col[(u // place) % size]
            return out

        return add

    def _digit_groups(self) -> list:
        """(lowest digit, width) of the digit groups translate adds together."""
        h = self.n // 2
        return [(0, h), (h, h)] + ([(2 * h, 1)] if self.n % 2 else [])

    def _sum_table(self, width: int) -> np.ndarray:
        """T[x, y] = index of the digitwise field sum of the width-digit
        vectors with indices x and y, over all q^width vectors each.

        Built digit by digit from the one-digit addition table.
        """
        table = self._sum_tables.get(width)
        if table is None:
            q = self.q
            ops = ops_for(self.field)
            elems = np.arange(q, dtype=ops.dtype)
            one = ops.add(elems[:, None], elems[None, :]).astype(np.int64)
            table = np.zeros((1, 1), dtype=np.int64)
            for _ in range(width):
                # x = x0 + q * x' splits the row index into (x', x0), likewise y
                size = table.shape[0] * q
                table = (one[None, :, None, :] + q * table[:, None, :, None]).reshape(size, size)
            if self.size <= _DIGIT_CACHE_LIMIT:
                self._sum_tables[width] = table
        return table

    def counts_by_transform(self, needed: int) -> bool:
        """Should shift_counts serve `needed` counts, rather than one scan each?

        The transform holds size * q histogram entries and spends about
        n * q^2 steps per encoding v, n * q^(n+2) in all; a scan spends
        about n * q^(n-1) steps on each hyperplane count (its points) and
        n * size on each shift count. The transform is used when
        q^2 < needed and its histogram fits _COUNT_CAP:
        many counts over a small field (n >= 3), not the q + 1 lines of a
        plane, nor the shift condition's q^2 - 1 vectors of a plane, which
        its scan may leave at the first failure.
        """
        return self.size * self.q <= _COUNT_CAP and self.q * self.q < needed

    def shift_counts(self, mask: np.ndarray, values: Optional[np.ndarray] = None):
        """c[v] = #{x in mask : values[x] + v.x = 0} for every encoding v.

        values defaults to 0, which makes c[v] = |mask n H_v| (c[0] = |mask|).
        An exact transform over the group ring Z[(GF(q), +)]: every point x
        starts as the unit histogram at t = values[x], and pass i trades the
        coordinate x_i for v_i, shifting the histogram by v_i * x_i:
        B[v_i][t] += A[x_i][t - v_i * x_i], gathered through the field's
        arithmetic. Integers only, n passes, O(n * q^(n+2)) work, the last
        pass keeping only t = 0. The histogram has size * q entries, refused
        above _COUNT_CAP (see counts_by_transform); the gathers run in
        blocks of _COUNT_CHUNK.
        """
        q, n, size = self.q, self.n, self.size
        if size * q > _COUNT_CAP:
            raise BudgetExceeded(
                f"the count transform needs {size * q} histogram entries, cap {_COUNT_CAP}"
            )
        ops = ops_for(self.field)
        el = np.arange(q, dtype=np.int64)
        pts = np.nonzero(mask)[0]
        hist = np.zeros((size, q), dtype=np.int32)  # counts <= size < 2^31
        hist[pts, 0 if values is None else values[pts]] = 1
        for i in range(n):
            tw = 1 if i == n - 1 else q  # the last pass needs only t = 0
            high, low = q ** (n - 1 - i), q**i
            src = hist.reshape(high, q, low, q)
            out = np.empty((high, q, low, tw), dtype=np.int32)
            # back[x][v, t] = t - v*x: where the histogram entry shifted to t came from
            back = [ops.sub(el[None, :tw], ops.mul_scalar(x, el)[:, None]) for x in range(q)]
            rows = max(1, _COUNT_CHUNK // (low * q * q))
            for lo in range(0, high, rows):
                blk = src[lo : lo + rows]
                acc = np.zeros((blk.shape[0], low, q, tw), dtype=np.int32)
                for x in range(q):
                    acc += blk[:, x][:, :, back[x]]
                out[lo : lo + rows] = acc.transpose(0, 2, 1, 3)
            hist = out.reshape(size, tw)
        return hist[:, 0].astype(np.int64)

    def hyperplane_counts(self, mask: np.ndarray) -> np.ndarray:
        """c[v] = |mask n H_v| for every encoding v (c[0] = |mask|).

        From shift_counts when counts_by_transform says it pays for the
        hyperplanes, otherwise from scan_hyperplane_counts.
        """
        if self.counts_by_transform(self.subspace_count(self.n - 1)):
            return self.shift_counts(mask)
        return self.scan_hyperplane_counts(mask)

    def scan_hyperplane_counts(self, mask: np.ndarray) -> np.ndarray:
        """hyperplane_counts from the points of each hyperplane, in O(size) memory.

        subspace_blocks gives every hyperplane's q^(n-1) points; each count
        is copied to every nonzero multiple of the hyperplane's normal, for
        blocks of scalars at a time.
        """
        ops = ops_for(self.field)
        blocks = self.subspace_blocks(self.n - 1, "points")
        col = np.concatenate([np.count_nonzero(mask[enc], axis=1) for _, _, enc in blocks])
        normals = self.hyperplane_normals()
        digits = ops.asarray(self.decode_block(normals))
        c = np.empty(self.size, dtype=np.int64)
        c[0] = np.count_nonzero(mask)
        rows = max(1, _COUNT_CHUNK // normals.size)
        for lo in range(1, self.q, rows):
            lam = ops.asarray(np.arange(lo, min(lo + rows, self.q)))
            c[self.encode_block(ops.mul(lam[:, None, None], digits[None]))] = col
        return c

    def hyperplane_normals(self) -> np.ndarray:
        """One normal encoding per hyperplane, in the canonical subspaces(n-1) order.

        The annihilator row of subspace_blocks(n - 1): the hyperplane whose
        canonical basis leaves column j free and holds a_i in column j of the
        row with pivot i < j has the normal (-a_0, ..., -a_(j-1), 1, 0, ..., 0).
        """
        blocks = self.subspace_blocks(self.n - 1, "annihilator")
        return np.concatenate([enc[:, 1] for _, _, enc in blocks])

    def hyperplane_basis(self, index: int) -> "SubspaceBasis":
        """The hyperplane at position index of subspaces(n-1)."""
        return self.subspace_basis(self.n - 1, index)

    # subspaces ------------------------------------------------------------
    def subspace_count(self, d: int) -> int:
        if d < 0 or d > self.n:
            raise DimensionOutOfRange(f"dimension {d} outside 0..{self.n}")
        return gaussian_binomial(self.n, d, self.q)

    def _pivot_patterns(self, d: int):
        """(pivot columns, free entries (row, column)) of the canonical bases, in order."""
        if d < 0 or d > self.n:
            raise DimensionOutOfRange(f"dimension {d} outside 0..{self.n}")
        n = self.n
        for pivots in itertools.combinations(range(n), d):
            free = [
                (i, c) for i in range(d) for c in range(pivots[i] + 1, n) if c not in pivots
            ]
            yield pivots, free

    def _basis(self, pivots, free, assignment) -> "SubspaceBasis":
        rows = [[0] * self.n for _ in pivots]
        for i, p in enumerate(pivots):
            rows[i][p] = 1
        for (i, c), val in zip(free, assignment):
            rows[i][c] = val
        return SubspaceBasis(self, tuple(tuple(r) for r in rows), pivots)

    def subspaces(self, d: int):
        """All d-dimensional subspaces as canonical RREF bases, fixed order."""
        for pivots, free in self._pivot_patterns(d):
            for assignment in itertools.product(range(self.q), repeat=len(free)):
                yield self._basis(pivots, free, assignment)

    def subspace_basis(self, d: int, index: int) -> "SubspaceBasis":
        """The subspace at position index of subspaces(d)."""
        q = self.q
        for pivots, free in self._pivot_patterns(d):
            total = q ** len(free)
            if index < total:
                m = len(free)
                return self._basis(pivots, free, [(index // q ** (m - 1 - j)) % q for j in range(m)])
            index -= total
        raise IndexError(f"there are only {self.subspace_count(d)} subspaces of dimension {d}")

    def subspace_blocks(self, d: int, side: str = "points", per: Optional[int] = None):
        """The d-dimensional subspaces K in blocks, in the subspaces(d) order.

        Yields (start, pivots, enc): row b of enc belongs to the subspace at
        position start + b, whose canonical basis has pivot columns pivots,
        and lists the encodings of every GF(q)-combination of r vectors,
        enc[b, l] = sum_i l_i * row_i where l encodes (l_0, ..., l_(r-1)) in
        GF(q)^r:
        - side "points": K's basis rows (r = d), so enc lists the q^d points
          of K;
        - side "annihilator": for each non-pivot column f the row
          w_f = e_f - sum_i rows[i][f] * e_(p_i) (r = n - d), orthogonal to
          every basis row, so enc lists the q^(n-d) vectors of ann K.
        A block stays inside one pivot pattern and holds at most
        _COUNT_CHUNK // per subspaces (per defaults to q^r), at least one.
        An annihilator enumeration of at most _COUNT_CHUNK entries is built
        once per Space, read-only, and re-sliced for every per; the points
        side is built afresh on each call, so a scan that stops early builds
        only the blocks it reads.
        """
        if side not in ("points", "annihilator"):
            raise ValueError(f"unknown side {side!r}")
        if side == "points" or self.subspace_count(d) * self.q ** (self.n - d) > _COUNT_CHUNK:
            yield from self._build_blocks(d, side, per)
            return
        if d not in self._annihilator_blocks:
            blocks = list(self._build_blocks(d, side))  # one block per pivot pattern
            for _, _, enc in blocks:
                enc.flags.writeable = False
            self._annihilator_blocks[d] = blocks
        rows = max(1, _COUNT_CHUNK // (per or self.q ** (self.n - d)))
        for start, pivots, enc in self._annihilator_blocks[d]:
            for lo in range(0, enc.shape[0], rows):
                yield start + lo, pivots, enc[lo : lo + rows]

    def _build_blocks(self, d: int, side: str, per: Optional[int] = None):
        """subspace_blocks, built from the canonical bases' free entries."""
        q, n = self.q, self.n
        ops = ops_for(self.field)
        weight = q ** np.arange(n, dtype=np.int64)
        start = 0
        for pivots, free in self._pivot_patterns(d):
            others = [c for c in range(n) if c not in pivots]
            # row i has a unit in column units[i]; column coords[c] of the
            # combination l is the sum of l_i * entry_j over terms[c]
            if side == "points":
                units, coords = list(pivots), others
                terms = [[(i, j) for j, (i, c) in enumerate(free) if c == col] for col in coords]
            else:
                units, coords = others, list(pivots)
                terms = [[(others.index(c), j) for j, (i, c) in enumerate(free) if i == row] for row in range(d)]
            r, m = len(units), len(free)
            combo = ops.asarray((np.arange(q**r)[:, None] // q ** np.arange(r)) % q)
            base = combo.astype(np.int64) @ weight[units]
            digit = q ** np.arange(m - 1, -1, -1, dtype=np.int64)  # first free entry most significant
            rows = max(1, _COUNT_CHUNK // (per or q**r))
            total = q**m
            for lo in range(0, total, rows):
                t = np.arange(lo, min(lo + rows, total), dtype=np.int64)
                enc = np.repeat(base[None, :], t.size, axis=0)
                for col, pairs in zip(coords, terms):
                    val = None
                    for i, j in pairs:
                        entry = ops.asarray((t // digit[j]) % q)
                        if side == "annihilator":
                            entry = ops.neg(entry)
                        term = ops.mul(combo[None, :, i], entry[:, None])
                        val = term if val is None else ops.add(val, term)
                    if val is not None:
                        enc += val.astype(np.int64) * weight[col]
                yield start + lo, pivots, enc
            start += total

    def span_basis(self, enc) -> np.ndarray:
        """An echelon basis (one row of n coordinates each) of the span of the
        points with encodings enc.

        bulk.echelon reduces the n x len(enc) matrix of coordinates, one row
        per coordinate. For each pivot, the reduced point there, scaled to 1
        in the pivot's coordinate j, is a basis row: zero before j and the
        elimination's factors after it.
        """
        cols = (np.asarray(enc, dtype=np.int64)[None, :] // self.places[:, None]) % self.q
        steps = echelon(ops_for(self.field), cols)
        basis = np.zeros((len(steps), self.n), dtype=np.int64)
        for row, (j, factors) in zip(basis, steps):
            row[j] = 1
            row[j + 1 :] = factors
        return basis

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.field == other.field
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.field, self.n))

    def __repr__(self):
        return f"Space(GF({self.q})^{self.n})"


class SubspaceBasis:
    """A subspace given by its canonical RREF basis rows."""

    __slots__ = ("space", "rows", "pivots")

    def __init__(self, space: Space, rows: tuple, pivots: tuple):
        self.space = space
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def point_encodings(self) -> np.ndarray:
        """Encodings of all q^dim points of the subspace, sorted."""
        space = self.space
        ops = ops_for(space.field)
        pts = np.zeros((1, space.n), dtype=ops.dtype)
        for row in self.rows:
            row_arr = ops.asarray(row)
            layers = [
                ops.add(pts, ops.mul_scalar(lam, row_arr)[None, :])
                for lam in range(space.q)
            ]
            pts = np.concatenate(layers, axis=0)
        enc = space.encode_block(pts)
        enc.sort()
        return enc

    def point_set(self, punctured: bool = False) -> "PointSet":
        bits = np.zeros(self.space.size, dtype=bool)
        bits[self.point_encodings()] = True
        if punctured:
            bits[0] = False
        return PointSet(self.space, bits)

    def normal(self) -> tuple:
        """Canonical normal vector; only defined for hyperplanes."""
        space = self.space
        if self.dim != space.n - 1:
            raise DimensionOutOfRange("normal vector is only defined for hyperplanes")
        f = space.field
        free_cols = [c for c in range(space.n) if c not in set(self.pivots)]
        j0 = free_cols[0]
        v = [0] * space.n
        v[j0] = 1
        for i, p in enumerate(self.pivots):
            v[p] = f.neg(self.rows[i][j0])
        for x in v:
            if x:
                inv = f.inv(x)
                return tuple(f.mul(inv, c) for c in v)
        raise AssertionError("hyperplane normal cannot vanish")

    def as_lists(self) -> list:
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return isinstance(other, SubspaceBasis) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, rows={self.as_lists()})"


class PointSet:
    """A subset of GF(q)^n as a boolean bitmap indexed by point encoding."""

    __slots__ = ("space", "bits", "_count", "_hyperplane_counts")

    def __init__(self, space: Space, bits: np.ndarray):
        if bits.shape != (space.size,) or bits.dtype != np.bool_:
            raise ValueError("bits must be a boolean array over all encodings")
        self.space = space
        self.bits = bits
        self._count = None
        self._hyperplane_counts = None

    @classmethod
    def from_encodings(cls, space: Space, encodings) -> "PointSet":
        bits = np.zeros(space.size, dtype=bool)
        if not isinstance(encodings, np.ndarray):
            encodings = list(encodings)
        enc = np.asarray(encodings, dtype=np.int64)
        if enc.size:
            if enc.min() < 0 or enc.max() >= space.size:
                raise ValueError("encoding outside the space")
            bits[enc] = True
        return cls(space, bits)

    @classmethod
    def from_points(cls, space: Space, points) -> "PointSet":
        return cls.from_encodings(space, [space.encode(p) for p in points])

    def __len__(self) -> int:
        if self._count is None:
            self._count = int(self.bits.sum())
        return self._count

    def hyperplane_counts(self) -> np.ndarray:
        """c[v] = |S n H_v| for every encoding v (c[0] = |S|), computed once."""
        if self._hyperplane_counts is None:
            self._hyperplane_counts = self.space.hyperplane_counts(self.bits)
        return self._hyperplane_counts

    def __contains__(self, e: int) -> bool:
        return bool(self.bits[e])

    def contains_point(self, coords) -> bool:
        return bool(self.bits[self.space.encode(coords)])

    def encodings(self) -> np.ndarray:
        return np.nonzero(self.bits)[0]

    def points(self):
        for e in self.encodings():
            yield self.space.decode(int(e))

    def has_origin(self) -> bool:
        return bool(self.bits[0])

    def without_origin(self) -> "PointSet":
        if not self.bits[0]:
            return self
        bits = self.bits.copy()
        bits[0] = False
        return PointSet(self.space, bits)

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.space == other.space
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __repr__(self):
        return f"PointSet({len(self)} points in GF({self.space.q})^{self.space.n})"


# input files: a header line, then one row of integers per data line. '#'
# starts a comment; blank lines are skipped but still count toward line
# numbers.
def _data_lines(text: str) -> list:
    """(line number, text) of every line left after comments and blanks."""
    return [
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    ]


def _read_header(text: str, what: str):
    """The Space of a "q n [modulus]" file and its data lines after the header."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError(f"empty {what} file")
    lineno, line = lines[0]
    parts = line.split()
    if len(parts) < 2:
        raise ParseError(f"line {lineno}: header needs at least 'q n'")
    try:
        vals = [int(x) for x in parts]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: non-integer in header") from exc
    q, n = vals[0], vals[1]
    modulus = tuple(vals[2:]) or None
    if n < 1:
        raise ParseError(f"line {lineno}: n must be >= 1")
    try:
        field = field_from_order(q, modulus)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    return Space(field, n), lines[1:]


def _space_zeros(space: Space, dtype) -> np.ndarray:
    """A zero array over the q^n encodings, refused when numpy cannot allocate it."""
    try:
        return np.zeros(space.size, dtype=dtype)
    except (ValueError, MemoryError) as exc:
        raise BudgetExceeded(
            f"GF({space.q})^{space.n} has q^n = {space.size} points, "
            f"too many for one array ({exc})"
        ) from exc


def _int_tokens(tokens: list):
    """int() of each token up to the first that is not an integer.

    Returns the values, as int64 or, past that range, as Python ints in an
    object array, and how many tokens parsed. At least _VECTOR_TOKENS tokens
    of at most five ASCII digits, enough for any element code below 2^16,
    are read in one numpy pass; fewer tokens, or any other token, go
    through int() one at a time.
    """
    text = " ".join(tokens)
    if len(tokens) >= _VECTOR_TOKENS and text.isascii():
        chars = np.frombuffer(text.encode(), dtype=np.uint8)
        ends = np.append(np.flatnonzero(chars == ord(" ")), chars.size)
        starts = np.append(0, ends[:-1] + 1)
        width = int((ends - starts).max())
        if width <= 5:
            # the last `width` characters of every token, left-padded with zeros
            pos = ends[:, None] - width + np.arange(width)
            digits = chars[np.maximum(pos, 0)].astype(np.int64) - ord("0")
            digits[pos < starts[:, None]] = 0
            if ((digits >= 0) & (digits <= 9)).all():
                return digits @ 10 ** np.arange(width - 1, -1, -1), len(tokens)
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            break
    return np.array(values, dtype=object), len(values)


class _Rows:
    """A file body read as integer rows of a fixed width, one per data line,
    all tokens converted in one pass.

    The first bad line wins, and on one line the checks run in the order
    they are made: the token count and the integer check here, then the
    parser's own range and repeat checks. Each check reads only the rows
    before the earliest failure found so far, which it may move up; done()
    raises that failure as a ParseError naming the file line, comments and
    blank lines counted.
    """

    def __init__(self, lines: list, width: int, wrong_count: str, non_integer: str):
        self.linenos = [lineno for lineno, _ in lines]
        parts = [line.split() for _, line in lines]
        counts = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
        values, parsed = _int_tokens(list(itertools.chain.from_iterable(parts)))
        self.count = len(lines)
        self.error = None
        wrong = np.flatnonzero(counts != width)
        if wrong.size:
            self.fail(int(wrong[0]), wrong_count)
        if parsed < self.count * width:
            self.fail(parsed // width, non_integer)
        # a matrix header may declare a length below 1; then no row is read
        self._values = values[: self.count * width].reshape(self.count, max(width, 0))

    @property
    def values(self) -> np.ndarray:
        """The rows before the first failure so far (int64, or Python ints)."""
        return self._values[: self.count]

    def fail(self, k: int, message: str):
        self.count, self.error = k, f"line {self.linenos[k]}: {message}"

    def check(self, bad: np.ndarray, message: str):
        """Fail at the first row where bad, one flag per row of values, holds."""
        hit = np.flatnonzero(bad)
        if hit.size:
            self.fail(int(hit[0]), message)

    def check_range(self, cols: slice, q: int, message):
        """Fail at the first row with an entry in cols outside 0..q-1; like
        Space.encode, message(x) names the row's last such entry x."""
        v = self.values[:, cols]
        hit = np.flatnonzero(((v < 0) | (v >= q)).any(axis=1))
        if hit.size:
            k = int(hit[0])
            self.fail(k, message(next(x for x in reversed(v[k].tolist()) if not 0 <= x < q)))

    def check_repeats(self, keys: np.ndarray, n: int):
        """Fail at the first row whose key, one per row of values, repeats an
        earlier row's, naming the row's point, its first n entries."""
        # a stable sort puts each repeat after the row it repeats
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if repeats.size:
            k = int(repeats.min())
            self.fail(k, f"duplicate point {tuple(self._values[k, :n].tolist())}")

    def done(self) -> np.ndarray:
        """Every row, or the first failure raised as a ParseError."""
        if self.error is not None:
            raise ParseError(self.error)
        return self._values


def _format_rows(head: str, field: Field, rows: np.ndarray) -> str:
    """A file: the header, with the modulus appended for an extension field,
    then one line per row."""
    if field.m > 1:
        head += " " + " ".join(map(str, field.modulus))
    return "\n".join([head] + [" ".join(map(str, row)) for row in rows.tolist()]) + "\n"


# point-set files: header "q n [modulus]", then one point per line as n
# coordinates; repeated points are rejected.
def parse_point_set(text: str):
    space, lines = _read_header(text, "point-set")
    n, q = space.n, space.q
    bits = _space_zeros(space, bool)
    rows = _Rows(lines, n, f"expected {n} coordinates", "non-integer coordinate")
    rows.check_range(slice(None), q, lambda x: f"coordinate {x} outside 0..{q - 1}")
    enc = space.encode_block(rows.values)
    rows.check_repeats(enc, n)
    rows.done()
    bits[enc] = True
    return space, PointSet(space, bits)


def load_point_set(path):
    return parse_point_set(Path(path).read_text())


def format_point_set(pset: PointSet) -> str:
    space = pset.space
    return _format_rows(f"{space.q} {space.n}", space.field, space.decode_block(pset.encodings()))


def save_point_set(path, pset: PointSet):
    Path(path).write_text(format_point_set(pset))
