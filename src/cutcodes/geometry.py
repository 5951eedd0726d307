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
The blocks are built column by column: a column's digits over a block are
one small table of field sums, and the encodings one integer add per
column, so no field op runs over a whole block. An enumeration of at most
_COUNT_CHUNK entries, on either side, depends only on (field, n, d, side),
so it is built once per process (_subspace_table) and read by every caller
of every request; a larger one is built on each call, block by block.

A PointSet is a bitmap over the q^n encodings that keeps its sorted
encodings beside it: a set read from a file, given by encodings or built
from a subspace carries them from the start, and one built from a bitmap
(zero sets, hyperplanes) finds them once, on first use. Its size, points
and validation then cost O(|S|), not a scan of the bitmap. Encodings are
int64, so Space.places, through which every encoding array is formed,
refuses with BudgetExceeded a space whose q^n - 1 passes 2^63 - 1; Python
int encodings (Space.encode and decode) and sizes stay exact at any q^n.

Hyperplane counts come from one exact transform instead of a scan per
hyperplane: Space.shift_counts gives #{x in a set : values[x] + v.x = 0}
for every v at once, so a point set's column c[v] = |S n H_v| (cached on
the PointSet) answers every hyperplane question. Space.hyperplane_normals
lists one normal per hyperplane in the canonical subspaces(n-1) order.
The transform is n BLAS products of a float32 histogram of size * q counts
with one q^2 x q^2 0/1 matrix per field (_shift_matrix), about n * q^3
multiply-adds per count, so it pays for many counts over a small field;
over a large one with few hyperplanes (q^2 above their number, or size * q
above _COUNT_CAP) Space.hyperplane_counts sums the set over each hyperplane's
points instead, refused with BudgetExceeded when those points number more
than _GENERIC_POINT_CAP, the cap blocking's subspace scans share.

Space.translate adds encodings digitwise (XOR in characteristic 2), one row
of encodings to a block of columns, the one shape its two callers use: the
cutting scan (blocking._first_uncut_subspace) adds each annihilator vector
to a pivot pattern's g, and the weight-sum scan (codes.is_minimal_weightsum)
adds the -a*m_i of a block of classes to every class message m_j.

The four input file formats (point sets here, function tables and
polynomials in functions, generator matrices in codes) share one reader
and one writer, _format_rows. The reader finds the lines, comments and
tokens of the whole file in one numpy pass over its code points (_Lines),
with line breaks and spaces exactly those of str.splitlines and
str.split, and reads tokens of ASCII digits in one more; any other token
goes through int(). _Rows holds the error policy. A file that is not
UTF-8 is a ParseError (_read_text), and a "q n" header whose q^n
encodings numpy cannot allocate is refused with BudgetExceeded.
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
_COUNT_CHUNK = 1 << 18  # elements per temporary array of the subspace blocks and scans
_COUNT_CAP = 1 << 22  # histogram entries (size * q) the count transform may hold
assert _COUNT_CAP // 2 < 1 << 24  # its float32 counts, at most size <= cap / q, stay exact
_GENERIC_POINT_CAP = 1 << 24  # subspace points a scan of one dimension may visit


@functools.lru_cache(maxsize=None)
def _shift_matrix(field: Field) -> np.ndarray:
    """S[(x, t), (v, t')] = 1 iff t' = t + v * x: one pass of Space.shift_counts."""
    ops = ops_for(field)
    q = field.q
    el = ops.asarray(np.arange(q))
    x, t, v = np.ix_(el, el, el)
    shift = np.zeros((q, q, q, q), dtype=np.float32)
    shift[x, t, v, ops.add(t, ops.mul(v, x))] = 1
    return shift.reshape(q * q, q * q)


@functools.lru_cache(maxsize=None)
def _subspace_table(field: Field, n: int, d: int, side: str) -> tuple:
    """subspace_blocks(d, side) of Space(field, n), one read-only block per
    pivot pattern. The key's field carries its modulus (Field.__eq__), so
    two moduli of one order get two tables."""
    blocks = tuple(Space(field, n)._build_blocks(d, side))
    for _, _, enc in blocks:
        enc.flags.writeable = False
    return blocks


def _integral(values, what: str) -> np.ndarray:
    """values as an array, refused with ValueError when a float entry is not
    an integer, which numpy's integer casts would truncate."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        bad = arr[arr != np.floor(arr)]
        if bad.size:
            raise ValueError(f"{what} {bad[0]} is not an integer")
    return arr


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
        self._sum_tables = {}  # width -> _sum_table(width), for translate

    # point encoding -------------------------------------------------------
    @functools.cached_property
    def places(self) -> np.ndarray:
        """q^i, the weight of coordinate x_(i+1) in an encoding.

        Every int64 encoding is formed through these weights, so a space
        whose encodings pass int64 (q^n - 1 > 2^63 - 1) is refused here.
        """
        if self.size - 1 > np.iinfo(np.int64).max:
            raise BudgetExceeded(
                f"GF({self.q})^{self.n} has q^n = {self.size} points, "
                "too many for int64 encodings"
            )
        return self.q ** np.arange(self.n, dtype=np.int64)

    def encode(self, coords) -> int:
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        e = 0
        for x in reversed(coords):
            if not 0 <= x < self.q:
                raise ValueError(f"coordinate {x} outside 0..{self.q - 1}")
            if x != int(x):
                raise ValueError(f"coordinate {x} is not an integer")
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
        self.encode(v)  # refuses a coordinate outside 0..q-1
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
        """The map u -> encodings of u + w, for one row w of shape (1, B) and
        columns u of shape (..., 1), giving shape (..., B); any other shape
        of w or u is refused with ValueError.

        In characteristic 2 the field adds by XOR and q = 2^m gives every
        coordinate its own bits, so the encodings XOR whole. Otherwise the
        coordinates add in groups of n // 2 digits (two groups for even n,
        three for odd n, the last of one digit; one group for n = 1), each
        through one digitwise sum table of q^(2 * width) <= max(q^n, q^2)
        entries (_sum_table, built once per Space). The tables' columns at
        w's digits are taken once, so each u costs one row take per group.
        The cutting scan (blocking._first_uncut_subspace) passes u of shape
        (rows, 1), the weight-sum scan (codes.is_minimal_weightsum) u of
        shape (q-1, rows, 1).
        """
        w = np.asarray(w, dtype=np.int64)
        if w.ndim != 2 or w.shape[0] != 1:
            raise ValueError(f"translate adds one row of shape (1, B), got shape {w.shape}")
        # (the group's sum-table columns at w's digits, times the place of
        # the group's lowest digit; that place; q^width), none for XOR
        groups = []
        if self.field.p != 2:
            for lo, width in self._digit_groups():
                place, size = self.q**lo, self.q**width
                groups.append((self._sum_table(width)[:, (w[0] // place) % size] * place, place, size))

        def add(u):
            u = np.asarray(u, dtype=np.int64)
            if u.ndim < 2 or u.shape[-1] != 1:
                raise ValueError(f"translate adds to columns of shape (..., 1), got shape {u.shape}")
            if not groups:
                return u ^ w
            u = u[..., 0]
            (col, _, size), *rest = groups  # the first group's lowest digit is x_1
            out = col[u % size]
            for col, place, size in rest:
                out += col[(u // place) % size]
            return out

        return add

    def _digit_groups(self) -> list:
        """(lowest digit, width) of the digit groups translate adds together."""
        h = self.n // 2
        return [(lo, width) for lo, width in ((0, h), (h, h), (2 * h, self.n % 2)) if width]

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

        The transform holds size * q histogram entries and spends n matrix
        products of size * q^3 multiply-adds each, q^3 per encoding v and
        pass; a scan spends about n * q^(n-1) steps on each hyperplane count
        (its points) and n * size on each shift count. The transform is used
        when q^2 < needed and its histogram and pass matrix fit _COUNT_CAP:
        many counts over a small field (n >= 3), not the q + 1 lines of a
        plane, nor the shift condition's q^2 - 1 vectors of a plane, which
        its scan may leave at the first failure.
        """
        q = self.q
        return self.size * q <= _COUNT_CAP and q**4 <= _COUNT_CAP and q * q < needed

    def shift_counts(self, mask: np.ndarray, values: Optional[np.ndarray] = None):
        """c[v] = #{x in mask : values[x] + v.x = 0} for every encoding v.

        values defaults to 0, which makes c[v] = |mask n H_v| (c[0] = |mask|).
        An exact transform over the group ring Z[(GF(q), +)]: every point x
        starts as the unit histogram at t = values[x], and pass i trades the
        coordinate x_i for v_i, shifting the histogram by v_i * x_i. That is
        one product of the (x_i, t) axes with the q^2 x q^2 0/1 matrix
        S[(x, t), (v, t')] = [t' = t + v * x] (_shift_matrix), after which a
        transpose moves v_i to the front so that x_(i+1) sits beside t; the
        last pass keeps only S's t' = 0 columns. Every entry and every
        partial sum counts points of the mask, at most size <= _COUNT_CAP / 2
        < 2^24, so float32 and BLAS hold them exactly. The histogram has
        size * q entries and S has q^4; either above _COUNT_CAP is refused
        with BudgetExceeded (see counts_by_transform).
        """
        q, n, size = self.q, self.n, self.size
        if size * q > _COUNT_CAP:
            raise BudgetExceeded(
                f"the count transform needs {size * q} histogram entries, cap {_COUNT_CAP}"
            )
        if q**4 > _COUNT_CAP:
            raise BudgetExceeded(
                f"the count transform needs a pass matrix of {q**4} entries, cap {_COUNT_CAP}"
            )
        shift = _shift_matrix(self.field)
        pts = np.nonzero(mask)[0]
        hist = np.zeros((size, q), dtype=np.float32)
        hist[pts, 0 if values is None else values[pts]] = 1
        rest = size // q
        for _ in range(n - 1):
            # rows (v_(i-1), ..., v_1, x_n, ..., x_(i+1)), columns (x_i, t)
            hist = hist.reshape(rest, q * q) @ shift
            hist = np.ascontiguousarray(hist.reshape(rest, q, q).transpose(1, 0, 2))
        # rows (v_(n-1), ..., v_1), columns v_n: the transpose is the encoding order
        return (hist.reshape(rest, q * q) @ shift[:, ::q]).T.ravel().astype(np.int64)

    def hyperplane_counts(self, mask: np.ndarray) -> np.ndarray:
        """c[v] = |mask n H_v| for every encoding v (c[0] = |mask|).

        From shift_counts when counts_by_transform says it pays for the
        hyperplanes, otherwise from scan_hyperplane_counts, which is refused
        before any count when the hyperplanes' points pass _GENERIC_POINT_CAP.
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
        hyperplanes = self.subspace_count(self.n - 1)
        if hyperplanes * self.q ** (self.n - 1) > _GENERIC_POINT_CAP:
            raise BudgetExceeded(
                f"scanning the points of {hyperplanes} hyperplanes exceeds the point cap"
            )
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

    def subspace_blocks(self, d: int, side: str = "points"):
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
        A block stays inside one pivot pattern and holds q^t <=
        max(1, _COUNT_CHUNK // q^r) subspaces, so a block's enc has at most
        _COUNT_CHUNK entries when one subspace's q^r fit. An enumeration of
        at most _COUNT_CHUNK entries, on either side, depends only on
        (field, n, d, side) and is read from _subspace_table, built once per
        process, one block per pivot pattern; a larger one is built on each
        call, so a scan that stops early builds only the blocks it reads.
        """
        if side not in ("points", "annihilator"):
            raise ValueError(f"unknown side {side!r}")
        r = d if side == "points" else self.n - d
        if self.subspace_count(d) * self.q**r > _COUNT_CHUNK:
            yield from self._build_blocks(d, side)
        else:
            yield from _subspace_table(self.field, self.n, d, side)

    def _build_blocks(self, d: int, side: str):
        """subspace_blocks, built column by column from the canonical bases'
        free entries, with no field op over a whole block.

        Within a pivot pattern of m free entries (the first most significant
        in the canonical order), a block fixes the leading m - tail entries
        and ranges over the trailing tail, q^tail <= max(1, _COUNT_CHUNK //
        q^r) subspaces. Column col of the combination l is the field sum of
        l_a * entry_j over col's terms (a, j). Its digits over (col's
        trailing entries, l) form one table, built by field ops once per
        pattern from combo; a block adds to it the sum over col's fixed
        entries, a vector over l. enc is then base plus, per column, one
        broadcast integer add of places[col] * table along the block axes
        of col's trailing entries.
        """
        q, n = self.q, self.n
        ops = ops_for(self.field)
        el = ops.asarray(np.arange(q))
        sign = el if side == "points" else ops.neg(el)  # an annihilator row holds -entry
        start = 0
        for pivots, free in self._pivot_patterns(d):
            others = [c for c in range(n) if c not in pivots]
            # row a has a unit in column units[a]; terms[c] lists the (a, j)
            # with l_a * entry_j in column coords[c]
            if side == "points":
                units, coords = list(pivots), others
                terms = [[(i, j) for j, (i, c) in enumerate(free) if c == col] for col in coords]
            else:
                units, coords = others, list(pivots)
                terms = [[(others.index(c), j) for j, (i, c) in enumerate(free) if i == row] for row in range(d)]
            r, m = len(units), len(free)
            size = q**r
            combo = ops.asarray((np.arange(size)[:, None] // q ** np.arange(r)) % q)
            base = combo.astype(np.int64) @ self.places[units]
            tail = 0
            while tail < m and q ** (tail + 1) <= _COUNT_CHUNK // size:
                tail += 1
            lead = m - tail
            shape = (q,) * tail + (size,)
            columns = []  # (place, fixed terms, trailing table, its block axes)
            for col, pairs in zip(coords, terms):
                table, axes = np.zeros(size, dtype=ops.dtype), [1] * tail
                for a, j in pairs:
                    if j >= lead:
                        table = ops.add(table[..., None, :], ops.mul(sign[:, None], combo[:, a]))
                        axes[j - lead] = q
                fixed = [(a, j) for a, j in pairs if j < lead]
                if fixed or table.ndim > 1:
                    columns.append((self.places[col], fixed, table, axes + [size]))
            for lo in range(q**lead):
                head = base.copy()
                parts = []
                for place, fixed, table, axes in columns:
                    digit = table
                    for a, j in fixed:
                        entry = (lo // q ** (lead - 1 - j)) % q
                        if entry:
                            digit = ops.add(digit, ops.mul_scalar(int(sign[entry]), combo[:, a]))
                    if table.ndim == 1:
                        head += digit.astype(np.int64) * place
                    else:
                        parts.append((digit.astype(np.int64) * place).reshape(axes))
                enc = np.empty(shape, dtype=np.int64)
                np.add(head, parts[0] if parts else 0, out=enc)
                for part in parts[1:]:
                    enc += part
                yield start + lo * q**tail, pivots, enc.reshape(q**tail, size)
            start += q**m

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
            multiples = ops.mul(np.arange(space.q)[:, None], ops.asarray(row))
            pts = np.concatenate([ops.add(pts, m) for m in multiples], axis=0)
        enc = space.encode_block(pts)
        enc.sort()
        return enc

    def point_set(self, punctured: bool = False) -> "PointSet":
        enc = self.point_encodings()
        bits = np.zeros(self.space.size, dtype=bool)
        bits[enc] = True
        if punctured:
            bits[0] = False
            enc = enc[1:]  # the origin, encoding 0, sorts first
        return PointSet._of_sorted(self.space, bits, enc)

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
        return space.canonical_representative(v)

    def as_lists(self) -> list:
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return isinstance(other, SubspaceBasis) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, rows={self.as_lists()})"


class PointSet:
    """A subset of GF(q)^n as a boolean bitmap indexed by point encoding,
    with its sorted encodings kept beside it (see _of_sorted)."""

    __slots__ = ("space", "bits", "_encodings", "_hyperplane_counts")

    def __init__(self, space: Space, bits: np.ndarray):
        if bits.shape != (space.size,) or bits.dtype != np.bool_:
            raise ValueError("bits must be a boolean array over all encodings")
        self.space = space
        self.bits = bits
        self._encodings = None
        self._hyperplane_counts = None

    @classmethod
    def _of_sorted(cls, space: Space, bits: np.ndarray, enc: np.ndarray) -> "PointSet":
        """The set of bitmap bits, whose sorted distinct encodings enc are
        already known; encodings() and len() then never scan the bitmap."""
        pset = cls(space, bits)
        enc.flags.writeable = False
        pset._encodings = enc
        return pset

    @classmethod
    def from_encodings(cls, space: Space, encodings) -> "PointSet":
        if not isinstance(encodings, np.ndarray):
            encodings = list(encodings)
        enc = np.unique(np.asarray(_integral(encodings, "encoding"), dtype=np.int64))
        if enc.size and (enc[0] < 0 or enc[-1] >= space.size):
            raise ValueError("encoding outside the space")
        bits = np.zeros(space.size, dtype=bool)
        bits[enc] = True
        return cls._of_sorted(space, bits, enc)

    @classmethod
    def from_points(cls, space: Space, points) -> "PointSet":
        return cls.from_encodings(space, [space.encode(p) for p in points])

    def __len__(self) -> int:
        return self.encodings().size

    def hyperplane_counts(self) -> np.ndarray:
        """c[v] = |S n H_v| for every encoding v (c[0] = |S|), computed once."""
        if self._hyperplane_counts is None:
            self._hyperplane_counts = self.space.hyperplane_counts(self.bits)
        return self._hyperplane_counts

    def __contains__(self, e: int) -> bool:
        return bool(self.bits[e])

    def encodings(self) -> np.ndarray:
        """The sorted encodings of the set's points (read-only), found once."""
        if self._encodings is None:
            self._encodings = np.flatnonzero(self.bits)
            self._encodings.flags.writeable = False
        return self._encodings

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
        return PointSet._of_sorted(self.space, bits, self.encodings()[1:])

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
# numbers. Lines end where str.splitlines ends them ("\r\n" is one break)
# and tokens are what str.split leaves, so both sets of code points are
# spelled out here (tests check them against Python's over all of Unicode).
_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_SPACES = _BREAKS + "\t\x1f \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000"
_IS_TOKEN = np.ones(256, dtype=bool)  # per code point below 256: not a space
_IS_TOKEN[[ord(c) for c in _SPACES if ord(c) < 256]] = False
_IS_BREAK = np.zeros(256, dtype=bool)  # and a line break
_IS_BREAK[[ord(c) for c in _BREAKS if ord(c) < 256]] = True
_PLAIN_DIGITS = 18  # ASCII digits that always fit int64
_TENS = 10 ** np.arange(_PLAIN_DIGITS - 1, -1, -1)  # the places of such digits
_TAIL = np.arange(-_PLAIN_DIGITS, 0)  # and their offsets from the end of the token


def _read_text(path) -> str:
    """The text of a UTF-8 input file; other bytes are a ParseError."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None


def _char_kinds(text: str):
    """The code points of text, as bytes when it is ASCII, and which of them
    are token characters (comments aside) and line breaks."""
    if text.isascii():
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        return chars, _IS_TOKEN.take(chars), _IS_BREAK.take(chars)
    return _wide_char_kinds(text)


def _wide_char_kinds(text: str):
    """_char_kinds of any text, as 32-bit code points."""
    chars = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    low = np.minimum(chars, 255)  # 255 is a token character
    token, newline = _IS_TOKEN.take(low), _IS_BREAK.take(low)
    for c in _SPACES:
        if ord(c) > 255 and c in text:
            at = chars == ord(c)
            token[at] = False
            newline[at] = c in _BREAKS
    return chars, token, newline


class _Lines:
    """The data lines of a file, found by one numpy pass over its code points.

    The text is read with a line break added at each end, so a token never
    touches either end and a character's line number is the count of
    breaks up to it. Token t is text[starts[t]:ends[t]] of that padded
    text; data line k, a line with a token left once its comment is cut,
    is file line linenos[k] and holds tokens bounds[k]:bounds[k + 1].
    """

    def __init__(self, text: str):
        self.text = text = "\n" + text + "\n"
        chars, token, newline = _char_kinds(text)
        self.chars = chars
        if "\r\n" in text:  # one break, counted at the "\r"
            newline[1:] &= (chars[1:] != 10) | (chars[:-1] != 13)
        if "#" in text:  # a comment runs from its '#' to the end of the line
            at = np.arange(chars.size)
            last_hash = np.maximum.accumulate(np.where(chars == ord("#"), at, -1))
            token &= last_hash < np.maximum.accumulate(np.where(newline, at, -1))
        edges = (token[1:] != token[:-1]).nonzero()[0] + 1
        self.starts, self.ends = edges[::2], edges[1::2]
        line = newline.cumsum()[self.starts]
        # a data line starts at the first token and wherever the line number steps
        first = np.ones(line.size + 1, dtype=bool)
        np.not_equal(line[1:], line[:-1], out=first[1:-1])
        self.bounds = first.nonzero()[0]
        self.linenos = line[self.bounds[:-1]]

    def __len__(self) -> int:
        return self.linenos.size

    def tokens(self, k: int) -> list:
        """The tokens of data line k, as text."""
        lo, hi = self.bounds[k : k + 2].tolist()
        return [self.text[s:e] for s, e in zip(self.starts[lo:hi].tolist(), self.ends[lo:hi].tolist())]

    def integers(self, lo: int, hi: int):
        """int() of tokens lo..hi-1 up to the first that is not an integer.

        Returns the values, as int64 or, when one passes that range, as
        Python ints in an object array, and how many tokens parsed. Tokens of
        at most _PLAIN_DIGITS ASCII digits are read in one numpy pass over
        their last characters; any other token goes through int().
        """
        starts, ends = self.starts[lo:hi], self.ends[lo:hi]
        lengths = ends - starts
        longest = int(lengths.max(initial=0))
        width = min(longest, _PLAIN_DIGITS)
        # the last `width` characters of every token, those before its start
        # read as zeros
        pos = ends[:, None] + _TAIL[_PLAIN_DIGITS - width :]
        digits = self.chars[pos] - ord("0")  # unsigned: any other character passes 9
        if width > 1:
            digits[pos < starts[:, None]] = 0
        values = digits @ _TENS[_PLAIN_DIGITS - width :]
        odd = []  # the tokens int() reads
        if longest > _PLAIN_DIGITS or digits.max(initial=0) > 9:
            odd = ((digits.max(axis=1) > 9) | (lengths > _PLAIN_DIGITS)).nonzero()[0].tolist()
        parsed = values.size
        other = {}
        for t in odd:
            try:
                other[t] = int(self.text[starts[t] : ends[t]])
            except ValueError:
                parsed = t
                break
        if other:
            if not all(-(2**63) <= v < 2**63 for v in other.values()):
                values = values.astype(object)
            values[list(other)] = list(other.values())
        return values[:parsed], parsed


def _read_header(text: str, what: str):
    """The Space of a "q n [modulus]" file and the file's _Lines, header first."""
    lines = _Lines(text)
    if not len(lines):
        raise ParseError(f"empty {what} file")
    lineno, parts = int(lines.linenos[0]), lines.tokens(0)
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
    return Space(field, n), lines


def _space_zeros(space: Space, dtype) -> np.ndarray:
    """A zero array over the q^n encodings, refused when numpy cannot allocate it."""
    try:
        return np.zeros(space.size, dtype=dtype)
    except (ValueError, MemoryError) as exc:
        raise BudgetExceeded(
            f"GF({space.q})^{space.n} has q^n = {space.size} points, "
            f"too many for one array ({exc})"
        ) from exc


class _Rows:
    """A file body, the data lines after the header line, read as integer
    rows of a fixed width.

    The first bad line wins, and on one line the checks run in the order
    they are made: the token count and the integer check here, then the
    parser's own range and repeat checks. Each check reads only the rows
    before the earliest failure found so far, which it may move up; done()
    raises that failure as a ParseError naming the file line, comments and
    blank lines counted.
    """

    def __init__(self, lines: _Lines, width: int, wrong_count: str, non_integer: str):
        self.linenos = lines.linenos[1:].tolist()
        bounds = lines.bounds[1:]
        self.count = len(self.linenos)
        self.error = None
        wrong = (bounds[1:] - bounds[:-1] != width).nonzero()[0]
        if wrong.size:
            self.fail(int(wrong[0]), wrong_count)
        # the rows before the first wrong count hold `width` tokens each; a
        # matrix header may declare a length below 1, and then no row is read
        size = self.count * max(width, 0)
        values, parsed = lines.integers(int(bounds[0]), int(bounds[0]) + size)
        if parsed < size:
            self.fail(parsed // width, non_integer)
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
        if v.size and (v.min() < 0 or v.max() >= q):
            k = int(((v < 0) | (v >= q)).any(axis=1).nonzero()[0][0])
            self.fail(k, message(next(x for x in reversed(v[k].tolist()) if not 0 <= x < q)))

    def check_repeats(self, keys: np.ndarray, n: int) -> np.ndarray:
        """Fail at the first row whose key, one per row of values, repeats an
        earlier row's, naming the row's point, its first n entries; returns
        the keys sorted."""
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            # a stable sort puts each repeat after the row it repeats
            order = np.argsort(keys, kind="stable")
            k = int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())
            self.fail(k, f"duplicate point {tuple(self._values[k, :n].tolist())}")
        return ordered

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
    enc = rows.check_repeats(space.encode_block(rows.values), n)
    rows.done()
    bits[enc] = True
    return space, PointSet._of_sorted(space, bits, enc)


def load_point_set(path):
    return parse_point_set(_read_text(path))


def format_point_set(pset: PointSet) -> str:
    space = pset.space
    return _format_rows(f"{space.q} {space.n}", space.field, space.decode_block(pset.encodings()))


def save_point_set(path, pset: PointSet):
    Path(path).write_text(format_point_set(pset))
