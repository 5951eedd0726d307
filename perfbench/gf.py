"""Small finite-field and linear-algebra toolkit of the benchmark's own.

The benchmark generates its inputs and re-verifies the program's witnesses
with this module, never with cutcodes itself, so a defect in the package's
arithmetic cannot hide behind a check that shares it. Elements use the same
digit encoding as cutcodes (base p, constant term least significant) and
the same built-in moduli, because the input files are read by the program.
"""

from __future__ import annotations

import itertools

import numpy as np

# modulus coefficients, constant term first; the orders the workloads use
_MODULI = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}
_PRIMES = (2, 3, 5, 7, 11, 13)


class GF:
    """GF(q) as dense q x q add/mul tables, built by schoolbook polynomials."""

    def __init__(self, q: int):
        if q in _PRIMES:
            p, mod = q, None
        elif q in _MODULI:
            p, mod = _MODULI[q]
        else:
            raise ValueError(f"the benchmark's field toolkit has no GF({q})")
        self.q, self.p = q, p
        m = 1 if mod is None else len(mod) - 1
        digits = [[(a // p**i) % p for i in range(m)] for a in range(q)]
        add = np.empty((q, q), dtype=np.int64)
        mul = np.empty((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                add[a, b] = sum(((x + y) % p) * p**i for i, (x, y) in enumerate(zip(digits[a], digits[b])))
                prod = [0] * (2 * m - 1)
                for i, x in enumerate(digits[a]):
                    for j, y in enumerate(digits[b]):
                        prod[i + j] = (prod[i + j] + x * y) % p
                for top in range(len(prod) - 1, m - 1, -1):  # reduce by the monic modulus
                    c = prod[top]
                    if c:
                        for i in range(m + 1):
                            prod[top - m + i] = (prod[top - m + i] - c * mod[i]) % p
                mul[a, b] = sum(prod[i] * p**i for i in range(m))
        self.add, self.mul = add, mul
        self.neg = np.array([int(np.nonzero(add[a] == 0)[0][0]) for a in range(q)])
        self.inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            self.inv[a] = int(np.nonzero(mul[a] == 1)[0][0])

    def matvec_rows(self, mat, pts: np.ndarray) -> np.ndarray:
        """Each row x of pts mapped to mat . x; pts is (count, n)."""
        mat = np.asarray(mat, dtype=np.int64)
        out = np.zeros((pts.shape[0], mat.shape[0]), dtype=np.int64)
        for j in range(mat.shape[0]):
            for i in range(mat.shape[1]):
                if mat[j, i]:
                    out[:, j] = self.add[out[:, j], self.mul[mat[j, i], pts[:, i]]]
        return out

    def combine(self, coeffs, rows) -> np.ndarray:
        """sum_i coeffs[i] * rows[i] for one coefficient vector."""
        rows = np.asarray(rows, dtype=np.int64)
        acc = np.zeros(rows.shape[1], dtype=np.int64)
        for c, row in zip(coeffs, rows):
            if c:
                acc = self.add[acc, self.mul[int(c), row]]
        return acc

    def rank(self, rows) -> int:
        a = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
        rank = 0
        for col in range(a.shape[1]):
            piv = next((r for r in range(rank, a.shape[0]) if a[r, col]), None)
            if piv is None:
                continue
            a[[rank, piv]] = a[[piv, rank]]
            a[rank] = self.mul[self.inv[a[rank, col]], a[rank]]
            for r in range(a.shape[0]):
                if r != rank and a[r, col]:
                    a[r] = self.add[a[r], self.neg[self.mul[a[r, col], a[rank]]]]
            rank += 1
        return rank

    def random_invertible(self, rng, n: int) -> np.ndarray:
        while True:
            mat = np.array([[rng.randrange(self.q) for _ in range(n)] for _ in range(n)])
            if self.rank(mat) == n:
                return mat

    def span_points(self, rows) -> np.ndarray:
        """All q^d points of span(rows), as a (q^d, n) array."""
        rows = np.asarray(rows, dtype=np.int64)
        coeffs = np.array(list(itertools.product(range(self.q), repeat=rows.shape[0])))
        pts = np.zeros((coeffs.shape[0], rows.shape[1]), dtype=np.int64)
        for i in range(rows.shape[0]):
            pts = self.add[pts, self.mul[coeffs[:, i][:, None], rows[i][None, :]]]
        return pts

    def canonical(self, pts: np.ndarray) -> np.ndarray:
        """Scale each nonzero row so its first nonzero entry is 1."""
        pts = np.asarray(pts, dtype=np.int64)
        first = np.argmax(pts != 0, axis=1)
        lead = pts[np.arange(pts.shape[0]), first]
        return self.mul[self.inv[lead][:, None], pts]


def encode(pts: np.ndarray, q: int) -> np.ndarray:
    """Point encodings sum x_i q^(i-1), x_1 least significant."""
    return pts @ (q ** np.arange(pts.shape[1], dtype=np.int64))


def all_points(q: int, n: int) -> np.ndarray:
    """Digits of every encoding 0..q^n-1, as a (q^n, n) array."""
    enc = np.arange(q**n, dtype=np.int64)
    return np.stack([(enc // q**i) % q for i in range(n)], axis=1)


def block_family(gf: GF, r: int, k: int, pts: np.ndarray) -> np.ndarray:
    """f(x) = sum over k blocks of the product of r consecutive coordinates."""
    total = np.zeros(pts.shape[0], dtype=np.int64)
    for b in range(k):
        term = pts[:, b * r]
        for i in range(1, r):
            term = gf.mul[term, pts[:, b * r + i]]
        total = gf.add[total, term]
    return total


def staircase(alphas, pts: np.ndarray) -> np.ndarray:
    """f(x) = alphas[w-1] when the Hamming weight w of x is 1..len(alphas)."""
    wt = (pts != 0).sum(axis=1)
    out = np.zeros(pts.shape[0], dtype=np.int64)
    for w, a in enumerate(alphas, start=1):
        out[wt == w] = a
    return out
