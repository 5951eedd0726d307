"""Vectorized field arithmetic on arrays of element codes, and row reduction.

Every order, GF(2) to GF(2^16) and GF(65521) alike, gathers through tables
of about q entries made from the field's log/antilog tables. A product is
exp[log[a] + log[b]], where log[0] = 2(q - 1) puts every zero factor in
exp's zero half. A sum is XOR in characteristic 2, and otherwise
fold[spread[a] + spread[b]]: spread places digit l at (2p - 1)^l, so the
sum has no carries, and fold, built one digit at a time, reduces each digit
mod p. Over a prime field spread is the identity and fold is x mod p on
0..2p-2.

log and spread are stored in the narrowest unsigned type that holds a sum
of two of their entries, so a gather writes 1 to 4 bytes per element and
no sum overflows: two logs add to at most 4(q - 1), exp's last index, and
two spreads to at most (2p - 1)^m - 1, fold's last index.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import Field


class FieldOps:
    """Array-valued add/mul/neg over a fixed field."""

    def __init__(self, field: Field):
        self.field = field
        self.q = q = field.q
        self.p = p = field.p
        self.dtype = np.uint8 if q <= 256 else np.uint16  # Field refuses q > 2^16
        top = 2 * (q - 1)
        self._log = np.array(field._log, dtype=np.min_scalar_type(2 * top))
        self._log[0] = top
        self._exp = np.zeros(2 * top + 1, dtype=self.dtype)
        self._exp[:top] = field._exp
        self._neg = self._exp[self._log + self._log[p - 1]]  # times -1, the code p - 1
        if p == 2:
            return
        wide = 2 * p - 1
        self._spread = np.zeros(1, dtype=np.intp)
        self._fold = np.zeros(1, dtype=self.dtype)
        for l in range(field.m):
            # a code s + t * p^l has digit t at place l
            self._spread = (self._spread[None, :] + (np.arange(p) * wide**l)[:, None]).ravel()
            digit = (np.arange(wide) % p * p**l).astype(self.dtype)
            self._fold = (self._fold[None, :] + digit[:, None]).ravel()
        self._spread = self._spread.astype(np.min_scalar_type(wide**field.m - 1))

    def asarray(self, values) -> np.ndarray:
        return np.asarray(values, dtype=self.dtype)

    def add(self, a, b) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        return self._fold.take(self._spread.take(a) + self._spread.take(b))

    def neg(self, a) -> np.ndarray:
        return self._neg.take(a)

    def sub(self, a, b) -> np.ndarray:
        return self.add(a, self.neg(np.asarray(b, dtype=self.dtype)))

    def mul(self, a, b) -> np.ndarray:
        return self._exp.take(self._log.take(a) + self._log.take(b))

    def mul_scalar(self, lam: int, a) -> np.ndarray:
        """lam * a for a single field scalar lam; one q-entry row, then a gather."""
        return self._exp.take(self._log + self._log[int(lam)]).take(a)

    def add_scalar(self, lam: int, a) -> np.ndarray:
        return self.add(a, int(lam))


@functools.lru_cache(maxsize=None)
def ops_for(field: Field) -> FieldOps:
    return FieldOps(field)


def echelon(ops: FieldOps, rows) -> list:
    """Gaussian elimination on a copy of the 2d array rows, top to bottom.

    Row j, reduced by the pivots above it, is independent of the rows above
    exactly when it is nonzero. Its pivot is the first column holding its
    largest entry, and it clears that column, in one gather over the field's
    tables, from the rows below whose coefficient there is nonzero, and only
    from those.

    Returns [(j, factors)] for the independent rows j in order; factors[i]
    is the multiple of row j subtracted from row j + 1 + i, that row's
    pivot-column entry over row j's.
    """
    work = np.array(rows, dtype=ops.dtype)
    out = []
    for j in range(len(work) if work.size else 0):
        row = work[j]
        pivot = row.argmax()
        lead = int(row[pivot])
        if not lead:
            continue
        below = work[j + 1 :]
        factors = ops.mul(ops.field.inv(lead), below[:, pivot])
        hit = factors.nonzero()[0]
        if hit.size:
            below[hit] = ops.add(below[hit], ops.mul(ops.neg(factors[hit])[:, None], row))
        out.append((j, factors))
    return out
