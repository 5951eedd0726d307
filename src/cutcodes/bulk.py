"""Vectorized field arithmetic on arrays of element codes.

Prime fields use modular integer arithmetic directly; extension fields of
order up to 1024 gather through dense q x q tables built once per field.
Larger extension orders fall back to a slow elementwise path, correct but
not meant for hot loops.
"""

from __future__ import annotations

import numpy as np

from .field import Field

_DENSE_LIMIT = 1024


def _dtype_for(q: int):
    # Field refuses orders above 2^16
    return np.uint8 if q <= 256 else np.uint16


class FieldOps:
    """Array-valued add/mul/neg over a fixed field."""

    def __init__(self, field: Field):
        self.field = field
        self.q = field.q
        self.p = field.p
        self.prime = field.m == 1
        self.dtype = _dtype_for(field.q)
        self.add_table = None
        self.mul_table = None
        self.neg_table = None
        if not self.prime and field.q <= _DENSE_LIMIT:
            q = field.q
            add = np.empty((q, q), dtype=self.dtype)
            mul = np.empty((q, q), dtype=self.dtype)
            for a in range(q):
                for b in range(q):
                    add[a, b] = field.add(a, b)
                    mul[a, b] = field.mul(a, b)
            self.add_table = add
            self.mul_table = mul
            self.neg_table = np.array([field.neg(a) for a in range(q)], dtype=self.dtype)
        elif not self.prime:
            self._uadd = np.frompyfunc(field.add, 2, 1)
            self._umul = np.frompyfunc(field.mul, 2, 1)
            self._uneg = np.frompyfunc(field.neg, 1, 1)

    def asarray(self, values) -> np.ndarray:
        return np.asarray(values, dtype=self.dtype)

    def add(self, a, b) -> np.ndarray:
        if self.prime:
            return ((a.astype(np.int64) + b) % self.p).astype(self.dtype)
        if self.add_table is not None:
            return self.add_table[a, b]
        return self._uadd(a, b).astype(self.dtype)

    def neg(self, a) -> np.ndarray:
        if self.prime:
            return ((-a.astype(np.int64)) % self.p).astype(self.dtype)
        if self.neg_table is not None:
            return self.neg_table[a]
        return self._uneg(a).astype(self.dtype)

    def sub(self, a, b) -> np.ndarray:
        return self.add(a, self.neg(np.asarray(b, dtype=self.dtype)))

    def mul(self, a, b) -> np.ndarray:
        if self.prime:
            return ((a.astype(np.int64) * b) % self.p).astype(self.dtype)
        if self.mul_table is not None:
            return self.mul_table[a, b]
        return self._umul(a, b).astype(self.dtype)

    def mul_scalar(self, lam: int, a) -> np.ndarray:
        """lam * a for a single field scalar lam; one-row gather when tabled."""
        if self.prime:
            return ((int(lam) * a.astype(np.int64)) % self.p).astype(self.dtype)
        if self.mul_table is not None:
            return self.mul_table[int(lam)][a]
        return self._umul(lam, a).astype(self.dtype)

    def add_scalar(self, lam: int, a) -> np.ndarray:
        if self.prime:
            return ((int(lam) + a.astype(np.int64)) % self.p).astype(self.dtype)
        if self.add_table is not None:
            return self.add_table[int(lam)][a]
        return self._uadd(lam, a).astype(self.dtype)


_ops_cache: dict = {}


def ops_for(field: Field) -> FieldOps:
    key = (field.p, field.m, field.modulus)
    got = _ops_cache.get(key)
    if got is None:
        got = FieldOps(field)
        _ops_cache[key] = got
    return got
