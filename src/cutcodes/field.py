"""Exact arithmetic in GF(p^m) with elements encoded as base-p integers.

An element a_0 + a_1*t + ... + a_{m-1}*t^{m-1} is stored as the integer
a_0 + a_1*p + ... + a_{m-1}*p^{m-1}, constant term least significant. For
prime fields this is the usual residue 0..p-1. Orders above 2^16 are
refused, so every modulus is checked for irreducibility by exhaustive trial
division and multiplication always runs through log/antilog tables built at
construction time, by doubling runs of the generator's powers with the
matrix of multiplication by g^k over GF(p).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    NonPrimeCharacteristic,
    ReducibleModulus,
    UnsupportedOrder,
    ZeroInverse,
)

# Built-in irreducible moduli, constant term first: index i is the
# coefficient of t^i. All monic of degree m.
BUILTIN_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (1, 1, 1),
    27: (1, 2, 0, 1),
}

# Largest supported order: q-sized log/antilog tables stay cheap, element
# codes fit uint16, and products of two codes fit int64.
MAX_ORDER = 1 << 16


def _require_order(p: int, m: int = 1):
    """Refuse GF(p^m) above MAX_ORDER; m is bounded before p^m is formed."""
    if p >= 2 and m >= 1 and (m >= MAX_ORDER.bit_length() or p**m > MAX_ORDER):
        order = p if m == 1 else f"{p}^{m}"
        raise UnsupportedOrder(f"order {order} exceeds the largest supported order {MAX_ORDER}")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _digits(code: int, p: int, m: int) -> tuple:
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return tuple(out)


def _undigits(digs, p: int) -> int:
    out = 0
    for d in reversed(digs):
        out = out * p + d
    return out


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    """Remainder of a modulo a monic polynomial, coefficients in GF(p)."""
    a = [c % p for c in a]
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(a[:dm])


def _is_irreducible(mod, p) -> bool:
    """Exhaustive trial division by monic polynomials of degree 1..deg/2."""
    deg = len(mod) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = _digits(code, p, d) + (1,)
            if not _poly_mod(mod, div, p):
                return False
    return True


class Field:
    """GF(p^m); elements are the integers 0..q-1 under the digit encoding."""

    def __init__(self, p: int, m: int = 1, modulus=None):
        _require_order(p, m)
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if m == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
        else:
            if modulus is None:
                if q not in BUILTIN_MODULI:
                    raise UnsupportedOrder(
                        f"no built-in modulus for order {q}; pass one explicitly"
                    )
                modulus = BUILTIN_MODULI[q]
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1 or mod[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {m} (constant term first)"
                )
            if not _is_irreducible(mod, p):
                raise ReducibleModulus(f"modulus {mod} is reducible over GF({p})")
            self.modulus = mod
        self.p = p
        self.m = m
        self.q = q
        self.generator = None
        self._build_tables()

    # polynomial product, used only to bootstrap the tables
    def _mul_raw(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        pa = _poly_trim(_digits(a, self.p, self.m))
        pb = _poly_trim(_digits(b, self.p, self.m))
        return _undigits(_poly_mod(_poly_mul(pa, pb, self.p), self.modulus, self.p), self.p)

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._mul_raw(out, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return out

    def _build_tables(self):
        q = self.q
        factors = []
        t = q - 1
        d = 2
        while d * d <= t:
            if t % d == 0:
                factors.append(d)
                while t % d == 0:
                    t //= d
            d += 1
        if t > 1:
            factors.append(t)
        for g in range(2, q):
            if all(self._pow_raw(g, (q - 1) // f) != 1 for f in factors):
                self.generator = g
                break
        else:  # q == 2, the empty-generator corner
            self.generator = 1
        # a * c has digit row (digits of a) @ M_c, row j of M_c holding the
        # digits of c * t^j, and M_(c c') = M_c @ M_c': doubling the powers of
        # g found so far with M_(g^k) gives g^0 .. g^(2k - 1)
        p, m = self.p, self.m
        step = np.array([_digits(self._mul_raw(p**j, self.generator), p, m) for j in range(m)])
        powers = np.array([_digits(1, p, m)])
        while len(powers) < q - 1:
            powers = np.concatenate([powers, powers @ step % p])
            step = step @ step % p
        exp = powers[: q - 1] @ p ** np.arange(m)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp = exp.tolist() * 2
        self._log = log.tolist()

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        out = 0
        shift = 1
        for _ in range(self.m):
            out += ((a + b) % self.p) * shift
            a //= self.p
            b //= self.p
            shift *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        out = 0
        shift = 1
        for _ in range(self.m):
            out += ((-a) % self.p) * shift
            a //= self.p
            shift *= self.p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e with 0**0 = 1; negative e inverts first."""
        if a == 0:
            if e == 0:
                return 1
            if e > 0:
                return 0
            raise ZeroInverse("0 has no negative powers")
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self):
        return range(self.q)

    def nonzero_elements(self):
        return range(1, self.q)

    def digits(self, a: int) -> tuple:
        return _digits(a, self.p, self.m)

    def from_digits(self, digs) -> int:
        return _undigits([d % self.p for d in digs], self.p)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


def field_from_order(q: int, modulus=None) -> Field:
    """GF(q), factoring q = p^m; rejects non prime powers. Built once per
    (q, modulus) and shared, as nothing changes a Field; refusals raise every time."""
    return _field_from_order(q, None if modulus is None else tuple(modulus))


@functools.lru_cache(maxsize=None)
def _field_from_order(q: int, modulus) -> Field:
    if q < 2:
        raise UnsupportedOrder(f"order {q} is not a prime power")
    _require_order(q)
    p = 2
    while q % p:
        p += 1
        if p * p > q:
            p = q
            break
    m = 0
    t = q
    while t % p == 0:
        t //= p
        m += 1
    if t != 1:
        raise UnsupportedOrder(f"order {q} is not a prime power")
    if m == 1:
        if modulus is not None:
            raise ValueError("prime fields take no modulus")
        return Field(p)
    return Field(p, m, modulus)
