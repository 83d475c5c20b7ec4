"""Arithmetic for GF(p^f) with pinned irreducible moduli and integer-coded elements.

An element is the integer whose base-p digits, little-endian, are the
coefficients of its polynomial representative.  The moduli for the fields
used by the triangular-group constructions are pinned explicitly; every other
field gets the smallest monic irreducible polynomial in this integer encoding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

MAX_FIELD_SIZE = 1 << 16
# Largest field that gets addition, negation, multiplication and inverse tables.
_TABLE_MAX_Q = 512

# Pinned moduli, encoded little-endian base p (constant term first).
_PINNED_MODULI = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
}


# -- integer arithmetic shared by the package ----------------------------------

def _smallest_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2 (n itself when prime); 1 for n = 1."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _is_prime(n: int) -> bool:
    return n >= 2 and _smallest_prime_factor(n) == n


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; empty for n < 2."""
    out = []
    while n > 1:
        p = _smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def _prime_power(n: int) -> Optional[tuple[int, int]]:
    """(p, k) with n = p**k and k >= 1, or None when n is not a prime power."""
    if n < 2:
        return None
    p = _smallest_prime_factor(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _is_p_power(n: int, p: int) -> bool:
    """Whether n = p**k for some k >= 0."""
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def _largest_proper_divisor(n: int) -> int:
    """n over its smallest prime factor, for n >= 1 (1 for n = 1)."""
    return n // _smallest_prime_factor(n)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod(prod, modulus, p)[1]


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(_poly_trim(a)) >= len(b):
        a = _poly_trim(a)
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        q[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
    return q, _poly_trim(a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    # x^(p^k) - x accumulates all irreducible factors of degree dividing k;
    # a degree-f polynomial is irreducible iff it is coprime to each of these
    # for k <= f/2 (it has no factor of degree at most f/2).
    f = len(poly) - 1
    if f < 1 or poly[-1] == 0:
        return False
    x = [0, 1]
    xq = list(x)
    for _ in range(1, f // 2 + 1):
        xq = _poly_powmod(xq, p, poly, p)
        diff = [(c1 - c2) % p for c1, c2 in
                zip(xq + [0] * max(0, len(x) - len(xq)), x + [0] * max(0, len(xq) - len(x)))]
        if len(_poly_gcd(poly, diff, p)) > 1:
            return False
    return True


def _poly_powmod(base: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    result = [1]
    b = _poly_divmod(base, modulus, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, b, modulus, p)
        b = _poly_mulmod(b, b, modulus, p)
        e >>= 1
    return result


def smallest_irreducible(p: int, f: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree f over GF(p), by integer encoding."""
    if f == 1:
        return (0, 1)
    for enc in range(p ** f):
        coeffs = _digits(enc, p, f) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {f} over GF({p})")


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


class FieldTable:
    """GF(p^f) with elements encoded as integers 0..p^f-1."""

    def __init__(self, p: int, f: int, modulus: Optional[tuple[int, ...]] = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if f < 1 or p ** f > MAX_FIELD_SIZE:
            raise ValueError(f"field size p^f must be in [p, {MAX_FIELD_SIZE}]")
        self.p = p
        self.f = f
        self.q = p ** f
        if modulus is None:
            modulus = _PINNED_MODULI.get((p, f)) or smallest_irreducible(p, f)
        modulus = tuple(modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if f > 1 and not _is_irreducible(list(modulus), p):
            raise ValueError("modulus is reducible")
        self.modulus = modulus
        self._add_table: Optional[list[list[int]]] = None
        self._neg_table: Optional[list[int]] = None
        self._mul_table: Optional[list[list[int]]] = None
        self._inv_table: Optional[list[int]] = None
        # The addition, multiplication and inverse tables as arrays, for
        # arithmetic on many elements at once.
        self.arrays: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._primitive: Optional[int] = None
        if self.q <= _TABLE_MAX_Q:
            add, neg = self._additive_tables()
            mul, inv = self._multiplicative_tables()
            self.arrays = (add, mul, inv)
            self._add_table, self._neg_table = add.tolist(), neg.tolist()
            self._mul_table, self._inv_table = mul.tolist(), inv.tolist()

    # -- encoding -----------------------------------------------------------

    def _decode(self, a: int) -> list[int]:
        return _digits(a, self.p, self.f)

    def _encode(self, coeffs: list[int]) -> int:
        total = 0
        for c in reversed(coeffs[:self.f] + [0] * max(0, self.f - len(coeffs))):
            total = total * self.p + (c % self.p)
        return total

    def _additive_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Sum and negation of every element, digit-wise mod p over the whole
        field at once."""
        p, q = self.p, self.q
        # int32 holds every partial sum: each stays below max(q, 2p).
        digits = [(np.arange(q, dtype=np.int32) // p ** k) % p for k in range(self.f)]
        add = np.zeros((q, q), dtype=np.int32)
        neg = np.zeros(q, dtype=np.int32)
        for d in reversed(digits):  # Horner, most significant digit first
            add = add * p + (d[:, None] + d[None, :]) % p
            neg = neg * p + (-d) % p
        return add, neg

    def _multiplicative_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Product and inverse of every element from one walk of the powers
        of the primitive element g, q-1 `_mul_raw` calls: a*b is
        g^((log a + log b) mod (q-1)), and the zero row and column are 0."""
        q, g = self.q, self.primitive_element()
        powers = [1]
        for _ in range(q - 2):
            powers.append(self._mul_raw(powers[-1], g))
        if self._mul_raw(powers[-1], g) != 1 or len(set(powers)) != q - 1:
            raise RuntimeError("the powers of the primitive element miss the unit group")
        exp, log = np.array(powers), np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[-log[1:] % (q - 1)]
        return mul, inv

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        prod = _poly_mulmod(self._decode(a), self._decode(b), list(self.modulus), self.p)
        return self._encode(prod + [0] * (self.f - len(prod)))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        b = a
        while e:
            if e & 1:
                result = self.mul(result, b)
            b = self.mul(b, b)
            e >>= 1
        return result

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        k = 1
        x = a
        while x != 1:
            x = self.mul(x, a)
            k += 1
        return k

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group: a unit whose
        (q-1)/r-th power is not 1 for any prime r dividing q-1."""
        if self._primitive is None:
            n = self.q - 1
            for a in range(1, self.q):
                if all(self.pow(a, n // r) != 1 for r in _prime_factors(n)):
                    self._primitive = a
                    break
            else:
                raise RuntimeError("no primitive element found")
        return self._primitive

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.p}^{self.f}), modulus={self.modulus})"


def field_make(p: int, f: int = 1) -> FieldTable:
    """Public constructor matching the pinned-modulus policy."""
    return FieldTable(p, f)


def field_of_order(q: int) -> FieldTable:
    """GF(q), split as q = p**f; ValueError unless q is a prime power."""
    pf = _prime_power(q)
    if pf is None:
        raise ValueError(f"{q} is not a prime power")
    return field_make(*pf)
