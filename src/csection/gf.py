"""Arithmetic for GF(p^f) with pinned irreducible moduli and integer-coded elements.

An element is the integer whose base-p digits, little-endian, are the
coefficients of its polynomial representative.  The moduli for the fields
used by the triangular-group constructions are pinned explicitly; every other
field gets the smallest monic irreducible polynomial in this integer encoding.

Every field up to `MAX_FIELD_SIZE` gets the same arithmetic: discrete-log,
power and add-one tables of O(q) entries, built once by walking the powers of
the primitive element with polynomial products.  After that, every
operation, on one element or on a numpy array of them, is a table read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

MAX_FIELD_SIZE = 1 << 16

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
    """GF(p^f) with elements encoded as integers 0..p^f-1.

    Every operation reads three tables of O(q) entries, built once from a
    walk of the powers of the primitive element g: `log[g^k] = k`, with
    log[0] = 2(q-1); `exp`, the powers twice and then 2(q-1)+1 zeros, so that
    a*b = exp[log a + log b] holds for zero too; and `one_plus[c] = 1 + c`.
    Addition is Zech's identity a + b = a * (1 + b/a) for a != 0 (Lidl &
    Niederreiter, *Finite Fields*, 2nd ed., 1997).  Scalar calls read lists;
    the `*_array` forms read numpy copies of the same tables."""

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
        self._primitive = self._find_primitive()
        self._log, self._exp, self._one_plus = self._tables()
        self._arrays = tuple(np.array(t, dtype=np.intp)
                             for t in (self._log, self._exp, self._one_plus))

    # -- encoding -----------------------------------------------------------

    def _decode(self, a: int) -> list[int]:
        return _digits(a, self.p, self.f)

    def _encode(self, coeffs: list[int]) -> int:
        total = 0
        for c in reversed(coeffs[:self.f] + [0] * max(0, self.f - len(coeffs))):
            total = total * self.p + (c % self.p)
        return total

    def _mul_raw(self, a: int, b: int) -> int:
        """a*b as a polynomial product reduced by the modulus."""
        if a == 0 or b == 0:
            return 0
        prod = _poly_mulmod(self._decode(a), self._decode(b), list(self.modulus), self.p)
        return self._encode(prod + [0] * (self.f - len(prod)))

    def _find_primitive(self) -> int:
        """Smallest generator of the multiplicative group: a unit whose
        (q-1)/r-th power is not 1 for any prime r dividing q-1, with powers
        taken by polynomial products."""
        n = self.q - 1
        for a in range(1, self.q):
            if all(self._pow_raw(a, n // r) != 1 for r in _prime_factors(n)):
                return a
        raise RuntimeError("no primitive element found")

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return result

    def _tables(self) -> tuple[list[int], list[int], list[int]]:
        """log, exp and one_plus from one walk of the q-1 powers of g.

        Multiplying by g is a linear map A on the f base-p digits: column i
        of A holds the digits of x^i * g, one polynomial product each.  The
        walk doubles a block of powers at a time: the first m powers, as
        digit rows, times A^m (mod p) are the next m, and A^m squares for the
        next round.  For f = 1, A is g itself and a step is a product mod p."""
        p, f, q, g = self.p, self.f, self.q, self._primitive
        step = np.array([_digits(self._mul_raw(p ** i, g), p, f) for i in range(f)],
                        dtype=np.int64)  # row i: the digits of x^i * g, so a digit row times it
        digits = np.zeros((1, f), dtype=np.int64)
        digits[0, 0] = 1
        while len(digits) < q - 1:
            digits = np.concatenate([digits, digits @ step % p])
            step = step @ step % p
        powers = (digits[:q - 1] @ p ** np.arange(f, dtype=np.int64)).tolist()
        if self._mul_raw(powers[-1], g) != 1 or len(set(powers)) != q - 1:
            raise RuntimeError("the powers of the primitive element miss the unit group")
        log = [2 * (q - 1)] * q
        for k, x in enumerate(powers):
            log[x] = k
        exp = powers + powers + [0] * (2 * (q - 1) + 1)
        # adding 1 changes only the constant coefficient, the lowest digit
        one_plus = [c - c % p + (c % p + 1) % p for c in range(q)]
        return log, exp, one_plus

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        log, exp = self._log, self._exp
        la = log[a]
        return exp[la + log[self._one_plus[exp[log[b] + self.q - 1 - la]]]]

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("field inverse of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group."""
        return self._primitive

    # -- arithmetic on numpy arrays of elements -----------------------------
    # A negative index below reads the zero tail of exp; it arises only where
    # an operand is zero, and there it gives 0 or is discarded.

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        log, exp, _ = self._arrays
        return exp[log[a] + log[b]]

    def add_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        log, exp, one_plus = self._arrays
        la = log[a]
        return np.where(a == 0, b, exp[la + log[one_plus[exp[log[b] + self.q - 1 - la]]]])

    def inv_array(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse, with 0 for 0."""
        log, exp, _ = self._arrays
        return exp[self.q - 1 - log[a]]

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
