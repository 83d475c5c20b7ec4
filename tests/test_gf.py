"""Finite field tables: exhaustive axioms at small sizes, digit-wise addition
and negation, pinned moduli, lemma 4's evidence on top of the tables, and an
independent irreducibility check for the modulus search."""

import json
import random

import numpy as np
import pytest

from csection.cli import main
from csection.gf import (MAX_FIELD_SIZE, FieldTable, _is_p_power, _is_prime,
                         _largest_proper_divisor, _prime_factors, _prime_power,
                         _smallest_prime_factor, field_make, field_of_order,
                         smallest_irreducible)

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4), (5, 2)]


@pytest.mark.parametrize("p,f", FIELDS)
def test_field_axioms_exhaustive(p, f):
    F = field_make(p, f)
    els = list(F.elements())
    assert els == list(range(p ** f))
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.sub(a, b) == F.add(a, F.neg(b))
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


def _coeffs(n, p, f):
    return [(n // p ** k) % p for k in range(f)]


def _number(coeffs, p):
    return sum(c * p ** k for k, c in enumerate(coeffs))


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (13, 1), (23, 2),
                                 (521, 1), (2, 10), (3, 7), (65521, 1)],
                         ids=["GF4", "GF8", "GF9", "GF25", "GF27", "GF13", "GF529",
                              "GF521", "GF1024", "GF2187", "GF65521"])
def test_additive_arithmetic_is_digitwise(p, f):
    """Zech-logarithm addition against digit-wise sums mod p: every cell up
    to q = 529, and a seeded sample of 3,000 rows of 8 cells above."""
    F = field_make(p, f)
    q = p ** f
    if q <= 529:
        rows, cols = range(q), list(range(q))
    else:
        rng = random.Random(q)
        rows, cols = [rng.randrange(q) for _ in range(3_000)], [rng.randrange(q) for _ in range(8)]
        cols[0] = 0
    assert [F.neg(a) for a in rows] == [_number([-c % p for c in _coeffs(a, p, f)], p)
                                        for a in rows]
    col_coeffs = [_coeffs(b, p, f) for b in cols]
    for a in rows:
        ca = _coeffs(a, p, f)
        add = [_number([(x + y) % p for x, y in zip(ca, cb)], p) for cb in col_coeffs]
        assert [F.add(a, b) for b in cols] == add, a
        assert [F.sub(x, b) for x, b in zip(add, cols)] == [a] * len(cols), a


@pytest.mark.parametrize("q", [q for q in range(2, 65) if _prime_power(q)]
                         + [509, 512, 521, 529, 1024, 2187, 65521])
def test_multiplicative_tables_match_polynomial_products(q):
    """The log/exp tables against `_mul_raw`, a polynomial product and
    reduction: every cell up to q = 64, and a seeded sample of 20,000 cells
    above."""
    F = field_of_order(q)
    if q <= 64:
        cells = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        cells = [(rng.randrange(q), rng.randrange(q)) for _ in range(20_000)]
    assert [F.mul(a, b) for a, b in cells] == [F._mul_raw(a, b) for a, b in cells]
    assert all(F._mul_raw(a, F.inv(a)) == 1 for a in range(1, q))


@pytest.mark.parametrize("q", [2, 4, 9, 27, 521, 1024])
def test_array_arithmetic_matches_the_scalar_calls(q):
    """mul_array, add_array and inv_array against the scalar calls, on every
    pair up to q = 27 and on a seeded sample above, zeros included; the
    array inverse of 0 is 0."""
    F = field_of_order(q)
    if q <= 27:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(0, 0), (0, 5), (5, 0)] + [(rng.randrange(q), rng.randrange(q))
                                            for _ in range(5_000)]
    a, b = (np.array(column, dtype=np.intp) for column in zip(*pairs))
    assert F.mul_array(a, b).tolist() == [F.mul(x, y) for x, y in pairs]
    assert F.add_array(a, b).tolist() == [F.add(x, y) for x, y in pairs]
    assert F.inv_array(a).tolist() == [F.inv(x) if x else 0 for x, _ in pairs]


# lemma 4's matrix work runs on these tables; its evidence at seed 1
LEMMA4_EVIDENCE = {
    (2, 4): ({"vec": 12, "proj": 12}, 3, 4),
    (2, 8): ({"vec": 56, "proj": 56}, 7, 8),
    (2, 9): ({"vec": 72, "proj": 36}, 4, 9),
    (3, 4): ({"vec": 576, "proj": 192}, 3, 4),
}


@pytest.mark.parametrize("n,q", list(LEMMA4_EVIDENCE), ids=[f"SL{n}_{q}" for n, q in LEMMA4_EVIDENCE])
def test_lemma4_json_evidence_is_pinned(n, q, capsys):
    orders, census, corner = LEMMA4_EVIDENCE[(n, q)]
    code = main(["verify", "lemma4", "--n", str(n), "--q", str(q), "--seed", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["status"] == "pass" and doc["completeness"] is True
    side = {"corner_order": corner, "minimal_normal": True, "non_supersolvable": True,
            "normalizer_crosscheck": True}
    assert doc["evidence"] == {"expected_orders": orders, "failures": 0,
                               "multiplier_census": census, "orders": orders,
                               "sides": {"proj": side, "vec": side}, "trials": 100}


def test_pinned_moduli():
    assert field_make(2, 2).modulus == (1, 1, 1)
    assert field_make(2, 3).modulus == (1, 1, 0, 1)
    assert field_make(3, 2).modulus == (1, 0, 1)
    assert field_make(2, 4).modulus == (1, 1, 0, 0, 1)


def test_arithmetic_spot_values():
    # GF(4): x * x = x + 1 under x^2 + x + 1
    assert field_make(2, 2).mul(2, 2) == 3
    # GF(3): 2 * 2 = 1
    assert field_make(3).mul(2, 2) == 1
    # GF(8): x^2 * x = x + 1 under x^3 + x + 1
    F8 = field_make(2, 3)
    assert F8.mul(F8.mul(2, 2), 2) == 3
    # GF(9): x * x = -1 = 2 under x^2 + 1
    assert field_make(3, 2).mul(3, 3) == 2
    # GF(9) addition is coefficient-wise: x + 1 encodes as 4
    assert field_make(3, 2).add(3, 1) == 4


@pytest.mark.parametrize("p,f", [(2, 3), (3, 2), (2, 4), (7, 1)])
def test_pow_matches_repeated_multiplication(p, f):
    F = field_make(p, f)
    for a in F.elements():
        acc = 1
        for e in range(2 * F.q):
            assert F.pow(a, e) == acc
            acc = F.mul(acc, a)
    for a in range(1, F.q):
        assert F.pow(a, -1) == F.inv(a)
        assert F.pow(a, F.q - 1) == 1


def _order(F, a):
    """The multiplicative order of a != 0, by repeated multiplication."""
    order, power = 1, a
    while power != 1:
        power = F.mul(power, a)
        order += 1
    return order


@pytest.mark.parametrize("p,f,phi", [(2, 3, 6), (3, 2, 4), (7, 1, 2), (2, 4, 8)])
def test_multiplicative_structure(p, f, phi):
    F = field_make(p, f)
    q = F.q
    orders = [_order(F, a) for a in range(1, q)]
    assert all((q - 1) % o == 0 for o in orders)
    # primitive element count is Euler phi of q-1
    assert sum(1 for o in orders if o == q - 1) == phi
    g = F.primitive_element()
    assert _order(F, g) == q - 1
    powers = {F.pow(g, e) for e in range(q - 1)}
    assert powers == set(range(1, q))


def test_error_paths():
    with pytest.raises(ZeroDivisionError):
        field_make(5).inv(0)
    with pytest.raises(ValueError, match="not prime"):
        FieldTable(4, 1)
    with pytest.raises(ValueError, match="field size"):
        FieldTable(2, 17)
    assert 2 ** 16 == MAX_FIELD_SIZE
    with pytest.raises(ValueError, match="reducible"):
        FieldTable(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError, match="monic"):
        FieldTable(2, 2, modulus=(1, 1))


# independent polynomial arithmetic for the irreducibility cross-check

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a, b, p):
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    while len(_ptrim(a)) >= len(b):
        a = _ptrim(a)
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
    return _ptrim(a)


def _monic_polys(p, deg):
    out = []
    total = p ** deg
    for enc in range(total):
        coeffs = []
        n = enc
        for _ in range(deg):
            coeffs.append(n % p)
            n //= p
        out.append(coeffs + [1])
    return out


def _naive_irreducible(poly, p):
    f = len(poly) - 1
    for d in range(1, f // 2 + 1):
        for g in _monic_polys(p, d):
            if not _pmod(poly, g, p):
                return False
    return True


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_smallest_irreducible_against_naive_filter(p, f):
    got = smallest_irreducible(p, f)
    assert len(got) == f + 1 and got[-1] == 1
    assert _naive_irreducible(list(got), p)
    # nothing smaller in the integer encoding is irreducible
    enc_got = sum(c * p ** i for i, c in enumerate(got[:-1]))
    for enc in range(enc_got):
        coeffs = []
        n = enc
        for _ in range(f):
            coeffs.append(n % p)
            n //= p
        assert not _naive_irreducible(coeffs + [1], p)


def test_smallest_irreducible_degree_one():
    assert smallest_irreducible(5, 1) == (0, 1)
    assert field_make(7).modulus == (0, 1)


# the package's shared integer helpers, against brute force

def _brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _brute_prime(n):
    return _brute_divisors(n) == [1, n] if n > 1 else False


def test_prime_helpers_against_brute_force():
    for n in range(0, 2001):
        primes = [d for d in _brute_divisors(n) if _brute_prime(d)] if n else []
        assert _is_prime(n) is _brute_prime(n), n
        assert _prime_factors(n) == primes, n
        want = next(((p, k) for p in primes for k in range(1, 12) if p ** k == n), None)
        assert _prime_power(n) == want, n
        for p in (2, 3, 5, 7):
            assert _is_p_power(n, p) is (n > 0 and n in {p ** k for k in range(12)}), (n, p)
        if n >= 1:
            divisors = _brute_divisors(n)
            assert _smallest_prime_factor(n) == (primes[0] if primes else 1), n
            assert _largest_proper_divisor(n) == (divisors[-2] if n > 1 else 1), n


def test_field_of_order():
    for q, (p, f) in {2: (2, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2), 17: (17, 1)}.items():
        F = field_of_order(q)
        assert (F.p, F.f, F.q) == (p, f, q)
        assert F.modulus == field_make(p, f).modulus
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError, match="not a prime power"):
            field_of_order(q)
