import itertools
import json
import math
import random
import time

import pytest

from prodideals.errors import FactorizationBudgetExceeded
from prodideals.fqpoly import (
    DEFAULT_POLY_BUDGET,
    _factor_monic,
    _frobenius_rows,
    all_monic,
    deg,
    factor_monic,
    field,
    irreducibles_up_to,
    is_irreducible,
    monic,
    padd,
    pdivmod,
    pgcd,
    pmul,
    poly_str,
    prime_power,
    trim,
)
from prodideals.rings import ZZ, PolynomialRing, _xgcd


def test_prime_power_recognition():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(32) == (2, 5)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_prime_power_against_the_definition():
    want = {p**k: (p, k) for p in range(2, 3000) if all(p % d for d in range(2, p))
            for k in range(1, 12) if p**k < 3000}
    assert {q: prime_power(q) for q in range(-2, 3000)} == \
        {q: want.get(q) for q in range(-2, 3000)}


def test_prime_power_of_a_large_field_is_quick():
    # trial division up to the square root would run for minutes here
    p = 2**61 - 1
    started = time.perf_counter()
    assert prime_power(p) == (p, 1)
    assert prime_power(p**3) == (p, 3)
    assert prime_power(3**40) == (3, 40)
    assert prime_power(3 * p) is None
    assert prime_power((2**31 - 1) * p) is None
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    K = field(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, b) == K.mul(b, a)
        assert K.add(a, K.neg(a)) == 0
        if a != 0:
            assert K.mul(a, K.inv(a)) == 1
    for a, b, c in itertools.product(elems, repeat=3):
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


@pytest.mark.parametrize("q", [25, 27, 49])
def test_field_axioms_larger_prime_powers(q):
    K = field(q)
    for a, b in itertools.product(range(q), repeat=2):
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, b) == K.mul(b, a)
        if a:
            assert K.mul(a, K.inv(a)) == 1
    rng = random.Random(q)
    for _ in range(2000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))


@pytest.mark.parametrize("q", [257, 512])
def test_field_above_table_size(q):
    # no tables are built above q = 256; every entry is computed on demand
    K = field(q)
    rng = random.Random(q)
    for i in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert K.sub(K.add(a, b), b) == a == K.neg(K.neg(a))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        if a and i < 10:
            assert K.mul(a, K.inv(a)) == 1
    f = pmul(K, (rng.randrange(q), 1), (rng.randrange(q), rng.randrange(q), 1))
    product = (1,)
    for g, e in factor_monic(K, f):
        for _ in range(e):
            product = pmul(K, product, g)
    assert product == f


def test_divmod_roundtrip():
    rng = random.Random("divmod")
    for q in (2, 3, 4):
        K = field(q)
        for _ in range(200):
            f = trim(rng.randrange(q) for _ in range(rng.randint(1, 8)))
            g = trim(rng.randrange(q) for _ in range(rng.randint(1, 5)))
            if not g:
                continue
            quot, rem = pdivmod(K, f, g)
            assert padd(K, pmul(K, quot, g), rem) == f
            assert deg(rem) < deg(g)


def test_xgcd_identity():
    # the one extended gcd of the ring kinds, over F3[x] and over Z
    rng = random.Random("xgcd")
    ring = PolynomialRing(3)
    K = ring.K
    for _ in range(200):
        f = trim(rng.randrange(3) for _ in range(rng.randint(0, 6)))
        g = trim(rng.randrange(3) for _ in range(rng.randint(0, 6)))
        d, u, v = _xgcd(ring, f, g)
        assert padd(K, pmul(K, u, f), pmul(K, v, g)) == d
        assert d == pgcd(K, f, g)
    for _ in range(200):
        a, b = rng.randint(-10**6, 10**6), rng.choice([0, rng.randint(-10**6, 10**6)])
        d, u, v = _xgcd(ZZ, a, b)
        assert u * a + v * b == d == math.gcd(a, b)


def _necklace_count(q, n):
    # number of monic irreducibles of degree n over F_q, by Moebius inversion
    def mobius(m):
        out, d = 1, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if m > 1 else out

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(n // d) * q**d
    return total // n


@pytest.mark.parametrize("q,max_deg", [(2, 5), (3, 3), (4, 2)])
def test_irreducible_enumeration_counts(q, max_deg):
    K = field(q)
    found = irreducibles_up_to(K, max_deg)
    assert all(is_irreducible(K, f) for f in found)
    by_deg = {}
    for f in found:
        by_deg.setdefault(deg(f), []).append(f)
    for n in range(1, max_deg + 1):
        assert len(by_deg.get(n, [])) == _necklace_count(q, n)


def test_factor_monic_roundtrip():
    rng = random.Random("factor")
    for q in (2, 3, 4):
        K = field(q)
        for _ in range(100):
            f = trim(rng.randrange(q) for _ in range(rng.randint(2, 8)))
            if deg(f) < 1:
                continue
            _, f = monic(K, f)
            product = (1,)
            for g, e in factor_monic(K, f):
                assert is_irreducible(K, g)
                for _ in range(e):
                    product = pmul(K, product, g)
            assert product == f


def _two_degree8_irreducibles(K):
    degree8 = [g for g in irreducibles_up_to(K, 8) if deg(g) == 8]
    return degree8[0], degree8[1]


def test_factor_budget():
    # two degree-8 factors need the scan of the 2^8 degree-8 monics
    K = field(2)
    f = pmul(K, *_two_degree8_irreducibles(K))
    with pytest.raises(FactorizationBudgetExceeded, match="degree-8"):
        factor_monic(K, f, budget=2**7)


def test_factor_budget_raises_where_the_divisor_scan_would():
    K = field(2)
    degree9 = [g for g in irreducibles_up_to(K, 9) if deg(g) == 9]
    with pytest.raises(FactorizationBudgetExceeded, match="degree-9"):
        factor_monic(K, pmul(K, degree9[0], degree9[1]), budget=2**8)
    x17_x1 = pmul(K, (0,) * 17 + (1,), (1, 1))
    assert factor_monic(K, x17_x1, budget=2**8) == [((0, 1), 17), ((1, 1), 1)]


def test_rabin_accepts_large_irreducible():
    K = field(2)
    assert is_irreducible(K, (1, 0, 0, 1) + (0,) * 27 + (1,))  # x^31 + x^3 + 1
    assert not is_irreducible(K, (1, 0, 0, 1) + (0,) * 26 + (1,))  # x^30 + x^3 + 1


def test_factor_budget_raises_on_every_call():
    # an error is not cached, so a repeated call over budget raises again
    K = field(2)
    g, h = _two_degree8_irreducibles(K)
    f = pmul(K, g, h)
    for _ in range(2):
        with pytest.raises(FactorizationBudgetExceeded, match="degree-8"):
            factor_monic(K, f, budget=2**7)
    assert factor_monic(K, f) == [(g, 1), (h, 1)]


def test_factor_budget_prices_only_the_scan_it_runs():
    # a lone factor of a degree needs no divisor scan, so no budget caps
    # it: not the irreducible x^31 + x^3 + 1, not the product of the first
    # degree-17 and degree-18 irreducibles over F2, and not a product of
    # a repeated linear factor over a field too large to list
    from prodideals import cli
    K = field(2)
    f = (1, 0, 0, 1) + (0,) * 27 + (1,)
    assert factor_monic(K, f, budget=2**7) == [(f, 1)]
    f17, f18 = (next(f for f in all_monic(K, d) if is_irreducible(K, f)) for d in (17, 18))
    assert factor_monic(K, pmul(K, f17, f18)) == [(f17, 1), (f18, 1)]
    a = json.dumps({"poly": list(pmul(K, f17, f18))})
    assert cli.main(["check-plus", "-r", "F2[x]", "--r-elem", '{"poly":[0,1]}',
                     "--a-elem", a]) == 0
    K = field(2**61 - 1)  # a prime = 3 mod 4, so x^2 + 1 is irreducible
    x1, x2, x2_1 = (1, 1), (2, 1), (1, 0, 1)
    assert factor_monic(K, pmul(K, pmul(K, x1, x1), x2_1)) == [(x1, 2), (x2_1, 1)]
    with pytest.raises(FactorizationBudgetExceeded, match="^degree-1 divisor scan"):
        factor_monic(K, pmul(K, x1, x2))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 27])
def test_cached_answers_are_the_computed_ones(q):
    K = field(q)
    rng = random.Random(f"prodideals:cache:{q}")
    samples = [tuple(rng.randrange(q) for _ in range(rng.randint(0, 6))) + (1,)
               for _ in range(40)]
    for f in samples + samples:
        assert is_irreducible(K, f) == is_irreducible.__wrapped__(K, f)
        want = list(_factor_monic.__wrapped__(K, f, DEFAULT_POLY_BUDGET))
        assert factor_monic(K, f) == want


def test_a_returned_factorisation_is_the_callers_own():
    K = field(3)
    f = pmul(K, (1, 1), (2, 0, 1))  # (x + 1)(x^2 + 2)
    first = factor_monic(K, f)
    want = list(first)
    first.append(((0, 1), 9))
    first[0] = None
    assert factor_monic(K, f) == want


def _walked_frobenius_rows(K, f):
    """x^(i*q) mod f for i < deg(f), read off the walk x^j mod f: the
    reference for ``_frobenius_rows``."""
    rows, t = [], (1,)
    for j in range((deg(f) - 1) * K.q + 1):
        if j % K.q == 0:
            rows.append(t)
        t = pdivmod(K, (0,) + t, f)[1]
    return rows


def test_frobenius_rows_match_the_walk():
    rng = random.Random("prodideals:frobenius")
    for _ in range(400):
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
        K = field(q)
        f = tuple(rng.randrange(q) for _ in range(rng.randint(1, 7))) + (1,)
        assert _frobenius_rows(K, f) == _walked_frobenius_rows(K, f), (q, f)


@pytest.mark.parametrize("q", [257, 343, 625, 729, 1024])
def test_inverse_above_the_table_size(q):
    # above q = 256 an inverse is computed, not looked up (by pow for a prime
    # q): every product with it is 1, and for a sample a scan of every
    # candidate finds it alone
    K = field(q)
    assert all(K.mul(a, K.inv(a)) == 1 for a in range(1, q))
    for a in random.Random(f"prodideals:inverse:{q}").sample(range(1, q), 6):
        assert [b for b in range(1, q) if K.mul(a, b) == 1] == [K.inv(a)]


def _reference_factor(K, f, small_irreducibles):
    """(irreducible, exponent) pairs of monic f by trial division over the
    irreducibles of degree <= deg(f)/2, in (degree, code) order."""
    out = []
    for g in small_irreducibles:
        if 2 * deg(g) > deg(f):
            break
        e = 0
        while True:
            quot, rem = pdivmod(K, f, g)
            if rem:
                break
            f, e = quot, e + 1
        if e:
            out.append((g, e))
    if deg(f) >= 1:
        out.append((f, 1))
    return out


@pytest.mark.parametrize("q,max_deg", [(2, 6), (3, 6), (4, 6), (5, 4), (7, 4), (8, 4), (9, 4)])
def test_factor_and_rabin_match_trial_division(q, max_deg):
    K = field(q)
    small = []  # irreducibles of degree <= max_deg // 2, found by trial division
    for d in range(0, max_deg + 1):
        for f in all_monic(K, d):
            want = _reference_factor(K, f, small)
            assert factor_monic(K, f) == want
            irreducible = want == [(f, 1)]
            assert is_irreducible(K, f) == irreducible
            if irreducible and 2 * d <= max_deg:
                small.append(f)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_irreducible_counts_match_gauss(q):
    K = field(q)
    max_deg = max(d for d in range(1, 9) if q**d <= 2**16)
    counts = [0] * (max_deg + 1)
    for f in irreducibles_up_to(K, max_deg):
        counts[deg(f)] += 1
    assert counts[1:] == [_necklace_count(q, n) for n in range(1, max_deg + 1)]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 16])
def test_sieve_matches_rabin_in_code_order(q):
    # the XOR sieve (characteristic 2) and the product sieve (otherwise),
    # element for element and in (degree, code) order
    K = field(q)
    max_deg = max(d for d in range(1, 13) if q**d <= 2**12)
    rabin = [f for d in range(1, max_deg + 1) for f in all_monic(K, d) if is_irreducible(K, f)]
    for d in range(1, max_deg + 1):
        assert irreducibles_up_to(K, d) == [f for f in rabin if deg(f) <= d]


def test_field_moduli_pinned():
    # The first irreducible in base-p code order; element codes depend on it.
    moduli = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1),
              25: (2, 0, 1), 27: (1, 2, 0, 1), 49: (1, 0, 1)}
    for q, modulus in moduli.items():
        assert field(q).modulus == modulus


def test_poly_str():
    assert poly_str((1, 1)) == "x+1"
    assert poly_str((0, 1, 1)) == "x^2+x"
    assert poly_str(()) == "0"
    assert poly_str((2, 0, 3)) == "3*x^2+2"


def test_all_monic_order():
    K = field(2)
    assert list(all_monic(K, 1)) == [(0, 1), (1, 1)]
    assert list(all_monic(K, 2))[0] == (0, 0, 1)
