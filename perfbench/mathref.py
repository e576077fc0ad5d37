"""Reference arithmetic for the benchmark's inputs and correctness checks.

Everything here is written from the definitions and shares no code with
``prodideals``: a sieve for primes, Miller-Rabin for large primes, the
Moebius-function count of monic irreducibles, and dense polynomial
arithmetic over a prime field.  The generator builds every input from known
prime or irreducible factors, so the expected answers follow from these.
"""

from __future__ import annotations

import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_upto(n: int) -> list:
    """Primes <= n by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases; exact below 3.1e23."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def factorize(n: int) -> dict:
    """{prime: exponent} of a small positive n, by division with sieve primes."""
    out = {}
    for p in primes_upto(math.isqrt(n) + 1):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_count(n: int) -> int:
    return math.prod(e + 1 for e in factorize(n).values())


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n))


def mobius(n: int) -> int:
    f = factorize(n) if n > 1 else {}
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def irreducible_count(q: int, d: int) -> int:
    """Gauss: monic irreducibles of degree d over F_q = (1/d) sum mu(d/e) q^e."""
    total = sum(mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


# ---------------------------------------------------------------------------
# Polynomials over F_p as ascending coefficient tuples, p prime


def ptrim(f) -> tuple:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def pmul(p: int, f, g) -> tuple:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return ptrim(out)


def monic_irreducibles(p: int, max_deg: int) -> list:
    """Monic irreducibles of degree <= max_deg over F_p, in (degree, code)
    order, by crossing out every product of two monic factors."""
    by_deg = {d: [_monic(p, d, c) for c in range(p**d)] for d in range(1, max_deg + 1)}
    reducible = set()
    for a in range(1, max_deg // 2 + 1):
        for b in range(a, max_deg - a + 1):
            for f in by_deg[a]:
                for g in by_deg[b]:
                    reducible.add(pmul(p, f, g))
    return [f for d in range(1, max_deg + 1) for f in by_deg[d] if f not in reducible]


def _monic(p: int, d: int, code: int) -> tuple:
    coeffs = []
    for _ in range(d):
        code, c = divmod(code, p)
        coeffs.append(c)
    return tuple(coeffs) + (1,)
