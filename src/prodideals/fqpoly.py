"""Arithmetic for F_q and for polynomials over F_q.

Field elements are encoded as integers 0..q-1.  For q = p**k with k > 1 the
code is the base-p digit vector of a polynomial in a generator y, reduced
modulo a fixed monic irreducible of degree k over F_p (the first one in
base-p code order, so the encoding is deterministic).

The field operations are lookup tables for q <= 256, which the polynomial
loops index directly.

Polynomials over F_q are tuples of element codes in ascending degree with no
trailing zeros; () is the zero polynomial.  Everything is deterministic and
exact.  Factorization is distinct-degree factorization (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 14) driven by the Frobenius map
h -> h**q, with several factors of one degree split by trial division in
code order; irreducibility is Rabin's test (Rabin 1980); the irreducibles up
to a degree come from a sieve of products, whose codes are built by XOR in
characteristic 2.  Rabin's test and ``prime_power`` take the primality of
integers from ``rings.is_prime_int`` (deterministic Miller-Rabin).
``rings`` loads this module only when the first polynomial ring is made.
"""

from __future__ import annotations

import functools
import itertools

from .errors import FactorizationBudgetExceeded
from .rings import _primitive_power, is_prime_int

#: Cap on q**d while a degree-d factor may still need trial division, and
#: on q**bound when the irreducibles up to a degree bound are listed.
DEFAULT_POLY_BUDGET = 1 << 16


def prime_power(q: int):
    """Return (p, k) with q = p**k, or None if q is not a prime power."""
    if q < 2:
        return None
    c, e = _primitive_power(q)
    return (c, e) if is_prime_int(c) else None


def _digits(code: int, base: int, length: int):
    out = []
    for _ in range(length):
        code, r = divmod(code, base)
        out.append(r)
    return tuple(out)


def _undigits(t, base: int) -> int:
    out = 0
    for c in reversed(t):
        out = out * base + c
    return out


class _Computed:
    """Stands in for a lookup table too large to build: ``t[a]`` is ``fn(a)``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return self.fn(a)


class GF:
    """The field with q elements; element codes are ints in range(q).

    For q <= 256 the operations are lookup tables: ``_add_table[a][b]``,
    ``_sub_table``, ``_mul_table`` and the 1-D ``_neg_table`` and
    ``_inv_table``.  Above that the same names compute each entry on demand,
    so the polynomial loops index them the same way for every q.
    """

    def __init__(self, q: int):
        pk = prime_power(q)
        if pk is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.k = pk
        if self.k == 1:
            self.modulus = None
        else:
            self.modulus = self._find_modulus()
        if q <= 256:
            self._build_tables()
        else:
            def rows(op):
                return _Computed(lambda a: _Computed(functools.partial(op, a)))
            self._add_table = rows(self._add_slow)
            self._sub_table = rows(lambda a, b: self._add_slow(a, self._neg_slow(b)))
            self._mul_table = rows(self._mul_slow)
            self._neg_table = _Computed(self._neg_slow)
            self._inv_table = _Computed(self._inv_slow)

    def _find_modulus(self):
        p, k = self.p, self.k
        Fp = field(p)
        for code in range(p**k):
            cand = _digits(code, p, k) + (1,)
            if is_irreducible(Fp, cand):
                return cand
        raise AssertionError("no irreducible modulus found")

    def _build_tables(self):
        # Codes add digit-wise mod p: code = low digit + p * (higher digits),
        # so row a follows from row a // p, which is built before it.
        q, p = self.q, self.p
        codes = range(q)
        add = [list(codes)]
        neg = [0]
        for a in range(1, q):
            hi, lo = add[a // p], a % p
            add.append([(lo + b % p) % p + p * hi[b // p] for b in codes])
            neg.append((-lo) % p + p * neg[a // p])
        self._add_table = add
        self._neg_table = neg
        self._sub_table = [[row[n] for n in neg] for row in add]
        self._mul_table = [self._mul_row(a) for a in codes]
        self._inv_table = [0] + [row.index(1) for row in self._mul_table[1:]]

    def _mul_row(self, a: int):
        """Row a of the multiplication table, from the k products a*y^i.

        A code b >= p^i with top digit t at position i is r + t*p^i with
        r < p^i, so a*b = a*r + t*(a*y^i) reuses the entry for r.
        """
        add, p = self._add_table, self.p
        row = [0]
        a_yi = a
        for _ in range(self.k):
            multiple = a_yi
            size = len(row)
            for _t in range(1, p):
                row.extend([add[row[r]][multiple] for r in range(size)])
                multiple = add[multiple][a_yi]
            a_yi = self._mul_slow(a_yi, p)  # the code p is y
        return row

    # -- raw ops on codes ---------------------------------------------------

    def _add_slow(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        return _undigits([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)

    def _neg_slow(self, a: int) -> int:
        p = self.p
        return _undigits([(-x) % p for x in _digits(a, p, self.k)], p)

    def _mul_slow(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        Fp = field(p)
        prod = pmul(Fp, trim(_digits(a, p, k)), trim(_digits(b, p, k)))
        return _undigits(pmod(Fp, prod, self.modulus), p)

    def _inv_slow(self, a: int) -> int:
        # a**(q-1) == 1 for a != 0, so a**(q-2) is the inverse: by
        # square-and-multiply, log q multiplications
        if self.k == 1:
            return pow(a, -1, self.p)
        out, e = 1, self.q - 2
        while e:
            if e & 1:
                out = self._mul_slow(out, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return out

    def add(self, a: int, b: int) -> int:
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        return self._neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self._sub_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv_table[a]


@functools.lru_cache(maxsize=128)
def field(q: int) -> GF:
    return GF(q)


# ---------------------------------------------------------------------------
# Polynomials over F_q: tuples of codes, ascending degree, no trailing zeros.

def trim(t) -> tuple:
    t = list(t)
    while t and t[-1] == 0:
        t.pop()
    return tuple(t)


def deg(f) -> int:
    return len(f) - 1


def padd(K: GF, f, g):
    n = max(len(f), len(g))
    f = f + (0,) * (n - len(f))
    g = g + (0,) * (n - len(g))
    add = K._add_table
    return trim([add[a][b] for a, b in zip(f, g)])


def pneg(K: GF, f):
    neg = K._neg_table
    return tuple(neg[a] for a in f)


def psub(K: GF, f, g):
    return padd(K, f, pneg(K, g))


def pscale(K: GF, c: int, f):
    row = K._mul_table[c]
    return trim([row[a] for a in f])


def pmul(K: GF, f, g):
    if not f or not g:
        return ()
    add, mul = K._add_table, K._mul_table
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            row = mul[a]
            for j, b in enumerate(g, i):
                out[j] = add[out[j]][row[b]]
    return trim(out)


def pdivmod(K: GF, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    sub, mul = K._sub_table, K._mul_table
    f = list(f)
    dg = deg(g)
    by_inv_lead = mul[K.inv(g[-1])]
    low = g[:dg]
    quot = [0] * max(len(f) - dg, 0)
    for shift in range(len(f) - 1 - dg, -1, -1):
        c = by_inv_lead[f[shift + dg]]
        if c:
            quot[shift] = c
            row = mul[c]
            for j, b in enumerate(low, shift):
                f[j] = sub[f[j]][row[b]]
    return trim(quot), trim(f[:dg])


def pmod(K: GF, f, g):
    return pdivmod(K, f, g)[1]


def monic(K: GF, f):
    """Return (leading coefficient, monic associate)."""
    if not f:
        return 1, ()
    lead = f[-1]
    if lead == 1:
        return 1, f
    return lead, pscale(K, K.inv(lead), f)


def pgcd(K: GF, f, g):
    while g:
        f, g = g, pmod(K, f, g)
    return monic(K, f)[1]


def all_monic(K: GF, d: int):
    """Every monic polynomial of degree d, in code order."""
    for high_first in itertools.product(range(K.q), repeat=d):
        yield high_first[::-1] + (1,)


def _frobenius_rows(K: GF, f):
    """The residues x^(i*q) mod f for i < deg(f), f monic of degree >= 1.

    Since c**q == c for every c in F_q, (sum h_i x^i)**q = sum h_i x^(i*q),
    so h**q mod f is the combination of these rows with h's coefficients.
    x^q mod f comes by square-and-multiply, and each further row is the one
    before it times x^q mod f.
    """
    xq = (1,)
    for bit in bin(K.q)[2:]:
        xq = pmod(K, pmul(K, xq, xq), f)
        if bit == "1":
            xq = pmod(K, (0,) + xq, f)
    rows = [(1,)]
    for _ in range(deg(f) - 1):
        rows.append(pmod(K, pmul(K, rows[-1], xq), f))
    return rows


def _frobenius(K: GF, h, rows):
    """h**q mod f, for h reduced mod f and ``rows = _frobenius_rows(K, f)``."""
    add, mul = K._add_table, K._mul_table
    out = [0] * len(rows)
    for c, r in zip(h, rows):
        if c:
            row = mul[c]
            for i, b in enumerate(r):
                out[i] = add[out[i]][row[b]]
    return trim(out)


def _split_equal_degree(K: GF, g, d: int):
    """The factors of g, a product of distinct monic irreducibles of degree d.

    Every monic degree-d divisor of g is one of them, so trial division in
    code order finds them in (degree, code) order.
    """
    out = []
    for m in all_monic(K, d):
        if deg(g) == d:
            break
        quot, r = pdivmod(K, g, m)
        if not r:
            out.append(m)
            g = quot
    out.append(g)
    return out


def factor_monic(K: GF, f, budget: int = DEFAULT_POLY_BUDGET):
    """Factor a monic polynomial into monic irreducibles with multiplicity.

    Returns a list of (irreducible, exponent) sorted by (degree, code order).
    Distinct-degree factorisation: at degree d, with every factor of lower
    degree divided out of ``rest``, gcd(rest, x^(q^d) - x) is the product of
    the distinct degree-d irreducible factors, split by trial division when
    there are several.  While 2d <= deg(rest), a degree-d factor is still
    possible, and q**d above ``budget`` raises, as a scan of every degree-d
    trial divisor would.  The factorisations are cached as tuples, and each
    call gets a list of its own; an error is not cached, so it raises again.
    """
    return list(_factor_monic(K, f, budget))


@functools.lru_cache(maxsize=4096)
def _factor_monic(K: GF, f, budget: int) -> tuple:
    if not f or f[-1] != 1:
        raise AssertionError(f"{poly_str(f)} is not monic")
    x = (0, 1)
    factors = []
    rest, h, rows = f, x, None
    d = 1
    while 2 * d <= deg(rest):
        if K.q**d > budget:
            raise FactorizationBudgetExceeded(
                f"degree-{d} divisor scan needs {K.q**d} candidates (budget {budget})")
        if rows is None:
            rows = _frobenius_rows(K, rest)
            h = pmod(K, h, rest)
        h = _frobenius(K, h, rows)  # x^(q^d) mod rest
        g = pgcd(K, rest, psub(K, h, x))
        if deg(g) > 0:
            for p in _split_equal_degree(K, g, d):
                e = 0
                while True:
                    quot, r = pdivmod(K, rest, p)
                    if r:
                        break
                    rest = quot
                    e += 1
                factors.append((p, e))
            rows = None
        d += 1
    if deg(rest) >= 1:
        factors.append((rest, 1))
    factors.sort(key=lambda pair: (deg(pair[0]), _undigits(pair[0][:-1], K.q)))
    return tuple(factors)


@functools.lru_cache(maxsize=4096)
def is_irreducible(K: GF, f) -> bool:
    """Rabin's test: f of degree n is irreducible iff x^(q^n) = x mod f and
    gcd(f, x^(q^(n/r)) - x) = 1 for every prime r dividing n.  The verdicts
    are cached, since a scenario names the same generators again and again."""
    n = deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    _, f = monic(K, f)
    x = (0, 1)
    rows = _frobenius_rows(K, f)
    h = x
    for j in range(1, n):
        h = _frobenius(K, h, rows)  # x^(q^j) mod f
        if n % j == 0 and is_prime_int(n // j) and deg(pgcd(K, f, psub(K, h, x))) > 0:
            return False
    return _frobenius(K, h, rows) == x


def irreducibles_up_to(K: GF, max_deg: int):
    """All monic irreducibles of degree <= max_deg in (degree, code) order.

    A product sieve: the reducible monics of degree d are exactly the
    products h*g with h irreducible of degree e <= d/2 and g monic of degree
    d - e.  Their codes (of the d lower coefficients) are marked, and only
    the unmarked codes are decoded to tuples.  In
    characteristic 2 a code is the k-bit coefficient codes side by side, so
    a sum's code is the XOR of the codes: the products with h are the code
    of h*x^(d-e) XORed with every combination of the codes of c*h*x^j, for
    j < d - e and c in the basis 1, y, ..., y^(k-1) of F_q over F_2, a list
    that doubles once per basis element.  Other characteristics multiply
    each product out.
    """
    q = K.q
    found = []
    for d in range(1, max_deg + 1):
        reducible = bytearray(q**d)
        for h in found:
            e = deg(h)
            if 2 * e > d:
                break
            if K.p == 2:
                codes = [_undigits(h[:-1], q) * q**(d - e)]
                for j in range(d - e):
                    for c in (1 << b for b in range(K.k)):
                        shifted = _undigits([K._mul_table[c][a] for a in h], q) * q**j
                        codes += [code ^ shifted for code in codes]
            else:
                codes = (_undigits(pmul(K, h, g)[:-1], q) for g in all_monic(K, d - e))
            for code in codes:
                reducible[code] = 1
        found.extend(_digits(code, q, d) + (1,)
                     for code, marked in enumerate(reducible) if not marked)
    return found


def poly_str(f) -> str:
    if not f:
        return "0"
    parts = []
    for i in range(deg(f), -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            coeff = "" if c == 1 else f"{c}*"
            power = "x" if i == 1 else f"x^{i}"
            parts.append(f"{coeff}{power}")
    return "+".join(parts)
