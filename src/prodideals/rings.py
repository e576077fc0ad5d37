"""The catalog of component rings: exact arithmetic, maximal ideals, valuations.

Four kinds are supported, all of finite character (every nonzero element lies
in finitely many maximal ideals):

* ``IntegerRing()``          -- the integers; maximal ideals (p), infinitely many.
* ``ResidueRing(n)``         -- integers mod n >= 2; maximal ideals (p) for p | n.
* ``LocalizedIntegersRing(S)`` -- integers localized so that the maximal ideals
  are exactly (p) for p in the finite prime set S (a semilocal PID); elements
  are fractions whose denominator is coprime to every prime of S.
* ``PolynomialRing(q)``      -- polynomials over the field with q elements;
  maximal ideals generated by monic irreducibles, infinitely many.

Every ring-kind decision is a member of ``RingHandle``.  The kind facts are
class constants: ``spectrum_finite``, ``is_domain`` and ``dimension``,
the Krull dimension, which is 0 for ``Z/n`` and 1 for the other kinds.  The
module functions that treat ``Z/n`` apart ask for ``dimension == 0``, not for
``is_domain``: a field ``Z/p`` is a domain of dimension 0.  Every kind has its
own ``short_name`` and ``normalize``.  The other members default to the
integer forms (raw ``int`` or ``Fraction`` values, whose sums, negations and
products ``normalize`` reduces, each listed generator its own raw value, and
(p) contains a value when p divides its numerator) and to a finite spectrum,
the ideals (p) for p in ``primes``: ``max_ideal`` refuses any other p with
the kind's ``_max_ideal_refusal``, and a unit lies in none of them (on an
infinite spectrum, a unit's normal associate is one).  ``_first_generator``
(``primes[0]`` by default) generates the smallest maximal ideal and is the
nonzero nonunit unless it is zero (a field).  A kind overrides them where it
differs, and lists its generators by ``generator_key`` (``generators_up_to``,
and ``maximal_ideals_up_to`` as records), the one listing order:

* ``IntegerRing``: an infinite spectrum, ``_first_generator`` 2, ``max_ideal``
  (a primality test), ``generators_up_to`` (a sieve), ``_prime_divisors``.
* ``ResidueRing``: ``dimension`` 0, ``is_domain`` (n is prime), ``primes``
  (those dividing n), ``normalize`` mod n, ``_max_ideal_refusal`` and
  ``_generator_raws`` (reduced mod n, so a field's generator is zero).
* ``LocalizedIntegersRing``: ``normalize`` (an integral value is an
  ``int``, any other a ``Fraction``); ``primes`` is S; ``_max_ideal_refusal``
  and ``_cover``.
* ``PolynomialRing``: an infinite spectrum, ``_first_generator`` x;
  coefficient tuples as raw values, with their arithmetic, ``_in_max_ideal``
  and Euclidean hooks; ``max_ideal`` (an irreducibility test),
  ``generators_up_to`` and ``_prime_divisors`` (factoring).

The Euclidean algorithms are written once, over these hooks: the extended
gcd ``_xgcd``, ``crt_solve`` (over ``ZZ`` it builds the strong separation
witnesses of ``properties``), the Bezout chain of ``bezout_certificate``,
``valuation`` and ``RingHandle.vset``.  The hooks are
``_divmod`` (Euclidean division), ``_normal`` (the unit making a value
non-negative or monic, and that normal associate), ``_mod`` (the canonical
residue, inverting a fraction's denominator), ``_cover`` (the associate
that enters a chain, with its unit: the S-part over ``Z_(S)``, the value
itself elsewhere) and ``_prime_divisors`` (the generators of the maximal
ideals containing a nonzero value).  Chains run on covers, which are
integers or coefficient tuples; ``_add``, ``_neg`` and ``_mul`` work on
them too.

Subsets of a maximal spectrum are carried as ``FinCofSet`` values: an explicit
finite set, or the complement of one.  For rings with finite spectrum the
cofinite form normalizes away, so equality of sets is equality of values.

Integer primality is deterministic Miller-Rabin (``is_prime_int``), integer
factorization budgeted trial division (``prime_factors``), and the primes up
to a bound one sieve (``primes_up_to``); the ``Fq[x]`` forms live in ``fqpoly``.

A process that meets only integer values loads neither ``fqpoly`` nor
``fractions``: the module binds ``fqpoly`` when the first ``PolynomialRing``
is made, and ``Fraction`` when ``Z`` or ``Z_(S)`` is given a value that is not
an ``int``, or a ``Z_(S)`` chain takes the unit of a cover.  Integer values
carry ``numerator`` and ``denominator`` too, so the integer forms need no
``Fraction`` test.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Iterable, Sequence

from .errors import (
    BudgetExceeded,
    FactorizationBudgetExceeded,
    InconsistentInput,
    NotUnitIdeal,
    UnsupportedRing,
)
from .record import Record, set_field
from .values import INF

#: Trial-division limit for integer factorization, and the largest value
#: bound for listing integer primes.
DEFAULT_FACTOR_BUDGET = 1_000_000

#: Size budget of the brute-force oracle's ideal enumeration (``oracle``).
DEFAULT_ORACLE_BUDGET = 10_000

NOT_MAX_IDEAL = "{} is not a maximal ideal of {}"
NOT_INT = "not an integer: {!r}"

#: The strong-pseudoprime bound psi_13 (Sorenson and Webster, "Strong
#: pseudoprimes to twelve prime bases", Math. Comp. 86, 2017): below it,
#: Miller-Rabin to the 13 prime bases 2..41 decides primality exactly.
MILLER_RABIN_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# bound on first use (see the module docstring)
fqpoly = Fraction = None


def _load_fraction():
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return Fraction


@functools.lru_cache(maxsize=4096)
def is_prime_int(n: int) -> bool:
    """Whether the integer n is prime, by deterministic Miller-Rabin.

    A composite verdict is always proven.  A number at or above
    ``MILLER_RABIN_LIMIT`` that passes every base raises
    FactorizationBudgetExceeded, because there the test is not a proof; an
    error is not cached, so it raises on every call.  The verdicts are
    cached, since a scenario names the same generators again and again.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_LIMIT:
        raise FactorizationBudgetExceeded(
            f"{n} passes Miller-Rabin to the bases 2..41 but is not below "
            f"{MILLER_RABIN_LIMIT}, where that test is proven")
    return True


def primes_up_to(bound: int) -> Iterable[int]:
    """The primes p <= bound in ascending order, by a Sieve of Eratosthenes
    over the odd numbers (index i stands for 2i + 1), after 2."""
    if bound < 2:
        return iter(())
    sieve = bytearray([1]) * ((bound + 1) // 2)
    sieve[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if sieve[i]:
            p, start = 2 * i + 1, 2 * i * (i + 1)  # p * p stands at index 2i(i + 1)
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    return itertools.chain((2,), itertools.compress(range(1, bound + 1, 2), sieve))


@functools.lru_cache(maxsize=21)
def _sieved_primes(bits: int) -> tuple:
    # the primes below 2**bits, never past DEFAULT_FACTOR_BUDGET; bits <= 20
    # (one entry each), so all entries together are about twice the largest
    return tuple(primes_up_to(min(1 << bits, DEFAULT_FACTOR_BUDGET)))


def _trial_divisors(lo: int, hi: int):
    """Every prime p with lo < p <= hi in ascending order: the sieved primes,
    then the odd numbers above the sieve (those that are composite never
    divide, since their prime factors were divided out first)."""
    primes = _sieved_primes(min(hi, DEFAULT_FACTOR_BUDGET).bit_length())
    return itertools.chain(
        itertools.islice(primes, bisect.bisect_right(primes, lo), None),
        range(max(DEFAULT_FACTOR_BUDGET + 1, (lo + 1) | 1), hi + 1, 2))


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, by Newton's iteration from above."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _cube_root_stop(m: int) -> int:
    # past the cube root of m at most two primes remain; above the range
    # where Miller-Rabin is proven, trial division runs to the square root
    return iroot(m, 3) if m < MILLER_RABIN_LIMIT else math.isqrt(m)


def _divide_out(m: int, out: list, lo: int, budget: int, root) -> tuple:
    """Divide m by every prime p with lo < p <= min(budget, root(m)), the
    limit shrinking with m, appending each p that divides to out; returns
    the cofactor and the final limit."""
    stop = min(budget, root(m))
    for p in _trial_divisors(lo, stop):
        if p > stop:
            break
        if m % p == 0:
            out.append(p)
            m //= p
            while m % p == 0:
                m //= p
            stop = min(budget, root(m))
    return m, stop


@functools.lru_cache(maxsize=4096)
def prime_factors(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> tuple:
    """Distinct prime factors of |n| in ascending order.

    The budget contract is that of trial division by 2 and the odd numbers
    up to ``budget``: let m be |n| with every prime <= budget divided out,
    and f_end the first such candidate above the budget (2 for a budget
    below 2, 3 for a budget of 2, else ``(budget + 1) | 1``).  The call
    succeeds iff m == 1 or m is a prime below f_end**2, and otherwise raises
    FactorizationBudgetExceeded naming the cofactor m, with the primes
    divided out as its ``divisors``.

    The work is trial division by the primes up to min(budget, cube root of
    the cofactor), which leaves at most two prime factors; that cofactor is
    1, a prime (deterministic Miller-Rabin, ``is_prime_int``) or a
    square, and otherwise trial division goes on up to min(budget, square
    root of the cofactor).
    """
    n = abs(n)
    if n <= 1:
        return ()
    out = []
    m, stop = _divide_out(n, out, 1, budget, _cube_root_stop)
    # every prime <= stop is divided out of m, so an m below (stop + 1)**2 is
    # 1 or a prime; otherwise stop is the cube root of m, which then has at
    # most two prime factors
    if stop < budget and m >= (stop + 1) ** 2 and not is_prime_int(m):
        s = math.isqrt(m)
        if s * s != m:
            m, _ = _divide_out(m, out, stop, budget, math.isqrt)
        elif s <= budget:
            m = s
    if m > 1:
        f_end = 2 if budget < 2 else 3 if budget == 2 else (budget + 1) | 1
        if m >= f_end * f_end:
            raise FactorizationBudgetExceeded(
                f"cofactor {m} not certified prime within trial budget {budget}", out)
        out.append(m)
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _primitive_power(n: int):
    """Write n = c**e with maximal e (so c is not a proper power).

    n is a proper power exactly when it is a p-th power for a prime p below
    its bit length, and then c**e = r**p for its p-th root r, whose own
    primitive power is c**(e/p); so one root is taken per prime until one is
    exact, and the search goes on from that root.
    """
    for p in primes_up_to(n.bit_length() - 1):
        r = iroot(n, p)
        if r**p == n:
            c, e = _primitive_power(r)
            return c, e * p
    return n, 1


# ---------------------------------------------------------------------------
# Handles, elements, maximal ideals


class RingHandle:
    """Base class of the catalog; instances are immutable and hashable.

    The catalog classes list ``Record`` before ``RingHandle``, so their
    ``repr`` is the record form, ``ResidueRing(modulus=12)``.  The module
    docstring says which members each kind overrides.
    """

    # the kind facts; dimension is the Krull dimension
    spectrum_finite = True
    is_domain = True
    dimension = 1

    # -- structure ----------------------------------------------------------

    @property
    def short_name(self) -> str:
        raise NotImplementedError

    def maximal_spectrum(self) -> tuple:
        """The ideals (p) for p in ``primes``, on a finite spectrum."""
        if not self.spectrum_finite:
            raise UnsupportedRing(f"{self.short_name} has an infinite maximal spectrum")
        return self._spectrum

    @functools.cached_property
    def _spectrum(self) -> tuple:
        # built once per instance and kept outside the record fields, so
        # equality, hash and repr do not see it
        return tuple(MaxIdealId(self, p) for p in self.primes)

    def generators_up_to(self, bound: int) -> Sequence:
        return self.primes

    def maximal_ideals_up_to(self, bound: int) -> tuple:
        # the records of generators_up_to; a finite spectrum keeps its own
        if self.spectrum_finite:
            return self._spectrum
        return tuple(map(MaxIdealId, itertools.repeat(self), self.generators_up_to(bound)))

    def max_ideal(self, generator) -> "MaxIdealId":
        generator = _as_int(generator)
        if generator not in self.primes:
            raise InconsistentInput(self._max_ideal_refusal.format(generator, self))
        return MaxIdealId(self, generator)

    @property
    def _first_generator(self):
        # the generator of the smallest maximal ideal
        return self.primes[0]

    def smallest_max_ideal(self) -> "MaxIdealId":
        return MaxIdealId(self, self._first_generator)

    def nonzero_nonunit(self):
        """Some element that is neither zero nor a unit, or None (fields)."""
        elem = self.element(self._first_generator)
        return None if elem.is_zero else elem

    # -- raw element arithmetic ----------------------------------------------

    def normalize(self, value):
        raise NotImplementedError

    def _add(self, x, y):
        return self.normalize(x + y)

    def _neg(self, x):
        return self.normalize(-x)

    def _mul(self, x, y):
        return self.normalize(x * y)

    def _is_unit(self, x) -> bool:
        if not self.spectrum_finite:
            return self._normal(x)[1] == self._one_raw()
        return not any(self._in_max_ideal(x, p) for p in self.primes)

    def _zero_raw(self):
        return 0

    def _one_raw(self):
        return 1

    def _repr_raw(self, x) -> str:
        return str(x)

    def _in_max_ideal(self, raw, gen) -> bool:
        return raw.numerator % gen == 0

    # -- Euclidean hooks (see the module docstring) ----------------------------

    def _divmod(self, x, y):
        return divmod(x.numerator, y)

    def _normal(self, x):
        return (-1, -x) if x < 0 else (1, x)

    def _mod(self, x, m):
        return x.numerator * pow(x.denominator, -1, m) % m

    def _cover(self, x):
        return x, self._one_raw()

    def _prime_divisors(self, raw, budget: int):
        return [p for p in self.primes if self._in_max_ideal(raw, p)]

    # -- public element surface ----------------------------------------------

    def element(self, value) -> "RingElement":
        if isinstance(value, RingElement):
            if value.ring is not self and value.ring != self:
                raise UnsupportedRing(
                    f"element of {value.ring.short_name} used in {self.short_name}")
            return value
        return RingElement(self, self.normalize(value))

    def _generator_raws(self, generators) -> list:
        """The raw values of a list of listed, so normal, generators."""
        return generators

    @property
    def zero(self) -> "RingElement":
        return RingElement(self, self._zero_raw())

    @property
    def one(self) -> "RingElement":
        return RingElement(self, self._one_raw())

    def vset(self, elem, budget: int = DEFAULT_FACTOR_BUDGET) -> "FinCofSet":
        """The maximal ideals containing the element; all of them at zero."""
        raw = self.element(elem).raw
        if not raw:
            return FinCofSet.cofinite(self)
        return FinCofSet.finite(self, map(MaxIdealId, itertools.repeat(self),
                                          self._prime_divisors(raw, budget)))


class RingElement(Record):
    ring: RingHandle
    raw: object

    def __init__(self, ring, raw):
        set_field(self, "ring", ring)
        set_field(self, "raw", raw)

    @property
    def is_zero(self) -> bool:
        return self.raw == self.ring._zero_raw()

    @property
    def is_unit(self) -> bool:
        return self.ring._is_unit(self.raw)

    def __add__(self, other):
        other = self.ring.element(other)
        return RingElement(self.ring, self.ring._add(self.raw, other.raw))

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.raw))

    def __sub__(self, other):
        return self + (-self.ring.element(other))

    def __mul__(self, other):
        other = self.ring.element(other)
        return RingElement(self.ring, self.ring._mul(self.raw, other.raw))

    def __repr__(self):
        return f"{self.ring._repr_raw(self.raw)} in {self.ring.short_name}"


def generator_key(generator):
    """The listing order: integers by value, tuples by length, then value."""
    return (len(generator), generator) if isinstance(generator, tuple) else (0, generator)


class MaxIdealId(Record):
    """A maximal ideal, identified by its canonical generator."""

    ring: RingHandle
    generator: object

    def __init__(self, ring, generator):
        set_field(self, "ring", ring)
        set_field(self, "generator", generator)

    @property
    def sort_key(self):
        return generator_key(self.generator)

    def contains(self, elem: RingElement) -> bool:
        elem = self.ring.element(elem)
        return self.ring._in_max_ideal(elem.raw, self.generator)

    def __repr__(self):
        return f"({self.ring._repr_raw(self.generator)})"


# ---------------------------------------------------------------------------
# Finite / cofinite subsets of a maximal spectrum


class FinCofSet(Record):
    """A finite, or cofinite, set of maximal ideals of one ring.

    ``support`` lists the members (finite form) or the non-members
    (cofinite form).  Over a ring with finite spectrum the cofinite form is
    normalized away at construction, so value equality is set equality.
    """

    ring: RingHandle
    is_cofinite: bool
    support: frozenset

    def __init__(self, ring, is_cofinite, support):
        for m in support:
            if m.ring != ring:
                raise InconsistentInput(NOT_MAX_IDEAL.format(m, ring.short_name))
        if is_cofinite and ring.spectrum_finite:
            support = frozenset(set(ring.maximal_spectrum()) - support)
            is_cofinite = False
        set_field(self, "ring", ring)
        set_field(self, "is_cofinite", is_cofinite)
        set_field(self, "support", support)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def finite(cls, ring, ideals: Iterable[MaxIdealId]) -> "FinCofSet":
        return cls(ring, False, frozenset(ideals))

    @classmethod
    def cofinite(cls, ring, excluded: Iterable[MaxIdealId] = ()) -> "FinCofSet":
        return cls(ring, True, frozenset(excluded))

    @classmethod
    def empty(cls, ring) -> "FinCofSet":
        return cls(ring, False, frozenset())

    @classmethod
    def all(cls, ring) -> "FinCofSet":
        return cls(ring, True, frozenset())

    # -- predicates -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.is_cofinite and not self.support

    def __contains__(self, ideal: MaxIdealId) -> bool:
        return (ideal not in self.support) if self.is_cofinite else (ideal in self.support)

    def sorted_support(self) -> list:
        return sorted(self.support, key=lambda m: m.sort_key)

    # -- boolean operations -----------------------------------------------------

    def _check(self, other: "FinCofSet"):
        if self.ring != other.ring:
            raise InconsistentInput("sets over different rings")

    def intersection(self, other: "FinCofSet") -> "FinCofSet":
        self._check(other)
        a, b = self, other
        if not a.is_cofinite and not b.is_cofinite:
            return FinCofSet(self.ring, False, a.support & b.support)
        if not a.is_cofinite:
            return FinCofSet(self.ring, False, a.support - b.support)
        if not b.is_cofinite:
            return FinCofSet(self.ring, False, b.support - a.support)
        return FinCofSet(self.ring, True, a.support | b.support)

    def union(self, other: "FinCofSet") -> "FinCofSet":
        return self.complement().intersection(other.complement()).complement()

    def complement(self) -> "FinCofSet":
        return FinCofSet(self.ring, not self.is_cofinite, self.support)

    def issubset(self, other: "FinCofSet") -> bool:
        return self.intersection(other.complement()).is_empty

    def __repr__(self):
        names = ",".join(repr(m) for m in self.sorted_support())
        return f"Cof{{{names}}}" if self.is_cofinite else f"Fin{{{names}}}"


# ---------------------------------------------------------------------------
# The four catalog kinds


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(NOT_INT.format(value))
    return value


class IntegerRing(Record, RingHandle):
    spectrum_finite = False
    _first_generator = 2

    @property
    def short_name(self):
        return "Z"

    def normalize(self, value):
        if isinstance(value, int) or not isinstance(value, _load_fraction()):
            return _as_int(value)
        if value.denominator != 1:
            raise ValueError(f"{value} is not an integer")
        return int(value)

    def max_ideal(self, generator):
        generator = _as_int(generator)
        if not is_prime_int(generator):
            raise InconsistentInput(f"{generator} is not prime")
        return MaxIdealId(self, generator)

    def generators_up_to(self, bound: int):
        """The primes p <= bound, by a Sieve of Eratosthenes.

        Raises BudgetExceeded, before allocating the sieve, when the bound is
        above ``DEFAULT_FACTOR_BUDGET``.
        """
        if bound > DEFAULT_FACTOR_BUDGET:
            raise BudgetExceeded(
                f"prime bound {bound} exceeds the enumeration cap {DEFAULT_FACTOR_BUDGET}")
        return list(primes_up_to(bound))

    def _prime_divisors(self, raw, budget):
        return prime_factors(raw, budget)


class ResidueRing(Record, RingHandle):
    modulus: int

    dimension = 0
    _max_ideal_refusal = "{} is not a prime divisor of {.modulus}"

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")

    @property
    def is_domain(self):
        return is_prime_int(self.modulus)

    @property
    def short_name(self):
        return f"Z/{self.modulus}"

    @functools.cached_property
    def primes(self):
        return prime_factors(self.modulus)

    def normalize(self, value):
        return _as_int(value) % self.modulus

    def _generator_raws(self, generators):
        return [p % self.modulus for p in generators]


class LocalizedIntegersRing(Record, RingHandle):
    """Integers localized to have maximal spectrum {(p) : p in primes}."""

    primes: tuple

    _max_ideal_refusal = "{} is not in the prime set"

    def __post_init__(self):
        ps = tuple(sorted(set(int(p) for p in self.primes)))
        if not ps:
            raise ValueError("prime set must be nonempty")
        for p in ps:
            if not is_prime_int(p):
                raise ValueError(f"{p} is not prime")
        set_field(self, "primes", ps)

    @property
    def short_name(self):
        return "Z_(" + ",".join(str(p) for p in self.primes) + ")"

    def normalize(self, value):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            try:
                value = _load_fraction()(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator: {value!r}") from None
        if not isinstance(value, _load_fraction()):
            raise ValueError(f"not a fraction: {value!r}")
        for p in self.primes:
            if value.denominator % p == 0:
                raise ValueError(
                    f"denominator of {value} is not invertible here (divisible by {p})")
        return value.numerator if value.denominator == 1 else value

    def _cover(self, x):
        # the S-part m of the numerator, and the exact unit m/x (1 at zero)
        m, n = 1, abs(x.numerator)
        if n == 0:
            return 0, 1
        for p in self.primes:
            while n % p == 0:
                n //= p
                m *= p
        return m, _load_fraction()(m) / x


class PolynomialRing(Record, RingHandle):
    """Polynomials over the field with q elements."""

    q: int

    spectrum_finite = False
    _first_generator = (0, 1)

    def __post_init__(self):
        global fqpoly
        if fqpoly is None:
            from . import fqpoly
        if fqpoly.prime_power(self.q) is None:
            raise ValueError(f"{self.q} is not a prime power")

    @functools.cached_property
    def K(self) -> fqpoly.GF:
        # looked up once per instance, outside the record fields like _spectrum
        return fqpoly.field(self.q)

    @property
    def short_name(self):
        return f"F{self.q}[x]"

    def normalize(self, value):
        if isinstance(value, int) and not isinstance(value, bool):
            value = (value,)
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"not a coefficient sequence: {value!r}")
        coeffs = tuple(int(c) for c in value)
        for c in coeffs:
            if not 0 <= c < self.q:
                raise ValueError(f"coefficient {c} out of range for F{self.q}")
        return fqpoly.trim(coeffs)

    def _add(self, x, y):
        return fqpoly.padd(self.K, x, y)

    def _neg(self, x):
        return fqpoly.pneg(self.K, x)

    def _mul(self, x, y):
        return fqpoly.pmul(self.K, x, y)

    def _zero_raw(self):
        return ()

    def _one_raw(self):
        return (1,)

    def _repr_raw(self, x):
        return fqpoly.poly_str(x)

    def max_ideal(self, generator):
        gen = self.normalize(generator)
        if not gen or gen[-1] != 1 or not fqpoly.is_irreducible(self.K, gen):
            raise InconsistentInput(
                f"{fqpoly.poly_str(gen)} is not monic irreducible over F{self.q}")
        return MaxIdealId(self, gen)

    def generators_up_to(self, bound: int):
        """The monic irreducibles of degree <= bound, by ``generator_key``
        (the sieve lists them by (degree, code)).

        Raises BudgetExceeded, before any table is built, when q**bound is
        above ``fqpoly.DEFAULT_POLY_BUDGET``.
        """
        cap = fqpoly.DEFAULT_POLY_BUDGET
        # q**e > cap for e = cap.bit_length(), so the power stays small
        if self.q ** min(bound, cap.bit_length()) > cap:
            raise BudgetExceeded(
                f"degree bound {bound} needs {self.q}**{bound} candidates, "
                f"above the enumeration cap {cap}")
        return sorted(fqpoly.irreducibles_up_to(self.K, bound), key=generator_key)

    def _in_max_ideal(self, raw, gen):
        return not fqpoly.pmod(self.K, raw, gen)

    def _divmod(self, x, y):
        return fqpoly.pdivmod(self.K, x, y)

    def _normal(self, x):
        lead, f = fqpoly.monic(self.K, x)
        return (self.K.inv(lead),), f

    def _mod(self, x, m):
        return fqpoly.pmod(self.K, x, m)

    def _prime_divisors(self, raw, budget):
        budget = min(budget, fqpoly.DEFAULT_POLY_BUDGET)
        return [g for g, _ in fqpoly.factor_monic(self.K, self._normal(raw)[1], budget)]


#: Convenient shared handle for the integers.
ZZ = IntegerRing()


# ---------------------------------------------------------------------------
# Module-level operation surface


def vset(ring: RingHandle, elem, budget: int = DEFAULT_FACTOR_BUDGET) -> FinCofSet:
    """The maximal ideals containing the element."""
    return ring.vset(elem, budget)


def dset(ring: RingHandle, elem) -> FinCofSet:
    """The maximal ideals avoiding the element (complement of vset)."""
    return ring.vset(elem).complement()


def vset_pair(ring: RingHandle, a, b) -> FinCofSet:
    """The maximal ideals containing the ideal generated by both elements."""
    covers = (ring._cover(ring.element(e).raw)[0] for e in (a, b))
    return ring.vset(ring.element(_xgcd(ring, *covers)[0]))


def _check_valued(ring: RingHandle):
    if ring.dimension == 0:
        raise UnsupportedRing(f"{ring.short_name} carries no discrete valuations")


def valuation(ring: RingHandle, elem, ideal: MaxIdealId):
    """Exact exponent of the ideal's generator in the element; INF at zero."""
    if ideal.ring != ring:
        raise InconsistentInput(NOT_MAX_IDEAL.format(ideal, ring.short_name))
    _check_valued(ring)
    raw, v = ring.element(elem).raw, 0
    if not raw:
        return INF
    while True:
        raw, r = ring._divmod(raw, ideal.generator)
        if r:
            return v
        v += 1


def _xgcd(ring: RingHandle, a, b) -> tuple:
    """Extended Euclid on two covers: (g, x, y) with x*a + y*b == g, and g
    normal (non-negative, or monic; zero when a and b are)."""
    add, neg, mul = ring._add, ring._neg, ring._mul
    zero, one = ring._zero_raw(), ring._one_raw()
    r0, r1, s0, s1, t0, t1 = a, b, one, zero, zero, one
    while r1:
        q, r = ring._divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, add(s0, neg(mul(q, s1)))
        t0, t1 = t1, add(t0, neg(mul(q, t1)))
    u, g = ring._normal(r0)
    return g, mul(u, s0), mul(u, t0)


def crt_solve(ring: RingHandle, congruences: Sequence) -> RingElement:
    """Solve r = residue_i mod ideal_i**exp_i over a PID-kind ring.

    ``congruences`` is a sequence of (MaxIdealId, exponent, residue) with
    pairwise distinct ideals.  The result is the canonical representative:
    smallest non-negative integer, or the remainder of least degree.
    """
    if ring.dimension == 0:
        raise UnsupportedRing("residue rings are not PID kinds here")
    gens = [m.generator for m, _, _ in congruences]
    if len(set(gens)) != len(gens):
        raise InconsistentInput("repeated maximal ideals in congruence list")
    for m, e, _ in congruences:
        if m.ring != ring:
            raise InconsistentInput(NOT_MAX_IDEAL.format(m, ring.short_name))
        if e < 0:
            raise InconsistentInput("exponents must be non-negative")
    add, neg, mul, mod = ring._add, ring._neg, ring._mul, ring._mod
    # covers, so the moduli are integers over Z_(S); zero and one are their own
    zero, one = ring._zero_raw(), ring._one_raw()
    x, modulus = zero, one
    for m, e, r in congruences:
        if e == 0:
            continue
        step = functools.reduce(mul, itertools.repeat(m.generator, e))
        r = mod(ring.element(r).raw, step)
        # solve x + modulus*t = r (mod step)
        g, u, _ = _xgcd(ring, modulus, step)
        if g != one:
            raise AssertionError(f"moduli {modulus} and {step} are not coprime")
        t = mod(mul(add(r, neg(x)), u), step)
        x = mod(add(x, mul(modulus, t)), mul(modulus, step))
        modulus = mul(modulus, step)
    return ring.element(x)


def bezout_certificate(ring: RingHandle, elems: Sequence,
                       budget: int = DEFAULT_FACTOR_BUDGET) -> list:
    """Coefficients c_i with sum(c_i * elems_i) == 1 exactly.

    One Bezout chain over the covers of the elements, each a unit w times its
    element (the modulus of Z/n joins last, and its coefficient is dropped);
    the gcd g is made normal at the end, and c_i is the chain's coefficient
    times the units.  Raises NotUnitIdeal when the elements do not generate
    the unit ideal, with a maximal ideal containing g as witness: the first
    prime divisor that factoring g finds, also when the rest of g lies past
    the factoring budget.
    """
    elems = [ring.element(e) for e in elems]
    if not elems:
        raise NotUnitIdeal(ring.smallest_max_ideal())
    covers, units = zip(*(ring._cover(e.raw) for e in elems))
    if ring.dimension == 0:
        covers += (ring.modulus,)
    one = ring._one_raw()
    g, coeffs = covers[0], [one]
    for m in covers[1:]:
        g, x, y = _xgcd(ring, g, m)
        coeffs = [ring._mul(c, x) for c in coeffs] + [y]
    u, g = ring._normal(g)
    if not g:
        raise NotUnitIdeal(ring.smallest_max_ideal())
    if g != one:
        try:
            divisors = ring._prime_divisors(g, budget)
        except FactorizationBudgetExceeded as exc:
            if not (divisors := exc.divisors):
                raise
        raise NotUnitIdeal(MaxIdealId(ring, divisors[0]))
    return [ring.element(ring._mul(ring._mul(c, u), w)) for c, w in zip(coeffs, units)]


def jacobson_radical_generator(ring: RingHandle) -> RingElement:
    """A generator of the intersection of all maximal ideals; zero over an
    infinite spectrum, since a nonzero element lies in finitely many."""
    if not ring.spectrum_finite:
        return ring.zero
    return ring.element(math.prod(m.generator for m in ring.maximal_spectrum()))
