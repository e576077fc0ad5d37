"""Brute-force ideal enumeration for finite products of residue rings.

This is the independent verification harness: it works at the level of
residue sets and never consults ultrafilter machinery.  Elements are residue
tuples.  Each step works per coordinate, so it costs the sum of the
coordinate sizes, not their product: an ideal of a finite product is the
product of its parts, as ``a = sum a*e_i`` over the idempotents ``e_i``.

Ideals.  Every ideal is the product of its parts (above), and each part is an
additive subgroup of the cyclic group ``Z/n_j``.  A subgroup of a cyclic
group is cyclic, so each part is generated by one residue ``a`` and is the
principal ideal ``(a)``.  So the ideals are exactly the products of each
coordinate's distinct principal ideals, and no closure under sums can add
one.  Each principal ideal is stepped once, ``0, a, 2a, ...`` back to 0.
Its generators are exactly the ``k*a`` with ``k`` coprime to the orbit
length (a group fact about the multiplier, not a test on the residue); they
are all marked covered, so no subgroup is listed twice.  Maximal ideals are
the maximal elements among proper ideals.

Primality.  ``a*b`` lies in the ideal iff ``a_i*b_i`` lies in the part ``I_i``
at every coordinate.  So a non-member ``a``, with ``a_k`` outside ``I_k``, has
a non-member partner ``b`` with ``a*b`` inside iff at some coordinate ``j``
the value ``a_j`` escapes: some ``y`` outside ``I_j`` has ``a_j*y`` in ``I_j``
(take ``b`` zero elsewhere).  For ``j != k`` the values at ``j`` and ``k`` are
independent; for ``j == k`` they are one value outside ``I_j``.  So each
coordinate is scanned once: for a proper part, for an escaping value, and for
an escaping value outside the part.  Whether ``x`` escapes is memoised under
``gcd(x, n_j)``: ``x`` and the gcd generate the same ideal of ``Z/n_j``.  The
flags of one (modulus, part) pair are computed once per ``oracle_run``.

Parts, not elements.  Every part contains 0, so a product of parts is
nonempty and determines its parts: two ideals are equal exactly when their
parts are.  ``oracle_run`` reports the maximal and prime ideals as
``OracleIdeal``s; their element sets (``OracleReport.maximal`` and
``primes``) are built only when read.  ``descriptor_parts`` asks the
membership predicate once per value at each coordinate, with 0 elsewhere;
``descriptor_elements`` is the product of those parts.

The module uses the standard library only.  The all-pairs scan over a
membership predicate that cross-checks descriptor primality, and needs numpy,
lives with the tests (``tests/conftest.py``).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

from .errors import BudgetExceeded, UnsupportedRing
from .record import Record
from .rings import DEFAULT_ORACLE_BUDGET, ResidueRing

ORACLE_IDEAL_CLOSURE = "oracle:ideal-closure"


class OracleIdeal(Record):
    """An ideal of a finite product ring, as per-coordinate residue sets."""

    moduli: tuple
    parts: tuple  # one frozenset of residues per coordinate

    @property
    def is_proper(self) -> bool:
        return any(len(p) != n for p, n in zip(self.parts, self.moduli))

    def issubset(self, other: "OracleIdeal") -> bool:
        return all(a <= b for a, b in zip(self.parts, other.parts))

    def elements(self) -> frozenset:
        return frozenset(itertools.product(*(sorted(p) for p in self.parts)))


def _orbit_tables(moduli):
    # per coordinate, the distinct principal subgroups of Z/n as frozensets,
    # each stepped once from 0, in the order of their sorted residues; equal
    # moduli share one list
    tables = {}
    for n in set(moduli):
        tables[n], covered = [], set()
        for a in range(n):
            if a not in covered:
                orbit, x = [0], a
                while x:
                    orbit.append(x)
                    x = (x + a) % n
                tables[n].append(frozenset(orbit))
                covered.update(kx for k, kx in enumerate(orbit)
                               if math.gcd(k, len(orbit)) == 1)
        tables[n].sort(key=sorted)
    return [tables[n] for n in moduli]


def all_ideals(moduli: Sequence[int], budget: int = DEFAULT_ORACLE_BUDGET) -> list:
    """Every ideal of the product of residue rings: the products of each
    coordinate's principal ideals, which is all of them because every
    ideal is the product of its parts and every part, a subgroup of a cyclic
    group, is principal.  Exact and exhaustive; raises BudgetExceeded when
    the ring has more than ``budget`` elements.
    """
    moduli = tuple(int(n) for n in moduli)
    size = math.prod(moduli)
    if size > budget:
        raise BudgetExceeded(f"ring has {size} elements (budget {budget})")
    # ordered by the tuple of sorted parts, as each table is
    return [OracleIdeal(moduli, parts) for parts in itertools.product(*_orbit_tables(moduli))]


def maximal_ideals(ideals: Sequence[OracleIdeal]) -> list:
    """Maximal elements among the proper ideals, by pairwise inclusion.  An
    ideal lies only in ideals with at least as many elements, so it is
    tested against those alone, the largest first."""
    proper = [(math.prod(map(len, i.parts)), i) for i in ideals if i.is_proper]
    by_size = sorted(proper, key=lambda pair: pair[0], reverse=True)
    out = []
    for size, i in proper:
        larger = itertools.takewhile(lambda pair: pair[0] >= size, by_size)
        if not any(i is not j and i.issubset(j) for _, j in larger):
            out.append(i)
    return out


def _escape_flags(n: int, part: frozenset):
    """(part is proper, some x escapes, some x outside part escapes) at one
    coordinate; x escapes when some y outside part has x*y inside."""
    outside = [y for y in range(n) if y not in part]
    memo = {}  # gcd(x, n) -> whether x escapes

    def escapes(x):
        g = math.gcd(x, n)
        if g not in memo:  # some (g*y) % n lies in part, scanned at C level
            memo[g] = not part.isdisjoint(map(n.__rmod__, map(g.__mul__, outside)))
        return memo[g]
    return bool(outside), any(map(escapes, range(n))), any(map(escapes, outside))


def is_prime_ideal(ideal: OracleIdeal, memo=None) -> bool:
    """Definition-level primality: no two non-members multiply into the
    ideal, decided by the coordinatewise reduction in the module docstring.
    ``memo``, a dict the caller keeps, shares the flags of each (modulus,
    part) pair between the ideals of one run."""
    if not ideal.is_proper:
        return False
    memo = {} if memo is None else memo
    flags = []
    for key in zip(ideal.moduli, ideal.parts):
        if key not in memo:
            memo[key] = _escape_flags(*key)
        flags.append(memo[key])
    proper = sum(f[0] for f in flags)  # coordinates with a proper part
    # j == k: a value outside I_j escapes; j != k: a proper part beside j
    return not any(outside_j or (any_j and proper > proper_j)
                   for proper_j, any_j, outside_j in flags)


def _element_sets(ideals) -> tuple:
    return tuple(sorted((i.elements() for i in ideals), key=sorted))


class OracleReport(Record):
    """The oracle's findings; ``maximal`` and ``primes`` are the element sets
    of the marked ideals, sorted, and are built when first read."""

    moduli: tuple
    ideal_count: int
    maximal_ideals: tuple  # OracleIdeals
    prime_ideals: tuple    # OracleIdeals, or None when not marked

    @functools.cached_property
    def maximal(self) -> tuple:
        return _element_sets(self.maximal_ideals)

    @functools.cached_property
    def primes(self):
        return None if self.prime_ideals is None else _element_sets(self.prime_ideals)


def oracle_run(components, budget: int = DEFAULT_ORACLE_BUDGET,
               mark_primes: bool = True) -> OracleReport:
    """Enumerate all ideals of a finite product of residue rings and mark
    the maximal and (optionally) the prime ones."""
    moduli = []
    for comp in components:
        if isinstance(comp, ResidueRing):
            moduli.append(comp.modulus)
        elif isinstance(comp, int):
            moduli.append(comp)
        else:
            raise UnsupportedRing(
                f"the oracle handles residue rings only, got {comp!r}")
    moduli = tuple(moduli)
    ideals = all_ideals(moduli, budget)
    primes = None
    if mark_primes:
        memo = {}
        primes = tuple(i for i in ideals if is_prime_ideal(i, memo))
    return OracleReport(moduli, len(ideals), tuple(maximal_ideals(ideals)), primes)


def descriptor_parts(ideal) -> tuple:
    """The parts of a descriptor-backed ideal of a finite residue product,
    one frozenset of residues per coordinate, for comparison against the
    parts of oracle ideals."""
    from .products import ProductElement, ideal_member
    product = ideal.product
    if not all(isinstance(ring, ResidueRing) for ring in product.components):
        raise UnsupportedRing("finite residue products only")
    zeros = tuple(ring.element(0) for ring in product.components)

    def member_at(i, v):  # the element with v at i and 0 elsewhere
        entries = zeros[:i] + (product.components[i].element(v),) + zeros[i + 1:]
        return ideal_member(ideal, ProductElement(product, entries))
    return tuple(frozenset(v for v in range(ring.modulus) if member_at(i, v))
                 for i, ring in enumerate(product.components))


def descriptor_elements(ideal) -> frozenset:
    """A descriptor-backed ideal of a finite residue product as an element
    set: the product of its parts."""
    return frozenset(itertools.product(*descriptor_parts(ideal)))
