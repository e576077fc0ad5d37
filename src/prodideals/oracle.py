"""Brute-force ideal enumeration for finite products of residue rings.

This is the independent verification harness: it works at the level of
element sets and never consults ultrafilter machinery.  Elements are residue
tuples.  Every ideal of the finite ring is reached by closing the principal
ideals under pairwise sums; a principal ideal is the set of multiples of its
generator, which over a product ring is the product of the per-coordinate
multiple sets (multipliers range independently over each factor).  The sum
of two such products is again computed coordinatewise, because sums also act
independently per coordinate.  Each coordinate part is an additive subgroup,
so ``pa + y`` depends only on the coset of ``y``: a sumset adds the coset of
every ``y`` not yet covered and skips the rest.  Sumsets are memoised per
coordinate for the length of one closure.  Maximal ideals are the maximal
elements among proper ideals.

Primality reduces coordinatewise.  ``a*b`` lies in the ideal iff
``a_i*b_i`` lies in the part ``I_i`` at every coordinate, and ``b`` lies
outside it iff ``b_j`` lies outside ``I_j`` at some coordinate.  So a
non-member ``a`` has a non-member partner ``b`` with ``a*b`` inside iff at
some coordinate ``j`` some ``y`` outside ``I_j`` has ``a_j*y`` in ``I_j``
(take ``b`` zero elsewhere).  ``is_prime_ideal`` scans the non-members for
one that escapes like this.  Whether ``x`` escapes at coordinate ``j`` is
memoised under ``gcd(x, n_j)``: ``x`` and the gcd generate the same ideal of
``Z/n_j``, so ``x*y`` and ``gcd*y`` lie in the same ideals for every ``y``.

The module uses the standard library only.  The all-pairs scan over a
membership predicate that cross-checks descriptor primality, and needs numpy,
lives with the tests (``tests/conftest.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import BudgetExceeded, UnsupportedRing
from .record import Record, set_field
from .rings import DEFAULT_ORACLE_BUDGET, ResidueRing


class OracleIdeal(Record):
    """An ideal of a finite product ring, as per-coordinate residue sets."""

    moduli: tuple
    parts: tuple  # one frozenset of residues per coordinate

    def __init__(self, moduli, parts):  # one per ring element in all_ideals
        set_field(self, "moduli", moduli)
        set_field(self, "parts", parts)

    @property
    def size(self) -> int:
        return math.prod(len(p) for p in self.parts)

    @property
    def is_proper(self) -> bool:
        return any(len(p) != n for p, n in zip(self.parts, self.moduli))

    def __contains__(self, elem) -> bool:
        return all(e in p for e, p in zip(elem, self.parts))

    def issubset(self, other: "OracleIdeal") -> bool:
        return all(a <= b for a, b in zip(self.parts, other.parts))

    def elements(self) -> frozenset:
        return frozenset(itertools.product(*(sorted(p) for p in self.parts)))

    def sorted_parts_key(self):
        return tuple(tuple(sorted(p)) for p in self.parts)


def _orbit_tables(moduli):
    # orbit[i][a] = set of multiples of a modulo moduli[i]; equal sets share
    # one object, so the sumset memo below hits on identity
    tables = []
    for n in moduli:
        canon = {}
        tables.append([canon.setdefault(s, s) for s in
                       (frozenset((a * r) % n for r in range(n)) for a in range(n))])
    return tables


def _sumset(pa: frozenset, pb: frozenset, n: int) -> frozenset:
    # pa is a subgroup, so pa + y is covered as soon as y is
    out = set(pa)
    for y in pb:
        if y not in out:
            out.update((x + y) % n for x in pa)
    return frozenset(out)


def all_ideals(moduli: Sequence[int], budget: int = DEFAULT_ORACLE_BUDGET) -> list:
    """Every ideal of the product of residue rings, by closure of principal
    ideals under sums.  Exact and exhaustive; raises BudgetExceeded when the
    ring has more than ``budget`` elements.
    """
    moduli = tuple(int(n) for n in moduli)
    size = math.prod(moduli)
    if size > budget:
        raise BudgetExceeded(f"ring has {size} elements (budget {budget})")
    orbits = _orbit_tables(moduli)
    pool = {}
    for elem in itertools.product(*(range(n) for n in moduli)):
        parts = tuple(orbits[i][e] for i, e in enumerate(elem))
        pool[parts] = OracleIdeal(moduli, parts)
    # close under pairwise sums: the sumset of per-coordinate subgroups is
    # the per-coordinate sumset
    sums = [{} for _ in moduli]
    changed = True
    while changed:
        changed = False
        ideals = list(pool.values())
        for a, b in itertools.combinations(ideals, 2):
            parts = []
            for pa, pb, n, memo in zip(a.parts, b.parts, moduli, sums):
                s = memo.get((pa, pb))
                if s is None:
                    s = memo[pa, pb] = memo[pb, pa] = _sumset(pa, pb, n)
                parts.append(s)
            parts = tuple(parts)
            if parts not in pool:
                pool[parts] = OracleIdeal(moduli, parts)
                changed = True
    return sorted(pool.values(), key=OracleIdeal.sorted_parts_key)


def maximal_ideals(ideals: Sequence[OracleIdeal]) -> list:
    """Maximal elements among the proper ideals, by pairwise inclusion."""
    proper = [i for i in ideals if i.is_proper]
    out = []
    for i in proper:
        if not any(i is not j and i.issubset(j) for j in proper):
            out.append(i)
    return out


def is_prime_ideal(ideal: OracleIdeal) -> bool:
    """Definition-level primality: no two non-members multiply into the
    ideal, decided by the coordinatewise reduction in the module docstring."""
    if not ideal.is_proper:
        return False
    moduli, parts = ideal.moduli, ideal.parts
    escapes = [{} for _ in moduli]  # per coordinate: gcd(x, n) -> bool

    def escape(j, x):
        n, part, memo = moduli[j], parts[j], escapes[j]
        g = math.gcd(x, n)
        hit = memo.get(g)
        if hit is None:
            hit = memo[g] = any((g * y) % n in part
                                for y in range(n) if y not in part)
        return hit

    for a in itertools.product(*(range(n) for n in moduli)):
        if a not in ideal and any(escape(j, x) for j, x in enumerate(a)):
            return False
    return True


class OracleReport(Record):
    moduli: tuple
    ideal_count: int
    maximal: tuple   # element frozensets
    primes: tuple    # element frozensets, or None when not marked
    budget: int


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
    maximal = maximal_ideals(ideals)
    primes = None
    if mark_primes:
        primes = tuple(sorted((i.elements() for i in ideals if is_prime_ideal(i)),
                              key=sorted))
    return OracleReport(
        moduli, len(ideals),
        tuple(sorted((i.elements() for i in maximal), key=sorted)),
        primes, budget)


def descriptor_elements(ideal) -> frozenset:
    """Materialize a descriptor-backed ideal of a finite residue product as
    an element set, for comparison against oracle output."""
    from .products import ProductElement, ideal_member
    product = ideal.product
    coords = []
    for ring in product.components:
        if not isinstance(ring, ResidueRing):
            raise UnsupportedRing("finite residue products only")
        coords.append([ring.element(v) for v in range(ring.modulus)])
    out = []
    for entries in itertools.product(*coords):
        if ideal_member(ideal, ProductElement(product, entries)):
            out.append(tuple(e.raw for e in entries))
    return frozenset(out)
