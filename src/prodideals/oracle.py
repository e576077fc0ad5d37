"""Brute-force ideal enumeration for finite products of residue rings.

This is the independent verification harness: it works at the level of
element sets and never consults ultrafilter machinery.  Elements are residue
tuples.  Each step works per coordinate, so it costs the sum of the
coordinate sizes, not their product: an ideal of a finite product is the
product of its parts, as ``a = sum a*e_i`` over the idempotents ``e_i``.

Ideals.  A principal ideal is the product of the per-coordinate multiple sets
of its generator, so the principal ideals are the products of each
coordinate's distinct principal subgroups.  Each subgroup is stepped once,
``0, a, 2a, ...`` back to 0: every ``k*a`` with ``k`` coprime to the orbit
length generates the same subgroup (a group fact about the multiplier, not a
test on the residue).  A worklist closes the pool under pairwise sums, again
per coordinate, with each part a bit mask (bit ``x`` for residue ``x``).  A
part is a subgroup, so ``pa + y`` is covered as soon as ``y`` is: a sumset
adds the coset of every ``y`` not yet covered, the mask of ``pa`` rotated by
``y``.  Maximal ideals are the maximal elements among proper ideals.

Primality.  ``a*b`` lies in the ideal iff ``a_i*b_i`` lies in the part ``I_i``
at every coordinate.  So a non-member ``a``, with ``a_k`` outside ``I_k``, has
a non-member partner ``b`` with ``a*b`` inside iff at some coordinate ``j``
the value ``a_j`` escapes: some ``y`` outside ``I_j`` has ``a_j*y`` in ``I_j``
(take ``b`` zero elsewhere).  For ``j != k`` the values at ``j`` and ``k`` are
independent; for ``j == k`` they are one value outside ``I_j``.  So each
coordinate is scanned once: for a proper part, for an escaping value, and for
an escaping value outside the part.  Whether ``x`` escapes is memoised under
``gcd(x, n_j)``: ``x`` and the gcd generate the same ideal of ``Z/n_j``.

Materialisation.  ``descriptor_elements`` asks the membership predicate once
per value at each coordinate, with 0 elsewhere, and returns the product.

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

    def __init__(self, moduli, parts):  # one per ideal in all_ideals
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
    # per coordinate, {bit mask: frozenset} of the distinct principal
    # subgroups of Z/n, each stepped once from 0; equal moduli share one table
    tables = {}
    for n in set(moduli):
        tables[n], covered = {}, set()
        for a in range(n):
            if a not in covered:
                orbit, x = [0], a
                while x:
                    orbit.append(x)
                    x = (x + a) % n
                tables[n][sum(1 << v for v in orbit)] = frozenset(orbit)
                covered.update(kx for k, kx in enumerate(orbit)
                               if math.gcd(k, len(orbit)) == 1)
    return [tables[n] for n in moduli]


def _sumset(ma: int, mb: int, n: int) -> int:
    # ma is a subgroup, so the coset ma + y is ma rotated by y; rotating the
    # larger part adds fewer cosets
    if ma.bit_count() < mb.bit_count():
        ma, mb = mb, ma
    out, rest, full = ma, mb & ~ma, (1 << n) - 1
    while rest:
        y = (rest & -rest).bit_length() - 1  # the least residue not covered
        out |= ((ma << y) | (ma >> (n - y))) & full
        rest &= ~out
    return out


def all_ideals(moduli: Sequence[int], budget: int = DEFAULT_ORACLE_BUDGET) -> list:
    """Every ideal of the product of residue rings, by closure of principal
    ideals under sums.  Exact and exhaustive; raises BudgetExceeded when the
    ring has more than ``budget`` elements.
    """
    moduli = tuple(int(n) for n in moduli)
    size = math.prod(moduli)
    if size > budget:
        raise BudgetExceeded(f"ring has {size} elements (budget {budget})")
    subgroups = _orbit_tables(moduli)
    pool = set(itertools.product(*subgroups))
    # worklist closure under pairwise sums, per coordinate: every pair is
    # summed once, when the later of the two leaves the worklist
    sums = [{} for _ in moduli]
    done, todo = [], list(pool)
    while todo:
        a = todo.pop()
        for b in done:
            masks = []
            for pa, pb, n, memo in zip(a, b, moduli, sums):
                s = memo.get((pa, pb))
                if s is None:
                    s = memo[pa, pb] = memo[pb, pa] = _sumset(pa, pb, n)
                masks.append(s)
            masks = tuple(masks)
            if masks not in pool:
                pool.add(masks)
                todo.append(masks)
        done.append(a)
    ideals = [OracleIdeal(moduli, tuple(
        known[m] if m in known else frozenset(x for x in range(n) if m >> x & 1)
        for m, known, n in zip(masks, subgroups, moduli))) for masks in pool]
    return sorted(ideals, key=OracleIdeal.sorted_parts_key)


def maximal_ideals(ideals: Sequence[OracleIdeal]) -> list:
    """Maximal elements among the proper ideals, by pairwise inclusion."""
    proper = [i for i in ideals if i.is_proper]
    out = []
    for i in proper:
        if not any(i is not j and i.issubset(j) for j in proper):
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


def is_prime_ideal(ideal: OracleIdeal) -> bool:
    """Definition-level primality: no two non-members multiply into the
    ideal, decided by the coordinatewise reduction in the module docstring."""
    if not ideal.is_proper:
        return False
    flags = [_escape_flags(n, p) for n, p in zip(ideal.moduli, ideal.parts)]
    proper = sum(f[0] for f in flags)  # coordinates with a proper part
    # j == k: a value outside I_j escapes; j != k: a proper part beside j
    return not any(outside_j or (any_j and proper > proper_j)
                   for proper_j, any_j, outside_j in flags)


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
    if not all(isinstance(ring, ResidueRing) for ring in product.components):
        raise UnsupportedRing("finite residue products only")
    zeros = tuple(ring.element(0) for ring in product.components)

    def member_at(i, v):  # the element with v at i and 0 elsewhere
        entries = zeros[:i] + (product.components[i].element(v),) + zeros[i + 1:]
        return ideal_member(ideal, ProductElement(product, entries))
    return frozenset(itertools.product(*(
        [v for v in range(ring.modulus) if member_at(i, v)]
        for i, ring in enumerate(product.components))))
