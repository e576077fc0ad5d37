"""Separating-element properties of the catalog rings, with witnesses.

A ring satisfies the weak separation property when for every r and nonzero a
there is a d lying in every maximal ideal that contains a but not r, and in
no maximal ideal containing r.  It satisfies the strong separation property
when for every r some d has exactly the complement of r's vanishing set as
its own vanishing set.

Every catalog ring has finite character, so the weak witness is simply the
product of the generators of the finitely many maximal ideals that must
contain d.  The strong property is a catalog-level fact: it holds for
residue rings (zero-dimensional) and localized integers (nonzero Jacobson
radical), and fails for the integers and polynomial rings, where the
complement of a nonempty finite vanishing set is an infinite coinfinite set
that no vanishing set can match.
"""

from __future__ import annotations

from .errors import NoWitness, UnsupportedRing, ZeroElement
from .record import Record
from .rings import DEFAULT_FACTOR_BUDGET, ZZ, FinCofSet, RingElement, RingHandle, crt_solve

RULE_PLUS_FINITE_CHARACTER = "rule:plus-finite-character-product"
RULE_PLUSPLUS_ZERO_DIMENSIONAL = "rule:plusplus-zero-dimensional"
RULE_PLUSPLUS_NONZERO_JACOBSON = "rule:plusplus-nonzero-jacobson"
RULE_PLUSPLUS_COFINITE_GAP = "rule:plusplus-fails-infinite-cofinite-gap"


class PlusWitness(Record):
    d: RingElement
    lower: FinCofSet   # must-contain set: maximal ideals with a but not r
    upper: FinCofSet   # allowed set: maximal ideals avoiding r
    vset_d: FinCofSet

    def __post_init__(self):
        if not (self.lower.issubset(self.vset_d) and self.vset_d.issubset(self.upper)):
            raise AssertionError("the vanishing set lies outside the witness bounds")


def _generator_product(ring: RingHandle, ideals) -> RingElement:
    out = ring.one
    for m in ideals:
        out = out * ring.element(m.generator)
    return out


def plus_witness(ring: RingHandle, r, a,
                 budget: int = DEFAULT_FACTOR_BUDGET) -> PlusWitness:
    """A separating element for (r, a): product of the generators of the
    maximal ideals containing a but not r (the empty product is one).

    Finite character makes the ideal set finite, so the product exists; both
    containments are re-verified exactly before returning.  Nonzero means a
    literal nonzero value, also in rings with zero divisors.
    """
    r = ring.element(r)
    a = ring.element(a)
    if a.is_zero:
        raise ZeroElement("a must be nonzero")
    upper = ring.vset(r, budget).complement()
    lower = ring.vset(a, budget).intersection(upper)
    d = _generator_product(ring, lower.sorted_support())
    return PlusWitness(d, lower, upper, ring.vset(d, budget))


class PlusPlusVerdict(Record):
    ring: RingHandle
    holds: bool
    rule: str
    obstruction: RingElement  # None when the property holds


def plusplus_check(ring: RingHandle) -> PlusPlusVerdict:
    """Catalog-level verdict for the strong separation property."""
    if ring.dimension == 0:
        return PlusPlusVerdict(ring, True, RULE_PLUSPLUS_ZERO_DIMENSIONAL, None)
    if ring.spectrum_finite:
        return PlusPlusVerdict(ring, True, RULE_PLUSPLUS_NONZERO_JACOBSON, None)
    # the complement of the vanishing set of a nonzero nonunit is cofinite
    # with nonempty exclusion; vanishing sets are finite (nonzero elements)
    # or everything (zero): no match exists
    return PlusPlusVerdict(ring, False, RULE_PLUSPLUS_COFINITE_GAP, ring.nonzero_nonunit())


def plusplus_witness(ring: RingHandle, r) -> RingElement:
    """An element d whose vanishing set is exactly the complement of r's.

    Where the property holds d is the solution over the integers of the
    congruences d = 1 mod p for the primes p dividing r and d = 0 mod p for
    the others (``crt_solve``), so it lies in exactly the maximal ideals that
    avoid r; the canonical lift is the smallest non-negative solution, below
    the product of the primes.  Over an infinite spectrum (the integers and
    polynomial rings) the witness only exists at zero (d = 1) and at units
    (d = 0); anything else raises NoWitness.
    """
    r = ring.element(r)
    if not ring.spectrum_finite:
        if r.is_zero:
            return ring.one
        if r.is_unit:
            return ring.zero
        raise NoWitness(r, f"the complement of the vanishing set of {r!r} is "
                           "infinite and coinfinite; no vanishing set matches it")
    witness = ring.element(crt_solve(ZZ, [(ZZ.max_ideal(m.generator), 1, int(m.contains(r)))
                                          for m in ring.maximal_spectrum()]).raw)
    if ring.vset(witness) != ring.vset(r).complement():
        raise AssertionError(f"{witness!r} does not vanish exactly off {r!r}")
    return witness


def one_dim_plus_witness(ring: RingHandle, r, a) -> RingElement:
    """The separating element obtained through the idempotent route.

    Let Z be the intersection of the maximal ideals containing a but not r,
    generated by the product z of their generators.  Every one of those
    ideals avoids r, so r is a unit modulo Z and the idempotent generating
    the same class is 1 itself; d = 1 - e then lives in Z, and the canonical
    nonzero lift is z, the element ``plus_witness`` returns.  Defined for
    the domain kinds only.
    """
    if ring.dimension == 0:
        raise UnsupportedRing("domain kinds only")
    return plus_witness(ring, r, a).d
