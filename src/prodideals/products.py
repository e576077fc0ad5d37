"""Finite products of catalog rings and their induced ideals.

An ideal descriptor is a ``Descriptor``, one subclass per kind:
``UltrafilterIdeal`` (the ideals induced by ultrafilters, which are the
maximal ideals), ``KernelIdeal`` (the minimal primes over domains), and
``PointwiseMaxIdeal`` and ``ValuationIdeal`` (the primes of products of
Prufer domains).  Each class owns its kind's semantics: the JSON name
``kind``, membership ``contains(a)`` and the verdict ``is_prime()``, which
``ideal_member`` and ``is_prime`` call for a descriptor of any kind.  To add
a kind, write its class here and its row of ``scenario.IDEAL``.

The index set is finite, so every ultrafilter on it is principal and every
descriptor is decidable by a closed form; the test suite re-verifies the
closed forms against element-level brute force on finite instances.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .boolalg import OUT_OF_RANGE, AlgebraElement, UltrafilterDescriptor
from .errors import (
    InconsistentInput,
    NotUnitIdeal,
    ShapeMismatch,
    UnsupportedDescriptor,
)
from .record import Record, Ruling, set_field
from .rings import DEFAULT_FACTOR_BUDGET, NOT_MAX_IDEAL, RingElement, RingHandle, bezout_certificate


class ProductRing(Record):
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise InconsistentInput("a product needs at least one component")
        for r in comps:
            if not isinstance(r, RingHandle):
                raise InconsistentInput(f"not a ring handle: {r!r}")
        set_field(self, "components", comps)

    @property
    def shape(self) -> tuple:
        return self.components

    @property
    def size(self) -> int:
        return len(self.components)

    def element(self, values) -> "ProductElement":
        values = list(values)
        if len(values) != self.size:
            raise ShapeMismatch(
                f"expected {self.size} entries, got {len(values)}")
        return ProductElement(
            self, tuple(r.element(v) for r, v in zip(self.components, values)))

    @property
    def zero(self) -> "ProductElement":
        return ProductElement(self, tuple(r.zero for r in self.components))

    @property
    def one(self) -> "ProductElement":
        return ProductElement(self, tuple(r.one for r in self.components))

    def indicator(self, support) -> "ProductElement":
        """The element with entry one at the listed coordinates, zero elsewhere."""
        support = set(support)
        return ProductElement(
            self, tuple(r.one if i in support else r.zero
                        for i, r in enumerate(self.components)))

    def __repr__(self):
        return " x ".join(r.short_name for r in self.components)


class ProductElement(Record):
    ring: ProductRing
    entries: tuple

    def __init__(self, ring, entries):
        set_field(self, "ring", ring)
        set_field(self, "entries", entries)

    def _entrywise(self, op, other: "ProductElement"):
        if self.ring != other.ring:
            raise ShapeMismatch("elements of different products")
        return ProductElement(self.ring, tuple(map(op, self.entries, other.entries)))

    def __add__(self, other):
        return self._entrywise(RingElement.__add__, other)

    def __sub__(self, other):
        return self._entrywise(RingElement.__sub__, other)

    def __mul__(self, other):
        return self._entrywise(RingElement.__mul__, other)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __repr__(self):
        return "(" + ", ".join(r._repr_raw(e.raw)
                               for r, e in zip(self.ring.components, self.entries)) + ")"


# ---------------------------------------------------------------------------
# Ideal descriptors


class Descriptor:
    """Base of the ideal descriptors (see the module docstring); a kind is
    prime unless its class overrides ``is_prime``."""

    kind = None

    def contains(self, a: "ProductElement") -> bool:
        raise NotImplementedError

    def is_prime(self) -> bool:
        return True

    def _check_product(self, a: "ProductElement"):
        if a.ring != self.product:
            raise ShapeMismatch("element of a different product")


class UltrafilterIdeal(Record, Descriptor):
    """Elements whose tuple of vanishing sets lies in the ultrafilter ``u``:
    over the catalog, a division test at a principal ``u`` and a zero test at
    a cofinite one (only zero vanishes on a cofinite set, by finite
    character).  Prime: the tuple of ab is the join of those of a and b, and
    ``u`` picks a side of every join."""

    kind = "ultrafilter_ideal"
    product: ProductRing
    u: UltrafilterDescriptor

    def __post_init__(self):
        if self.u.shape != self.product.shape:
            raise ShapeMismatch("ultrafilter over a different shape")

    def contains(self, a):
        self._check_product(a)
        entry = a.entries[self.u.coordinate]
        return entry.is_zero if self.u.is_frechet else self.u.principal.contains(entry)


class KernelIdeal(Record, Descriptor):
    """Elements vanishing at ``coordinate``, the concentration coordinate of
    a principal ultrafilter on the index set; prime exactly when that
    coordinate's ring is a domain."""

    kind = "kernel_ideal"
    product: ProductRing
    coordinate: int

    def __post_init__(self):
        if not 0 <= self.coordinate < self.product.size:
            raise ShapeMismatch(OUT_OF_RANGE.format(self.coordinate))

    def contains(self, a):
        self._check_product(a)
        return a.entries[self.coordinate].is_zero

    def is_prime(self):
        return self.product.components[self.coordinate].is_domain


class PointwiseMaxIdeal(Record, Descriptor):
    """Elements lying in M at the concentration coordinate; prime, since the
    quotient is the residue field there."""

    kind = "pointwise_max_ideal"
    product: ProductRing
    coordinate: int
    ideals: tuple  # one MaxIdealId per coordinate

    def __post_init__(self):
        set_field(self, "ideals", tuple(self.ideals))
        if len(self.ideals) != self.product.size:
            raise ShapeMismatch("need one maximal ideal per coordinate")
        for r, m in zip(self.product.components, self.ideals):
            if m.ring != r:
                raise InconsistentInput(NOT_MAX_IDEAL.format(m, r.short_name))
        if not 0 <= self.coordinate < self.product.size:
            raise ShapeMismatch(OUT_OF_RANGE.format(self.coordinate))

    def contains(self, a):
        self._check_product(a)
        i = self.coordinate
        return self.ideals[i].contains(a.entries[i])


class ValuationIdeal(Record, Descriptor):
    """The valuation-threshold ideal of an ultrafilter and a value vector
    (``valuations.ug_member``); prime for a positive vector, and a vector
    with a zero position is rejected."""

    kind = "valuation_ideal"
    product: ProductRing
    u: UltrafilterDescriptor
    g: object  # ValueVector

    def __post_init__(self):
        if self.u.shape != self.product.shape:
            raise ShapeMismatch("ultrafilter over a different shape")
        if self.g.shape != self.product.shape:
            raise ShapeMismatch("value vector over a different shape")

    def contains(self, a):
        from .valuations import ug_member
        return ug_member(self.u, self.g, a)

    def is_prime(self):
        if not self.g.everywhere_positive:
            raise UnsupportedDescriptor(
                "valuation-threshold ideals need a positive value vector")
        return True


# ---------------------------------------------------------------------------
# Operations


def vset_vector(a: ProductElement) -> AlgebraElement:
    """The tuple of coordinatewise vanishing sets of a product element."""
    return AlgebraElement(tuple(r.vset(e) for r, e in zip(a.ring.components, a.entries)))


def ideal_member(ideal, a: ProductElement) -> bool:
    """Exact membership test for a descriptor of any kind (``contains``)."""
    if not isinstance(ideal, Descriptor):
        raise UnsupportedDescriptor(f"unknown descriptor {ideal!r}")
    return ideal.contains(a)


def is_prime(ideal) -> bool:
    """Primality verdict for a descriptor of any kind (``is_prime``)."""
    if not isinstance(ideal, Descriptor):
        raise UnsupportedDescriptor(f"unknown descriptor {ideal!r}")
    return ideal.is_prime()


class MaximalityVerdict(Record):
    is_maximal: bool
    rule: str
    witness: object  # ProductElement | None
    detail: str

    def __bool__(self):
        return self.is_maximal


#: provenance tags used in reports
RULE_PRINCIPAL_QUOTIENT_FIELD = "rule:principal-quotient-field"
RULE_FRECHET_NO_COFINITE_VANISHING = "rule:frechet-no-cofinite-vanishing"
RULE_BOUNDED_ULTRAFILTER_ENUMERATION = "rule:bounded-ultrafilter-enumeration"
RULE_DESCRIPTOR_MEMBERSHIP = "rule:descriptor-membership"
RULE_INDEX_FILTER_CONCENTRATION = "rule:index-filter-concentration"
RULE_ZERO_DIMENSIONAL_MINIMAL_PRIME = "rule:zero-dimensional-minimal-prime"
RULE_COORDINATEWISE_BEZOUT = "rule:coordinatewise-bezout"


@functools.lru_cache(maxsize=32)
def witness_fillers(product: ProductRing) -> tuple:
    """The maximality witness entries away from the concentration coordinate.

    One entry per component: a nonzero nonunit, or one over a field.  A
    witness from ``is_maximal`` is this tuple with the generator put in at
    the concentration coordinate.
    """
    fillers = []
    for ring in product.components:
        nzn = ring.nonzero_nonunit()
        fillers.append(nzn if nzn is not None else ring.one)
    return tuple(fillers)


def witness_entries(ring, generators) -> list:
    """The raw witness entries of the principal descriptors fixing the ideals
    of ``ring`` with these listed ``generators`` (``_generator_raws``), each
    checked by the kind's division ``_in_max_ideal`` (an explicit ``raise``,
    kept by ``python -O``); None at a field coordinate, where it is zero.  The
    one copy of the check, for ``is_maximal`` and ``maxideals`` (by chunks)."""
    raws = ring._generator_raws(generators)
    zero, contains = ring._zero_raw(), ring._in_max_ideal
    for gen, raw in zip(generators, raws):
        if raw != zero and not contains(raw, gen):
            raise AssertionError(f"witness entry {ring._repr_raw(raw)} in {ring.short_name} "
                                 f"is not in ({ring._repr_raw(gen)})")
    return [None if raw == zero else raw for raw in raws]


def is_maximal(ideal: UltrafilterIdeal) -> MaximalityVerdict:
    """Decide maximality of an ultrafilter ideal, with witness or obstruction.

    Principal descriptor: the ideal is the pullback of one maximal ideal
    along a projection, so the quotient is a field and the ideal is maximal.
    When every component admits a nonzero element vanishing exactly where
    needed, a witness tuple a with all entries nonzero and vanishing-set
    tuple inside the ultrafilter is returned (entry: the generator at the
    concentration coordinate, ``witness_fillers`` elsewhere).  At a field
    concentration coordinate no such tuple exists and the verdict rests on
    the quotient argument alone.

    The witness condition is checked by division (``witness_entries``): at a
    principal descriptor the vanishing tuple lies in the ultrafilter exactly
    when the concentration entry lies in the fixed maximal ideal, so no
    entry is factored.  The tests cross-check accepted witnesses against the
    definition, through ``vset_vector`` and ``membership``.

    Cofinite descriptor: membership forces a cofinite vanishing set at the
    coordinate, which by finite character happens only for the zero element;
    the ideal is the projection kernel, its quotient is the component ring,
    not a field -- never maximal.
    """
    u = ideal.u
    product = ideal.product
    ring = product.components[u.coordinate]
    if u.is_frechet:
        return MaximalityVerdict(
            False, RULE_FRECHET_NO_COFINITE_VANISHING, None,
            f"no nonzero element of {ring.short_name} vanishes on a cofinite "
            f"set of maximal ideals; the ideal is the kernel of the projection "
            f"and the quotient {ring.short_name} is not a field")
    [gen] = witness_entries(ring, (u.principal.generator,))
    if gen is None:
        return MaximalityVerdict(
            True, RULE_PRINCIPAL_QUOTIENT_FIELD, None,
            "concentration coordinate is a field: maximality holds via the "
            "field quotient, no nonzero-entry witness exists")
    entries = list(witness_fillers(product))
    entries[u.coordinate] = RingElement(ring, gen)
    return MaximalityVerdict(
        True, RULE_PRINCIPAL_QUOTIENT_FIELD, ProductElement(product, tuple(entries)),
        "witness tuple has nonzero entries and vanishing sets inside the ultrafilter")


def minimal_prime_below(ideal: UltrafilterIdeal) -> Ruling:
    """The unique minimal prime below the ultrafilter ideal, with its rule.

    The ultrafilter induces on the index set the family of index sets where
    its members are nonempty.  Every member is nonempty at the concentration
    coordinate, and some member is empty everywhere else, so that family is
    the principal ultrafilter at the concentration coordinate, and the
    elements vanishing there form the kernel ideal, which lies in the ideal.
    Over a domain the kernel is prime, and it is the answer.  Over ``Z/n``
    with n composite, where every prime is maximal, the answer is the ideal
    itself.
    """
    kernel = KernelIdeal(ideal.product, ideal.u.coordinate)
    if kernel.is_prime():
        return Ruling(kernel, RULE_INDEX_FILTER_CONCENTRATION)
    return Ruling(ideal, RULE_ZERO_DIMENSIONAL_MINIMAL_PRIME)


def enumerate_maximal_ideals(product: ProductRing, bound: int = None) -> list:
    """All maximal ideals whose descriptors respect the generator bound.

    Complete for all-finite-spectrum products; for infinite spectra the
    principal descriptors are complete up to the bound and the cofinite
    descriptors are rejected as non-maximal.
    """
    from .boolalg import enumerate_ultrafilters
    ideals = (UltrafilterIdeal(product, u) for u in enumerate_ultrafilters(product.shape, bound))
    return [ideal for ideal in ideals if is_maximal(ideal)]


class SkolemResult(Record):
    holds: bool
    certificate: tuple  # coefficient ProductElements, or ()
    witness: tuple      # (coordinate, MaxIdealId) or ()


def skolem_check(elems: Sequence[ProductElement],
                 budget: int = DEFAULT_FACTOR_BUDGET) -> SkolemResult:
    """Certify that coordinatewise unit generation lifts to the product.

    If at every coordinate the entries generate the unit ideal, coefficient
    tuples with sum(c_i * a_i) = 1 are assembled coordinatewise; otherwise a
    coordinate and a maximal ideal containing every entry are returned.
    """
    elems = list(elems)
    if not elems:
        raise InconsistentInput("need at least one element")
    product = elems[0].ring
    for e in elems[1:]:
        if e.ring != product:
            raise ShapeMismatch("elements of different products")
    columns = []
    for i, ring in enumerate(product.components):
        try:
            coeffs = bezout_certificate(ring, [e.entries[i] for e in elems], budget)
        except NotUnitIdeal as exc:
            return SkolemResult(False, (), (i, exc.witness))
        columns.append(coeffs)
    certificate = tuple(
        ProductElement(product, tuple(columns[i][j] for i in range(product.size)))
        for j in range(len(elems)))
    total = product.zero
    for c, e in zip(certificate, elems):
        total = total + c * e
    if total != product.one:
        raise AssertionError(f"certificate sums to {total!r}, not one")
    return SkolemResult(True, certificate, ())
