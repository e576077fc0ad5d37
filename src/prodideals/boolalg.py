"""The product Boolean algebra of per-coordinate finite/cofinite sets.

An ``AlgebraElement`` is one finite/cofinite subset of the maximal spectrum
per coordinate ring.  The finite/cofinite restriction is closed under all
Boolean operations and contains every vanishing set of a ring element, and
its ultrafilters admit finite descriptions: either all sets containing a
fixed maximal ideal at a fixed coordinate (principal), or all sets that are
cofinite at a fixed infinite-spectrum coordinate.  Because the number of
coordinates is finite, every ultrafilter of the product algebra concentrates
on a single coordinate, so these descriptors are exhaustive.

``FilterExtension.enumerate`` is the one listing of descriptors, those
containing a filter: by coordinate, the principal ones by ``sort_key``, then
the cofinite one.  ``enumerate_ultrafilters`` lists the trivial filter's.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence

from .errors import FiniteIntersectionViolation, InconsistentInput, ShapeMismatch
from .record import Record, set_field
from .rings import FinCofSet, RingHandle


class AlgebraElement(Record):
    """One finite/cofinite set per coordinate."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise InconsistentInput("empty product shape")
        set_field(self, "coords", tuple(self.coords))

    @property
    def shape(self) -> tuple:
        return tuple(c.ring for c in self.coords)

    @classmethod
    def bottom(cls, shape: Sequence[RingHandle]) -> "AlgebraElement":
        return cls(tuple(FinCofSet.empty(r) for r in shape))

    @classmethod
    def top(cls, shape: Sequence[RingHandle]) -> "AlgebraElement":
        return cls(tuple(FinCofSet.all(r) for r in shape))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


def _check_shapes(y: AlgebraElement, z: AlgebraElement):
    if y.shape != z.shape:
        raise ShapeMismatch(f"shapes differ: {y.shape} vs {z.shape}")


def meet(y: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    _check_shapes(y, z)
    return AlgebraElement(tuple(a.intersection(b) for a, b in zip(y.coords, z.coords)))


def join(y: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    _check_shapes(y, z)
    return AlgebraElement(tuple(a.union(b) for a, b in zip(y.coords, z.coords)))


def complement(y: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(tuple(c.complement() for c in y.coords))


def leq(y: AlgebraElement, z: AlgebraElement) -> bool:
    _check_shapes(y, z)
    return all(a.issubset(b) for a, b in zip(y.coords, z.coords))


def is_zero(y: AlgebraElement) -> bool:
    return all(c.is_empty for c in y.coords)


# ---------------------------------------------------------------------------
# Ultrafilters


class UltrafilterDescriptor(Record):
    """A finitely-described ultrafilter of the product algebra.

    ``principal`` names the fixed maximal ideal; ``None`` selects the
    cofinite ultrafilter at the coordinate, which exists only when the
    coordinate ring has an infinite maximal spectrum.
    """

    shape: tuple
    coordinate: int
    principal: object  # MaxIdealId | None

    def __post_init__(self):
        shape, coordinate, principal = tuple(self.shape), self.coordinate, self.principal
        if not 0 <= coordinate < len(shape):
            raise InconsistentInput(f"coordinate {coordinate} out of range")
        ring = shape[coordinate]
        if principal is None:
            if ring.spectrum_finite:
                raise InconsistentInput(
                    f"{ring.short_name} has a finite spectrum: no cofinite ultrafilter")
        elif principal.ring != ring:
            raise InconsistentInput(f"{principal} is not a maximal ideal of {ring.short_name}")
        set_field(self, "shape", shape)

    @property
    def is_frechet(self) -> bool:
        return self.principal is None

    def __repr__(self):
        if self.is_frechet:
            return f"CofiniteFrechet(coord={self.coordinate})"
        return f"Principal(coord={self.coordinate}, {self.principal})"


def membership(u: UltrafilterDescriptor, y: AlgebraElement) -> bool:
    """Whether the set tuple belongs to the ultrafilter.

    Principal: the fixed maximal ideal lies in the coordinate set.
    Cofinite: the coordinate set is cofinite.  Within the finite/cofinite
    algebra each rule satisfies all ultrafilter axioms exactly.
    """
    if u.shape != y.shape:
        raise ShapeMismatch(f"shapes differ: {u.shape} vs {y.shape}")
    local = y.coords[u.coordinate]
    if u.is_frechet:
        return local.is_cofinite
    return u.principal in local


# ---------------------------------------------------------------------------
# Filters


class FipResult(Record):
    holds: bool
    witness: tuple  # minimal sublist with empty meet, or ()


def fip_check(elems: Iterable[AlgebraElement]) -> FipResult:
    """Finite intersection property: every finite meet is nonzero.

    Meets in the finite/cofinite algebra are computed exactly and meets only
    shrink, so the single meet of all elements decides the property.  On
    failure the witness is a sublist with empty meet, pruned to be minimal.
    """
    elems = list(elems)
    if not elems or not is_zero(functools.reduce(meet, elems)):
        return FipResult(True, ())
    witness = elems
    i = 0
    while i < len(witness):
        trial = witness[:i] + witness[i + 1:]
        if trial and is_zero(functools.reduce(meet, trial)):
            witness = trial
        else:
            i += 1
    return FipResult(False, tuple(witness))


class FilterDescriptor(Record):
    """A filter given by finitely many generators with the FIP."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise InconsistentInput("a filter needs at least one generator")
        shape = gens[0].shape
        for g in gens[1:]:
            if g.shape != shape:
                raise ShapeMismatch("filter generators over different shapes")
        result = fip_check(gens)
        if not result.holds:
            raise FiniteIntersectionViolation(
                f"generators have an empty meet: witness {result.witness}")
        set_field(self, "generators", gens)

    @property
    def shape(self) -> tuple:
        return self.generators[0].shape

    def meet_of_generators(self) -> AlgebraElement:
        return functools.reduce(meet, self.generators)


class FilterExtension(Record):
    """The complete family of ultrafilters containing a given filter.

    A descriptor contains every generator exactly when it contains their
    meet G.  Hence per coordinate the qualifying principal descriptors are
    the members of G there (a finite or cofinite set), and the cofinite
    descriptor qualifies exactly when G is cofinite at the coordinate.  This
    is a finite description even when infinitely many principal ultrafilters
    qualify; ``enumerate`` lists them explicitly, under a generator bound
    when needed.
    """

    shape: tuple
    principal_sets: tuple  # FinCofSet per coordinate
    frechet_coordinates: tuple

    def admits(self, u: UltrafilterDescriptor) -> bool:
        if u.shape != self.shape:
            raise ShapeMismatch("descriptor over a different shape")
        if u.is_frechet:
            return u.coordinate in self.frechet_coordinates
        return u.principal in self.principal_sets[u.coordinate]

    @property
    def is_explicit(self) -> bool:
        return all(not s.is_cofinite for s in self.principal_sets)

    def enumerate(self, bound: int = None) -> list:
        out = []
        for i, s in enumerate(self.principal_sets):
            ring = self.shape[i]
            if not s.is_cofinite:
                ideals = s.sorted_support()
            else:
                if bound is None:
                    raise InconsistentInput(
                        "cofinitely many principal ultrafilters qualify; "
                        "pass a generator bound to enumerate them")
                ideals = [m for m in ring.maximal_ideals_up_to(bound) if m in s]
            for m in ideals:
                out.append(UltrafilterDescriptor(self.shape, i, m))
            if i in self.frechet_coordinates:
                out.append(UltrafilterDescriptor(self.shape, i, None))
        return out


def extend_filter(filt: FilterDescriptor) -> FilterExtension:
    """Describe all ultrafilters refining the filter.

    The description is complete for the finite/cofinite product algebra:
    no other ultrafilters exist there.
    """
    g = filt.meet_of_generators()
    frechet = tuple(i for i, c in enumerate(g.coords)
                    if c.is_cofinite and not filt.shape[i].spectrum_finite)
    return FilterExtension(filt.shape, tuple(g.coords), frechet)


def enumerate_ultrafilters(shape: Sequence[RingHandle], bound: int = None) -> list:
    """All ultrafilter descriptors over the shape, principal generators bounded.

    For coordinates with finite spectrum the enumeration is complete without
    a bound.  For infinite-spectrum coordinates, principal descriptors are
    listed for generators within ``bound`` (value bound for integer primes,
    degree bound for polynomial irreducibles) and the cofinite descriptor is
    always included.
    """
    return extend_filter(FilterDescriptor((AlgebraElement.top(shape),))).enumerate(bound)
