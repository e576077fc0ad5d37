import itertools

import pytest

from conftest import rng_for
from prodideals.boolalg import (
    AlgebraElement,
    FilterDescriptor,
    FipResult,
    UltrafilterDescriptor,
    complement,
    enumerate_ultrafilters,
    extend_filter,
    fip_check,
    is_zero,
    join,
    leq,
    meet,
    membership,
)
from prodideals.errors import (
    FiniteIntersectionViolation,
    InconsistentInput,
    ShapeMismatch,
)
from prodideals.rings import (
    FinCofSet,
    IntegerRing,
    LocalizedIntegersRing,
    PolynomialRing,
    ResidueRing,
)

ZZ = IntegerRing()
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def random_fincof(ring, rng, pool=None):
    pool = pool if pool is not None else [ring.max_ideal(p) for p in PRIMES]
    support = frozenset(m for m in pool if rng.random() < 0.3)
    if ring.spectrum_finite or rng.random() < 0.5:
        return FinCofSet.finite(ring, support)
    return FinCofSet.cofinite(ring, support)


def random_algebra_element(shape, rng, pools):
    return AlgebraElement(tuple(random_fincof(r, rng, p)
                                for r, p in zip(shape, pools)))


class TestLatticeOps:
    shape = (ZZ, ZZ)

    def elem(self, *coords):
        return AlgebraElement(tuple(coords))

    def test_meet_example(self):
        y = self.elem(FinCofSet.finite(ZZ, [ZZ.max_ideal(2)]), FinCofSet.all(ZZ))
        z = self.elem(FinCofSet.finite(ZZ, [ZZ.max_ideal(2), ZZ.max_ideal(3)]),
                      FinCofSet.finite(ZZ, [ZZ.max_ideal(5)]))
        m = meet(y, z)
        assert m.coords[0] == FinCofSet.finite(ZZ, [ZZ.max_ideal(2)])
        assert m.coords[1] == FinCofSet.finite(ZZ, [ZZ.max_ideal(5)])

    def test_complement_example(self):
        y = self.elem(FinCofSet.finite(ZZ, [ZZ.max_ideal(2)]), FinCofSet.empty(ZZ))
        c = complement(y)
        assert c.coords[0] == FinCofSet.cofinite(ZZ, [ZZ.max_ideal(2)])
        assert c.coords[1] == FinCofSet.all(ZZ)

    def test_bottom_leq_everything(self):
        bottom = AlgebraElement.bottom(self.shape)
        rng = rng_for("leq")
        pools = [[ZZ.max_ideal(p) for p in PRIMES]] * 2
        for _ in range(50):
            y = random_algebra_element(self.shape, rng, pools)
            assert leq(bottom, y)
        assert is_zero(bottom)

    def test_shape_mismatch(self):
        y = AlgebraElement.bottom((ZZ,))
        z = AlgebraElement.bottom((ZZ, ZZ))
        with pytest.raises(ShapeMismatch):
            meet(y, z)

    def test_lattice_axioms_sampled(self):
        shape = (ZZ, PolynomialRing(2))
        f2x = shape[1]
        pools = [[ZZ.max_ideal(p) for p in PRIMES],
                 [f2x.max_ideal(g) for g in ((0, 1), (1, 1), (1, 1, 1), (1, 0, 1, 1))]]
        rng = rng_for("lattice-axioms")
        top = AlgebraElement.top(shape)
        bottom = AlgebraElement.bottom(shape)
        for _ in range(400):
            x = random_algebra_element(shape, rng, pools)
            y = random_algebra_element(shape, rng, pools)
            z = random_algebra_element(shape, rng, pools)
            assert meet(x, y) == meet(y, x)
            assert join(x, y) == join(y, x)
            assert meet(meet(x, y), z) == meet(x, meet(y, z))
            assert join(join(x, y), z) == join(x, join(y, z))
            assert meet(x, join(x, y)) == x
            assert join(x, meet(x, y)) == x
            assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
            assert complement(meet(x, y)) == join(complement(x), complement(y))
            assert complement(complement(x)) == x
            assert meet(x, complement(x)) == bottom
            assert join(x, complement(x)) == top


class TestMembership:
    shape = (ZZ, ZZ)

    def test_worked_examples(self):
        u = UltrafilterDescriptor(self.shape, 0, ZZ.max_ideal(2))
        y = AlgebraElement((FinCofSet.finite(ZZ, [ZZ.max_ideal(2), ZZ.max_ideal(7)]),
                            FinCofSet.empty(ZZ)))
        assert membership(u, y)
        uf = UltrafilterDescriptor(self.shape, 0, None)
        y2 = AlgebraElement((FinCofSet.finite(ZZ, [ZZ.max_ideal(2)]),
                             FinCofSet.all(ZZ)))
        assert not membership(uf, y2)
        y3 = AlgebraElement((FinCofSet.cofinite(ZZ, [ZZ.max_ideal(3)]),
                             FinCofSet.empty(ZZ)))
        assert membership(uf, y3)

    def test_ultrafilter_axioms_sampled(self):
        pools = [[ZZ.max_ideal(p) for p in PRIMES]] * 2
        descriptors = [UltrafilterDescriptor(self.shape, 0, ZZ.max_ideal(3)),
                       UltrafilterDescriptor(self.shape, 1, None)]
        bottom = AlgebraElement.bottom(self.shape)
        for u in descriptors:
            rng = rng_for(f"axioms-{u}")
            assert not membership(u, bottom)          # (i)
            for _ in range(300):
                x = random_algebra_element(self.shape, rng, pools)
                y = random_algebra_element(self.shape, rng, pools)
                if membership(u, x) and membership(u, y):    # (ii)
                    assert membership(u, meet(x, y))
                if membership(u, x) and leq(x, y):           # (iii)
                    assert membership(u, y)
                assert membership(u, x) != membership(u, complement(x))  # (iv)
                if membership(u, join(x, y)):                # join splitting
                    assert membership(u, x) or membership(u, y)

    def test_frechet_requires_infinite_spectrum(self):
        with pytest.raises(InconsistentInput):
            UltrafilterDescriptor((ResidueRing(12),), 0, None)


def brute_force_atoms(spectra):
    """Independent oracle: atoms of the finite product algebra, found by
    scanning all elements for minimal nonzero ones."""
    per_coord = [list(itertools.chain.from_iterable(
        itertools.combinations(spec, k) for k in range(len(spec) + 1)))
        for spec in spectra]
    elements = [tuple(frozenset(c) for c in combo)
                for combo in itertools.product(*per_coord)]
    def le(a, b):
        return all(x <= y for x, y in zip(a, b))
    nonzero = [e for e in elements if any(e)]
    return [e for e in nonzero
            if not any(f != e and le(f, e) for f in nonzero)]


class TestEnumeration:
    def test_finite_product_matches_atoms(self):
        rings = (ResidueRing(4), ResidueRing(9))
        spectra = [r.maximal_spectrum() for r in rings]
        atoms = brute_force_atoms(spectra)
        descriptors = enumerate_ultrafilters(rings)
        assert len(descriptors) == len(atoms) == 2
        # each descriptor's member family is the up-set of exactly one atom
        for u in descriptors:
            matching = []
            for atom in atoms:
                elem = AlgebraElement(tuple(FinCofSet.finite(r, a)
                                            for r, a in zip(rings, atom)))
                if membership(u, elem):
                    matching.append(atom)
            assert len(matching) == 1

    def test_larger_finite_algebra(self):
        rings = (ResidueRing(12), ResidueRing(30))
        spectra = [r.maximal_spectrum() for r in rings]
        atoms = brute_force_atoms(spectra)  # algebra has 2^5 elements
        assert len(enumerate_ultrafilters(rings)) == len(atoms) == 5

    def test_worked_examples(self):
        out = enumerate_ultrafilters((ResidueRing(12),))
        assert [u.principal.generator for u in out] == [2, 3]
        out = enumerate_ultrafilters((ZZ,), 5)
        assert [u.principal.generator for u in out[:-1]] == [2, 3, 5]
        assert out[-1].is_frechet
        with pytest.raises(InconsistentInput):
            enumerate_ultrafilters((ZZ,))  # bound required

    def test_poly_bound_is_degree(self):
        f2x = PolynomialRing(2)
        out = enumerate_ultrafilters((f2x,), 2)
        gens = [u.principal.generator for u in out if not u.is_frechet]
        assert gens == [(0, 1), (1, 1), (1, 1, 1)]

    @pytest.mark.parametrize("ring, bound", [
        (ZZ, 3000), (ResidueRing(2), None), (ResidueRing(7), None), (ResidueRing(360360), None),
        (ResidueRing(999983), None), (ResidueRing(999983 * 7), None),
        (LocalizedIntegersRing((9007199254740997, 3, 2)), None),
        (PolynomialRing(2), 7), (PolynomialRing(3), 4), (PolynomialRing(4), 3),
        (PolynomialRing(8), 2), (PolynomialRing(9), 2),
    ])
    def test_listed_in_sort_key_order(self, ring, bound):
        # every kind lists its generators in the one listing order, and the
        # principal descriptors come in it, with no sort of their own
        listed = ring.maximal_ideals_up_to(bound)
        assert list(listed) == sorted(listed, key=lambda m: m.sort_key)
        assert [m.generator for m in listed] == list(ring.generators_up_to(bound))
        out = enumerate_ultrafilters((ring,), bound)
        assert [u.principal for u in out if not u.is_frechet] == list(listed)

    def test_cofinite_extension_lists_in_the_finite_order(self):
        # the sieve finds x^3+x+1 before x^3+x^2+1 (by code); sort_key puts
        # (1, 0, 1, 1) first, and so must both branches of enumerate
        f2x = PolynomialRing(2)
        ideals = f2x.maximal_ideals_up_to(3)
        finite, cofinite = (extend_filter(FilterDescriptor((AlgebraElement((s,)),)))
                            for s in (FinCofSet.finite(f2x, ideals), FinCofSet.cofinite(f2x)))
        listed = cofinite.enumerate(3)
        assert listed[-1].is_frechet
        assert finite.enumerate() == listed[:-1]
        assert enumerate_ultrafilters((f2x,), 3) == listed
        assert [u.principal.generator for u in listed[:-1]] == [
            (0, 1), (1, 1), (1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)]


class TestFilters:
    def test_fip_witness(self):
        a = AlgebraElement((FinCofSet.finite(ZZ, [ZZ.max_ideal(2)]),
                            FinCofSet.empty(ZZ)))
        b = AlgebraElement((FinCofSet.finite(ZZ, [ZZ.max_ideal(3)]),
                            FinCofSet.empty(ZZ)))
        result = fip_check([a, b])
        assert not result.holds
        assert set(result.witness) <= {a, b} and result.witness

    def test_fip_cofinite_pair(self):
        a = AlgebraElement((FinCofSet.cofinite(ZZ, [ZZ.max_ideal(2)]),))
        b = AlgebraElement((FinCofSet.cofinite(ZZ, [ZZ.max_ideal(3)]),))
        assert fip_check([a, b]).holds
        assert fip_check([AlgebraElement.top((ZZ,))]).holds

    def test_fip_minimal_witness(self):
        big = AlgebraElement((FinCofSet.cofinite(ZZ, []),))
        a = AlgebraElement((FinCofSet.finite(ZZ, [ZZ.max_ideal(2)]),))
        b = AlgebraElement((FinCofSet.finite(ZZ, [ZZ.max_ideal(3)]),))
        result = fip_check([big, a, b])
        assert not result.holds
        assert set(result.witness) == {a, b}
        # pruning never empties the witness, so a lone bottom is its own
        bottom = AlgebraElement.bottom((ZZ,))
        assert fip_check([bottom]) == FipResult(False, (bottom,))

    def test_filter_construction_enforces_fip(self):
        a = AlgebraElement((FinCofSet.finite(ZZ, [ZZ.max_ideal(2)]),))
        b = AlgebraElement((FinCofSet.finite(ZZ, [ZZ.max_ideal(3)]),))
        with pytest.raises(FiniteIntersectionViolation):
            FilterDescriptor((a, b))

    def test_extend_finite_set(self):
        f = FilterDescriptor((AlgebraElement(
            (FinCofSet.finite(ZZ, [ZZ.max_ideal(2), ZZ.max_ideal(3)]),)),))
        ext = extend_filter(f)
        out = ext.enumerate()
        assert [u.principal.generator for u in out] == [2, 3]
        assert not any(s.is_cofinite for s in ext.principal_sets)

    def test_extend_cofinite_set(self):
        f = FilterDescriptor((AlgebraElement(
            (FinCofSet.cofinite(ZZ, [ZZ.max_ideal(2)]),)),))
        ext = extend_filter(f)
        assert any(s.is_cofinite for s in ext.principal_sets)
        assert ext.frechet_coordinates == (0,)
        with pytest.raises(InconsistentInput):
            ext.enumerate()
        out = ext.enumerate(bound=7)
        gens = [u.principal.generator for u in out if not u.is_frechet]
        assert gens == [3, 5, 7]
        assert any(u.is_frechet for u in out)
        # membership-level completeness: a descriptor qualifies iff it
        # contains every generator
        for u in enumerate_ultrafilters((ZZ,), 7):
            assert ext.admits(u) == all(membership(u, g) for g in f.generators)

    def test_extend_top(self):
        f = FilterDescriptor((AlgebraElement.top((ZZ,)),))
        ext = extend_filter(f)
        for u in enumerate_ultrafilters((ZZ,), 13):
            assert ext.admits(u)
