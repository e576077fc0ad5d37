import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import random_element, rng_for
import prodideals
from prodideals import oracle
from prodideals.boolalg import (
    AlgebraElement,
    UltrafilterDescriptor,
    enumerate_ultrafilters,
    membership,
)
from prodideals.errors import ShapeMismatch, UnsupportedDescriptor
from prodideals.products import (
    RULE_INDEX_FILTER_CONCENTRATION,
    IndexUltrafilter,
    KernelIdeal,
    PointwiseMaxIdeal,
    ProductRing,
    UltrafilterIdeal,
    ValuationIdeal,
    enumerate_maximal_ideals,
    ideal_member,
    index_filter_of,
    is_maximal,
    is_prime,
    minimal_prime_below,
    skolem_check,
    vset_vector,
    witness_entries,
    witness_fillers,
)
from prodideals.rings import (
    FinCofSet,
    IntegerRing,
    LocalizedIntegersRing,
    PolynomialRing,
    ResidueRing,
    vset,
    vset_pair,
)
from prodideals.valuations import ValueVector

ZZ = IntegerRing()
ZXZ = ProductRing((ZZ, ZZ))


class TestVsetVector:
    def test_worked_examples(self):
        assert vset_vector(ZXZ.element([12, 5])) == AlgebraElement((
            FinCofSet.finite(ZZ, [ZZ.max_ideal(2), ZZ.max_ideal(3)]),
            FinCofSet.finite(ZZ, [ZZ.max_ideal(5)])))
        one = vset_vector(ZXZ.element([1, 1]))
        assert all(c.is_empty for c in one.coords)
        zero_first = vset_vector(ZXZ.element([0, 6]))
        assert zero_first.coords[0].is_all
        assert {m.generator for m in zero_first.coords[1].support} == {2, 3}

    def test_only_zero_vanishes_everywhere(self):
        product = ProductRing((ZZ, ResidueRing(6), PolynomialRing(2)))
        for values in itertools.product((0, 5), (0, 3), ((), (0, 1))):
            a = product.element(values)
            assert a.is_zero == (a == product.zero) == all(
                c.is_all for c in vset_vector(a).coords)

    def test_join_rule_sampled(self):
        # the vanishing tuple of a product is the coordinatewise union
        shapes = [ZXZ, ProductRing((ZZ, ZZ, ZZ)),
                  ProductRing((ResidueRing(12), ResidueRing(10))),
                  ProductRing((PolynomialRing(2), PolynomialRing(2)))]
        for product in shapes:
            rng = rng_for(f"s-join-{product}")
            for _ in range(150):
                a = product.element([random_element(r, rng, small=True).raw
                                     for r in product.components])
                b = product.element([random_element(r, rng, small=True).raw
                                     for r in product.components])
                sa, sb, sab = vset_vector(a), vset_vector(b), vset_vector(a * b)
                assert sab == AlgebraElement(tuple(
                    x.union(y) for x, y in zip(sa.coords, sb.coords)))

    def test_meet_rule_sampled(self):
        # the coordinatewise meet is the vanishing tuple of the pair ideal
        for product in (ZXZ, ProductRing((ResidueRing(12), ResidueRing(10)))):
            rng = rng_for(f"s-meet-{product}")
            for _ in range(150):
                a = product.element([random_element(r, rng, small=True).raw
                                     for r in product.components])
                b = product.element([random_element(r, rng, small=True).raw
                                     for r in product.components])
                sa, sb = vset_vector(a), vset_vector(b)
                expected = AlgebraElement(tuple(
                    vset_pair(r, x, y) for r, x, y in
                    zip(product.components, a.entries, b.entries)))
                assert AlgebraElement(tuple(
                    x.intersection(y) for x, y in zip(sa.coords, sb.coords))) == expected


class TestIdealMember:
    def test_worked_examples(self):
        u2 = UltrafilterDescriptor(ZXZ.shape, 0, ZZ.max_ideal(2))
        uf = UltrafilterDescriptor(ZXZ.shape, 0, None)
        assert ideal_member(UltrafilterIdeal(ZXZ, u2), ZXZ.element([6, 5]))
        assert not ideal_member(UltrafilterIdeal(ZXZ, uf), ZXZ.element([6, 5]))
        assert ideal_member(UltrafilterIdeal(ZXZ, uf), ZXZ.element([0, 5]))
        assert ideal_member(KernelIdeal(ZXZ, IndexUltrafilter(1)),
                            ZXZ.element([7, 0]))

    def test_matches_membership_of_vset_vector(self):
        # fast path versus the defining membership test
        u2 = UltrafilterDescriptor(ZXZ.shape, 1, ZZ.max_ideal(3))
        uf = UltrafilterDescriptor(ZXZ.shape, 0, None)
        rng = rng_for("member-cross")
        for _ in range(200):
            a = ZXZ.element([random_element(ZZ, rng, small=True).raw
                             for _ in range(2)])
            s = vset_vector(a)
            assert ideal_member(UltrafilterIdeal(ZXZ, u2), a) == membership(u2, s)
            assert ideal_member(UltrafilterIdeal(ZXZ, uf), a) == membership(uf, s)

    def test_shape_mismatch(self):
        u2 = UltrafilterDescriptor(ZXZ.shape, 0, ZZ.max_ideal(2))
        other = ProductRing((ZZ,))
        with pytest.raises(ShapeMismatch):
            ideal_member(UltrafilterIdeal(ZXZ, u2), other.element([2]))


class TestIsPrime:
    def test_verdicts(self):
        u2 = UltrafilterDescriptor(ZXZ.shape, 0, ZZ.max_ideal(2))
        assert is_prime(UltrafilterIdeal(ZXZ, u2))
        assert is_prime(KernelIdeal(ZXZ, IndexUltrafilter(0)))
        g0 = ValueVector(ZXZ.shape, (0, 1), ())
        with pytest.raises(UnsupportedDescriptor):
            is_prime(ValuationIdeal(ZXZ, u2, g0))

    def test_kernel_not_prime_over_composite_residue(self):
        product = ProductRing((ResidueRing(12), ResidueRing(7)))
        assert not is_prime(KernelIdeal(product, IndexUltrafilter(0)))
        assert is_prime(KernelIdeal(product, IndexUltrafilter(1)))

    def test_closure_sampled(self):
        # no sampled pair violates primality
        f2x = PolynomialRing(2)
        cases = [
            (ZXZ, UltrafilterIdeal(ZXZ, UltrafilterDescriptor(ZXZ.shape, 0, ZZ.max_ideal(2)))),
            (ZXZ, UltrafilterIdeal(ZXZ, UltrafilterDescriptor(ZXZ.shape, 0, None))),
            (ZXZ, KernelIdeal(ZXZ, IndexUltrafilter(1))),
            (ProductRing((f2x, f2x)),
             UltrafilterIdeal(ProductRing((f2x, f2x)),
                              UltrafilterDescriptor((f2x, f2x), 0, f2x.max_ideal((0, 1))))),
        ]
        for product, ideal in cases:
            assert is_prime(ideal)
            rng = rng_for(f"closure-{ideal}")

            def draw():
                # bias toward zero entries so kernel-like ideals get hits
                return product.element([
                    r.zero.raw if rng.random() < 0.25
                    else random_element(r, rng, small=True).raw
                    for r in product.components])

            checked = 0
            for _ in range(300):
                a, b = draw(), draw()
                if ideal_member(ideal, a * b):
                    checked += 1
                    assert ideal_member(ideal, a) or ideal_member(ideal, b)
            assert checked > 10

    def test_closure_exhaustive_small(self):
        product = ProductRing((ResidueRing(4), ResidueRing(9)))
        u = UltrafilterDescriptor(product.shape, 0,
                                  product.components[0].max_ideal(2))
        ideal = UltrafilterIdeal(product, u)
        member = {e for e in itertools.product(range(4), range(9))
                  if ideal_member(ideal, product.element(list(e)))}
        for a in itertools.product(range(4), range(9)):
            for b in itertools.product(range(4), range(9)):
                ab = (a[0] * b[0] % 4, a[1] * b[1] % 9)
                if ab in member:
                    assert a in member or b in member


class TestIsMaximal:
    def test_principal_true_with_witness(self):
        u = UltrafilterDescriptor(ZXZ.shape, 0, ZZ.max_ideal(2))
        verdict = is_maximal(UltrafilterIdeal(ZXZ, u))
        assert verdict.is_maximal
        w = verdict.witness
        assert w is not None and all(not e.is_zero for e in w.entries)
        assert membership(u, vset_vector(w))

    def test_frechet_false(self):
        u = UltrafilterDescriptor(ZXZ.shape, 0, None)
        verdict = is_maximal(UltrafilterIdeal(ZXZ, u))
        assert not verdict.is_maximal
        assert verdict.witness is None

    def test_residue_product_brute_force(self):
        product = ProductRing((ResidueRing(12), ResidueRing(10)))
        u = UltrafilterDescriptor(product.shape, 1,
                                  product.components[1].max_ideal(5))
        verdict = is_maximal(UltrafilterIdeal(product, u))
        assert verdict.is_maximal
        elements = oracle.descriptor_elements(UltrafilterIdeal(product, u))
        oracle_max = set(oracle.oracle_run([12, 10], mark_primes=False).maximal)
        assert elements in oracle_max

    def test_field_component_concentration(self):
        product = ProductRing((ResidueRing(5), ZZ))
        u = UltrafilterDescriptor(product.shape, 0,
                                  product.components[0].max_ideal(5))
        verdict = is_maximal(UltrafilterIdeal(product, u))
        assert verdict.is_maximal
        assert verdict.witness is None  # no nonzero-entry witness exists over a field

    @pytest.mark.parametrize("product, bound", [
        (ProductRing((ZZ, LocalizedIntegersRing((2, 3)), ResidueRing(30))), 60),
        (ProductRing((PolynomialRing(2), ResidueRing(7))), 6),
        (ProductRing((PolynomialRing(4),)), 3),
    ])
    def test_witnesses_satisfy_the_definition(self, product, bound):
        # is_maximal checks its witness by division; this is the check by
        # the definition: factor every entry and test ultrafilter membership
        for ideal in enumerate_maximal_ideals(product, bound):
            verdict = is_maximal(ideal)
            field = product.components[ideal.u.coordinate].nonzero_nonunit() is None
            assert (verdict.witness is None) == field
            if not field:
                assert all(not e.is_zero for e in verdict.witness.entries)
                assert membership(ideal.u, vset_vector(verdict.witness))

    def test_fillers_built_once_per_product(self):
        product = ProductRing((ZZ, ResidueRing(30), ResidueRing(11)))
        witness_fillers.cache_clear()
        accepted = enumerate_maximal_ideals(product, 50)
        info = witness_fillers.cache_info()
        assert len(accepted) == 15 + 3 + 1
        assert (info.misses, info.hits) == (1, 15 + 3 - 1)

    def test_witness_entry_takes_a_polynomial_generator_as_it_is(self, monkeypatch):
        # a generator is already a normal coefficient tuple; a Z_(S) generator
        # is an int, as its element's raw value is
        F9X, L23 = PolynomialRing(9), LocalizedIntegersRing((2, 3))
        gens = F9X.generators_up_to(2)
        monkeypatch.setattr(PolynomialRing, "normalize", None)
        assert witness_entries(F9X, gens) == gens
        monkeypatch.undo()
        assert witness_entries(F9X, gens) == [F9X.element(g).raw for g in gens]
        assert witness_entries(L23, L23.primes) == [L23.element(p).raw for p in L23.primes]
        assert [type(raw).__name__ for raw in witness_entries(L23, L23.primes)] == ["int", "int"]

    @pytest.mark.parametrize("ring, bound", [
        (ZZ, 200), (ResidueRing(7), None), (ResidueRing(12), None),
        (LocalizedIntegersRing((2, 3)), None), (LocalizedIntegersRing((9007199254740997,)), None),
        (PolynomialRing(2), 7), (PolynomialRing(8), 2), (PolynomialRing(9), 2),
    ])
    def test_bulk_entries_are_the_verdicts_witness_entries(self, ring, bound):
        # the entries maxideals checks a chunk at a time, against the witness
        # of is_maximal at each listed ideal, built one ideal at a time
        product = ProductRing((ZZ, ring))
        ideals = ring.maximal_ideals_up_to(bound)
        expected = []
        for m in ideals:
            verdict = is_maximal(UltrafilterIdeal(product, UltrafilterDescriptor(
                product.shape, 1, m)))
            assert verdict.is_maximal
            expected.append(None if verdict.witness is None else verdict.witness.entries[1].raw)
        entries = witness_entries(ring, [m.generator for m in ideals])
        assert entries == expected
        assert [type(e) for e in entries] == [type(e) for e in expected]
        assert (None in entries) == (ring.nonzero_nonunit() is None)

    def test_witness_check_survives_optimize_flag(self):
        # with the division check forced to fail, is_maximal must raise even
        # under python -O, which strips assert statements
        src = str(pathlib.Path(prodideals.__file__).resolve().parent.parent)
        code = "\n".join([
            "import sys",
            "from prodideals.boolalg import UltrafilterDescriptor",
            "from prodideals.products import ProductRing, UltrafilterIdeal, is_maximal",
            "from prodideals.rings import IntegerRing",
            "IntegerRing._in_max_ideal = lambda self, raw, gen: False",
            "ZZ = IntegerRing()",
            "R = ProductRing((ZZ, ZZ))",
            "u = UltrafilterDescriptor(R.shape, 0, ZZ.max_ideal(5))",
            "try:",
            "    is_maximal(UltrafilterIdeal(R, u))",
            "except AssertionError as exc:",
            "    print('raised', sys.flags.optimize, exc)",
        ])
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             check=True, capture_output=True, text=True).stdout
        assert out.startswith("raised 1 witness entry 5 in Z is not in (5)")


class TestMinimalPrime:
    def test_concentration(self):
        u = UltrafilterDescriptor(ZXZ.shape, 0, ZZ.max_ideal(2))
        assert index_filter_of(u) == IndexUltrafilter(0)
        uf = UltrafilterDescriptor(ZXZ.shape, 1, None)
        assert index_filter_of(uf) == IndexUltrafilter(1)
        prime = minimal_prime_below(UltrafilterIdeal(ZXZ, u))
        assert prime.verdict.f.coordinate == 0
        assert prime.rule == RULE_INDEX_FILTER_CONCENTRATION

    def test_indicator_verification(self):
        # the tuple vanishing exactly at the concentration coordinate lies in
        # the kernel and in every ultrafilter ideal concentrated there
        chi = ZXZ.indicator([1])
        s = vset_vector(chi)
        assert s.coords[0].is_all and s.coords[1].is_empty
        for u in (UltrafilterDescriptor(ZXZ.shape, 0, ZZ.max_ideal(7)),
                  UltrafilterDescriptor(ZXZ.shape, 0, None)):
            assert ideal_member(UltrafilterIdeal(ZXZ, u), chi)

    def test_containment_biconditional(self):
        # kernel at F sits inside the ultrafilter ideal iff F is the induced
        # index ultrafilter; refutation via the indicator element
        products_to_test = [ZXZ, ProductRing((ResidueRing(12), ResidueRing(10)))]
        for product in products_to_test:
            rng = rng_for(f"mp-{product}")
            descriptors = enumerate_ultrafilters(product.shape, 5)
            for u in descriptors:
                ideal = UltrafilterIdeal(product, u)
                for coord in range(product.size):
                    chi = product.indicator(
                        [i for i in range(product.size) if i != coord])
                    contained = True
                    if not ideal_member(ideal, chi):
                        contained = False
                    # random members of the kernel at coord
                    for _ in range(25):
                        entries = [random_element(r, rng, small=True).raw
                                   for r in product.components]
                        entries[coord] = product.components[coord].zero.raw
                        if not ideal_member(ideal, product.element(entries)):
                            contained = False
                            break
                    assert contained == (coord == u.coordinate)

    def test_quotient_by_kernel_is_component(self):
        # elements agree modulo the kernel iff they agree at the coordinate
        kernel = KernelIdeal(ZXZ, IndexUltrafilter(0))
        rng = rng_for("kernel-quotient")
        for _ in range(100):
            a = ZXZ.element([random_element(ZZ, rng, small=True).raw for _ in range(2)])
            b = ZXZ.element([random_element(ZZ, rng, small=True).raw for _ in range(2)])
            assert ideal_member(kernel, a - b) == (a.entries[0] == b.entries[0])


class TestEnumerateMaximal:
    def test_residue_grid_sample(self):
        for moduli in ((4, 9), (12, 10), (30,), (8, 9, 5)):
            product = ProductRing(tuple(ResidueRing(n) for n in moduli))
            ours = {oracle.descriptor_elements(i)
                    for i in enumerate_maximal_ideals(product)}
            brute = set(oracle.oracle_run(list(moduli), mark_primes=False).maximal)
            assert ours == brute

    def test_integers_squared(self):
        out = enumerate_maximal_ideals(ZXZ, 3)
        assert len(out) == 4
        keys = [(i.u.coordinate, i.u.principal.generator) for i in out]
        assert keys == [(0, 2), (0, 3), (1, 2), (1, 3)]


class TestSkolem:
    def test_worked_examples(self):
        result = skolem_check([ZXZ.element([2, 3]), ZXZ.element([3, 2])])
        assert result.holds
        total = ZXZ.zero
        for c, e in zip(result.certificate,
                        [ZXZ.element([2, 3]), ZXZ.element([3, 2])]):
            total = total + c * e
        assert total == ZXZ.one

        # a unit entry settles its own coordinate, the other still needs a
        # coprime pair there
        result = skolem_check([ZXZ.element([2, 1]), ZXZ.element([3, 1])])
        assert result.holds

        result = skolem_check([ZXZ.element([2, 3]), ZXZ.element([4, 3])])
        assert not result.holds
        coord, ideal = result.witness
        assert coord == 0 and ideal.generator == 2

    def test_random_coprime_tuples(self):
        rng = rng_for("skolem-random")
        produced = 0
        for _ in range(200):
            elems = [ZXZ.element([random_element(ZZ, rng, small=True).raw
                                  for _ in range(2)]) for _ in range(3)]
            result = skolem_check(elems)
            if result.holds:
                produced += 1
                total = ZXZ.zero
                for c, e in zip(result.certificate, elems):
                    total = total + c * e
                assert total == ZXZ.one
            else:
                coord, ideal = result.witness
                for e in elems:
                    assert ideal.contains(e.entries[coord])
        assert produced > 50
