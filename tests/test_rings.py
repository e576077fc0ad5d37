import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import random_element, rng_for
from prodideals import fqpoly
from prodideals.errors import (
    BudgetExceeded,
    FactorizationBudgetExceeded,
    InconsistentInput,
    NotUnitIdeal,
    UnsupportedRing,
)
from prodideals.rings import (
    INF,
    FinCofSet,
    IntegerRing,
    LocalizedIntegersRing,
    MaxIdealId,
    PolynomialRing,
    ResidueRing,
    ZERO_MARKER,
    ZeroMarker,
    bezout_certificate,
    crt_solve,
    dset,
    jacobson_radical_generator,
    prime_factors,
    valuation,
    vset,
    vset_pair,
)


def brute_divisor_ideals(n):
    """Independent oracle: ideals of the integers mod n are the divisor
    ideals; maximal ones are found by inclusion among the proper ones."""
    ideals = {d: frozenset(range(0, n, d)) for d in range(1, n + 1) if n % d == 0}
    proper = {d: s for d, s in ideals.items() if d != 1}
    maximal = []
    for d, s in proper.items():
        if not any(e != d and s < t for e, t in proper.items()):
            maximal.append((d, s))
    return maximal


def gens(fcs):
    return {m.generator for m in fcs.sorted_support()}


class TestVset:
    def test_integers_examples(self, ZZ):
        assert gens(vset(ZZ, ZZ.element(12))) == {2, 3}
        s = vset(ZZ, ZZ.element(0))
        assert s.is_cofinite and not s.support
        assert vset(ZZ, ZZ.element(1)).is_empty
        assert vset(ZZ, ZZ.element(-1)).is_empty

    def test_residue_against_brute_force(self):
        # derived: membership in each brute-force maximal ideal
        for n in (12, 30, 8, 7, 60):
            ring = ResidueRing(n)
            maximal = brute_divisor_ideals(n)
            for r in range(n):
                expected = {d for d, s in maximal if r in s}
                assert gens(vset(ring, ring.element(r))) == expected

    def test_residue_worked_example(self):
        ring = ResidueRing(12)
        assert gens(vset(ring, ring.element(2))) == {2}
        assert gens(dset(ring, ring.element(2))) == {3}

    def test_dset_complement(self, ZZ):
        d = dset(ZZ, ZZ.element(12))
        assert d.is_cofinite and gens(d) == {2, 3}
        assert dset(ZZ, ZZ.element(0)).is_empty

    def test_localized(self, L25):
        assert gens(vset(L25, L25.element(Fraction(10, 3)))) == {2, 5}
        assert gens(vset(L25, L25.element(3))) == set()
        assert gens(vset(L25, L25.element(0))) == {2, 5}

    def test_poly(self, F2X):
        assert gens(vset(F2X, F2X.element((0, 1, 1)))) == {(0, 1), (1, 1)}
        assert vset(F2X, F2X.element((1,))).is_empty
        assert vset(F2X, F2X.element(())).is_all
        assert vset(F2X, F2X.element(())).is_cofinite

    def test_multiplicativity_sampled(self, ZZ, L25, F2X):
        # vanishing set of a product is the union of the vanishing sets
        for ring in (ZZ, L25, F2X):
            rng = rng_for(f"vset-mult-{ring.short_name}")
            for _ in range(300):
                a = random_element(ring, rng, small=True)
                b = random_element(ring, rng, small=True)
                assert vset(ring, a * b) == vset(ring, a).union(vset(ring, b))

    def test_budget(self, ZZ):
        big = (2**61 - 1) * (2**89 - 1)  # two large primes
        with pytest.raises(FactorizationBudgetExceeded):
            vset(ZZ, ZZ.element(big), budget=10**4)


class TestElementArithmetic:
    def test_negation_reduces_mod_n(self, R12):
        for a in range(12):
            neg = -R12.element(a)
            assert 0 <= neg.raw < 12 and (neg + R12.element(a)).is_zero
        assert R12.element(3) - R12.element(5) == R12.element(10)

    def test_units_are_the_invertible_elements(self, ZZ, R12, F2X):
        # derived: a unit is an element with an inverse among the candidates
        polys = [coeffs for d in range(4) for coeffs in itertools.product((0, 1), repeat=d)]
        for ring, candidates in ((ZZ, range(-6, 7)), (R12, range(12)), (F2X, polys)):
            for v in candidates:
                x = ring.element(v)
                assert x.is_unit == any(x * ring.element(w) == ring.one
                                        for w in candidates), (ring, v)

    def test_local_units_are_the_invertible_elements(self, L25):
        for n in range(-12, 13):
            for d in (1, 3, 7):
                x = L25.element(Fraction(n, d))
                try:
                    # an integral raw value is an int: invert it exactly
                    inverse = L25.element(1 / Fraction(x.raw)) if n else None
                except ValueError:  # a denominator divisible by 2 or 5
                    inverse = None
                assert x.is_unit == (inverse is not None), x
                assert inverse is None or x * inverse == L25.one


class TestInfinity:
    def test_absorbs_sums_and_nonzero_multiples(self):
        for n in (0, 1, 7, INF):
            assert INF + n is INF and n + INF is INF
        for n in (1, 7, INF):
            assert INF * n is INF and n * INF is INF
        with pytest.raises(ValueError):
            INF * 0
        with pytest.raises(ValueError):
            0 * INF
        with pytest.raises(TypeError):
            INF + 1.5


class TestValuation:
    def test_examples(self, ZZ, F2X):
        assert valuation(ZZ, ZZ.element(24), ZZ.max_ideal(2)) == 3
        assert valuation(ZZ, ZZ.element(0), ZZ.max_ideal(5)) is INF
        assert valuation(F2X, F2X.element((0, 1, 1)), F2X.max_ideal((1, 1))) == 1

    def test_residue_rejected(self, R12):
        with pytest.raises(UnsupportedRing, match="Z/12 carries no discrete valuations"):
            valuation(R12, R12.element(2), MaxIdealId(R12, 2))

    def test_additive_and_ultrametric(self, ZZ, L25, F2X):
        for ring, ideal in ((ZZ, ZZ.max_ideal(3)),
                            (L25, L25.max_ideal(5)),
                            (F2X, F2X.max_ideal((0, 1)))):
            rng = rng_for(f"valuation-{ring.short_name}")
            for _ in range(300):
                a = random_element(ring, rng, small=True)
                b = random_element(ring, rng, small=True)
                va, vb = valuation(ring, a, ideal), valuation(ring, b, ideal)
                assert valuation(ring, a * b, ideal) == va + vb if not (
                    a.is_zero or b.is_zero) else True
                vsum = valuation(ring, a + b, ideal)
                assert vsum >= min(va, vb, key=lambda v: (v is INF, v)) or vsum is INF
                if va != vb:
                    expected = va if (vb is INF or (va is not INF and va < vb)) else vb
                    assert vsum == expected


class TestCrt:
    def test_examples(self, ZZ, F2X):
        r = crt_solve(ZZ, [(ZZ.max_ideal(2), 2, ZZ.element(1)),
                           (ZZ.max_ideal(3), 1, ZZ.element(0))])
        assert r.raw == 9
        assert crt_solve(ZZ, [(ZZ.max_ideal(5), 1, ZZ.element(0))]).raw == 0
        r = crt_solve(F2X, [(F2X.max_ideal((0, 1)), 1, F2X.element(1)),
                            (F2X.max_ideal((1, 1)), 1, F2X.element(0))])
        assert r.raw == (1, 1)
        # an exponent-0 congruence asks nothing
        r = crt_solve(ZZ, [(ZZ.max_ideal(2), 0, 1), (ZZ.max_ideal(3), 1, 2)])
        assert r.raw == 2

    def test_random_reverification(self, ZZ, L25, F2X):
        # every congruence re-checked by direct reduction
        for ring, ideals in ((ZZ, [ZZ.max_ideal(p) for p in (2, 3, 5, 7)]),
                             (L25, [L25.max_ideal(p) for p in (2, 5)]),
                             (F2X, [F2X.max_ideal(g) for g in ((0, 1), (1, 1), (1, 1, 1))])):
            rng = rng_for(f"crt-{ring.short_name}")
            for _ in range(100):
                congruences = []
                for m in ideals:
                    if rng.random() < 0.3:
                        continue
                    congruences.append((m, rng.randint(1, 3),
                                        random_element(ring, rng, small=True)))
                if not congruences:
                    continue
                x = crt_solve(ring, congruences)
                for m, e, res in congruences:
                    assert valuation(ring, x - res, m) is INF or \
                        valuation(ring, x - res, m) >= e

    def test_repeated_ideal_rejected(self, ZZ):
        with pytest.raises(InconsistentInput):
            crt_solve(ZZ, [(ZZ.max_ideal(2), 1, ZZ.element(0)),
                           (ZZ.max_ideal(2), 2, ZZ.element(1))])

    def test_prime_power_field_congruences(self):
        ring = PolynomialRing(4)
        rng = rng_for("crt-f4")
        ideals = [ring.max_ideal((0, 1)), ring.max_ideal((1, 1)),
                  ring.max_ideal((2, 1))]
        for _ in range(60):
            congruences = [
                (m, rng.randint(1, 4),
                 ring.element(tuple(rng.randrange(4)
                                    for _ in range(rng.randint(1, 4)))))
                for m in ideals]
            x = crt_solve(ring, congruences)
            for m, e, res in congruences:
                assert valuation(ring, x - res, m) >= e


class TestBezout:
    def test_examples(self, ZZ):
        c = bezout_certificate(ZZ, [ZZ.element(2), ZZ.element(3)])
        assert [e.raw for e in c] == [-1, 1]
        c = bezout_certificate(ZZ, [ZZ.element(6), ZZ.element(10), ZZ.element(15)])
        total = sum((ci * ei for ci, ei in
                     zip(c, [ZZ.element(6), ZZ.element(10), ZZ.element(15)])), ZZ.zero)
        assert total == ZZ.one
        with pytest.raises(NotUnitIdeal) as exc:
            bezout_certificate(ZZ, [ZZ.element(2), ZZ.element(4)])
        assert exc.value.witness.generator == 2

    @pytest.mark.parametrize("ring_name", ["ZZ", "R12", "L25", "F2X"])
    def test_random_certificates(self, ring_name, ZZ, R12, L25, F2X):
        ring = {"ZZ": ZZ, "R12": R12, "L25": L25, "F2X": F2X}[ring_name]
        rng = rng_for(f"bezout-{ring_name}")
        produced = 0
        for _ in range(400):
            elems = [random_element(ring, rng, small=True) for _ in range(3)]
            try:
                coeffs = bezout_certificate(ring, elems)
            except NotUnitIdeal as exc:
                for e in elems:
                    assert exc.witness.contains(e)
                continue
            total = ring.zero
            for c, e in zip(coeffs, elems):
                total = total + c * e
            assert total == ring.one
            produced += 1
        assert produced > 20

    def test_all_zero(self, ZZ):
        with pytest.raises(NotUnitIdeal) as exc:
            bezout_certificate(ZZ, [ZZ.element(0), ZZ.element(0)])
        assert exc.value.witness.generator == 2
        # no elements, or only zeros: the witness is found without listing
        # the spectrum, which over F_(2^61 - 1)[x] stops at degree 2
        big = PolynomialRing(2305843009213693951)
        with pytest.raises(BudgetExceeded):
            big.generators_up_to(2)
        for ring, witness in ((ZZ, "(2)"), (ResidueRing(12), "(2)"), (ResidueRing(7), "(7)"),
                              (LocalizedIntegersRing((3, 5)), "(3)"),
                              (PolynomialRing(2), "(x)"), (big, "(x)")):
            for elems in ([], [0, 0]):
                with pytest.raises(NotUnitIdeal) as exc:
                    bezout_certificate(ring, elems)
                assert exc.value.witness.ring == ring, (ring, elems)
                assert repr(exc.value.witness) == witness, (ring, elems)

    @pytest.mark.parametrize("ring, units, nonunits", [
        (IntegerRing(), {1: 1, -1: -1}, {-6: 2, 35: 5, 0: 2}),
        (ResidueRing(12), {5: 5, 7: 7, -1: 11}, {9: 3, 8: 2, 6: 2, 0: 2}),
        (ResidueRing(7), {3: 5, 6: 6}, {0: 7}),
        (LocalizedIntegersRing((2, 5)), {Fraction(3, 7): Fraction(7, 3), -1: -1},
         {Fraction(10, 3): 2, 25: 5, 0: 2}),
        (PolynomialRing(5), {(3,): (2,), (4,): (4,)},
         {(0, 2): (0, 1), (2, 0, 3): (1, 1), (1, 0, 1): (2, 1), (): (0, 1)}),
        (PolynomialRing(2), {(1,): (1,)}, {(1, 1, 1): (1, 1, 1), (1, 0, 1): (1, 1)}),
    ])
    def test_single_element_chains(self, ring, units, nonunits):
        # a unit's certificate is its inverse; a nonunit's witness is the
        # first maximal ideal containing it in listing order, and zero's is
        # the smallest maximal ideal
        for u, inverse in units.items():
            (c,) = bezout_certificate(ring, [u])
            assert c == ring.element(inverse) and c * u == ring.one
        for e, gen in nonunits.items():
            with pytest.raises(NotUnitIdeal) as exc:
                bezout_certificate(ring, [e])
            assert exc.value.witness == ring.max_ideal(gen)
            assert exc.value.witness.contains(e)
        with pytest.raises(NotUnitIdeal) as exc:
            bezout_certificate(ring, [ring.zero])
        assert exc.value.witness == ring.smallest_max_ideal()

    def test_budget(self, ZZ):
        # the common gcd is factored for the witness under the given budget
        n = 10007 * 10009
        with pytest.raises(NotUnitIdeal) as exc:
            bezout_certificate(ZZ, [n, 2 * n])
        assert exc.value.witness.generator == 10007
        with pytest.raises(FactorizationBudgetExceeded, match=f"^cofactor {n} "):
            bezout_certificate(ZZ, [n, 2 * n], budget=100)


class TestLocalizedIntegralValues:
    """An integral Z_(S) value is an int however it is written."""

    @staticmethod
    def _bezout(ring, elems):
        try:
            return bezout_certificate(ring, elems)
        except NotUnitIdeal as exc:
            return exc.witness

    def test_every_form_gives_the_same_answers(self):
        from prodideals.products import ProductRing, skolem_check
        from prodideals.scenario import encode_ring_element
        rng = rng_for("localized-integral-forms")
        for _ in range(40):
            ring = LocalizedIntegersRing(tuple(rng.sample((2, 3, 5, 7, 11), rng.randint(1, 3))))
            ideals = ring.maximal_spectrum()
            product = ProductRing((ring, IntegerRing()))
            n = rng.choice((0, 1, -1, rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)))
            other = rng.randint(-1000, 1000)
            answers = []
            for form in (n, str(n), f"{2 * n}/2", Fraction(n)):
                x = ring.element(form)
                assert type(x.raw) is int and x.raw == n
                answers.append((
                    x, hash(x), vset(ring, x), [valuation(ring, x, m) for m in ideals],
                    crt_solve(ring, [(m, 2, form) for m in ideals]),
                    self._bezout(ring, [x, other]),
                    skolem_check([product.element((form, 3)), product.element((other, 2))]),
                    encode_ring_element(x)))
            assert all(a == answers[0] for a in answers[1:]), (ring, n)
            assert answers[0][-1] == n

    def test_integral_sums_and_products_are_ints(self):
        from prodideals.scenario import encode_ring_element
        L2 = LocalizedIntegersRing((2,))
        third = L2.element("1/3")
        for x in (third * 3, third + "2/3", third - "-2/3", L2.element("3/5") * "5/3"):
            assert type(x.raw) is int and x.raw == 1 and x == L2.one
            assert encode_ring_element(x) == 1
        assert (third + third).raw == Fraction(2, 3)
        # over Z too, an integral Fraction is read as an int
        ZZ = IntegerRing()
        assert type(ZZ.element(Fraction(4, 2)).raw) is int and ZZ.element(Fraction(4, 2)).raw == 2
        with pytest.raises(ValueError, match="^1/2 is not an integer$"):
            ZZ.element(Fraction(1, 2))

    def test_cover_unit_is_an_exact_fraction(self):
        L2 = LocalizedIntegersRing((2,))
        assert L2._cover(6) == (2, Fraction(1, 3))
        assert L2._cover(-6) == (2, Fraction(-1, 3))
        assert type(L2._cover(6)[1]) is Fraction


class TestDefaultsMatchTheRemovedOverrides:
    """``Z/n`` and ``Z_(S)`` take their arithmetic from ``normalize`` and their
    units and nonzero nonunit from ``primes``, ``Z`` and ``Fq[x]`` their units
    from ``_normal`` and their nonzero nonunit and smallest maximal ideal from
    ``_first_generator``, and every kind its valuation from ``rings.valuation``;
    the forms each kind once spelt out are the reference."""

    @staticmethod
    def same(a, b):
        return type(a) is type(b) and a == b

    def test_residue_rings(self):
        rng = rng_for("residue-defaults")
        for n in range(2, 401):
            ring = ResidueRing(n)
            p = ring.primes[0]
            assert ring.nonzero_nonunit() == (None if p == n else ring.element(p)), n
            assert [ring._is_unit(x) for x in range(n)] == \
                [math.gcd(x, n) == 1 for x in range(n)], n
            # chains also combine values outside range(n)
            for _ in range(8):
                x, y = rng.randint(-3 * n, 3 * n), rng.randint(-3 * n, 3 * n)
                assert self.same(ring._add(x, y), (x + y) % n)
                assert self.same(ring._neg(x), (-x) % n)
                assert self.same(ring._mul(x, y), (x * y) % n)

    def test_localized_rings(self):
        rng = rng_for("localized-defaults")
        for _ in range(400):
            ring = LocalizedIntegersRing(tuple(rng.sample((2, 3, 5, 7, 11, 13),
                                                          rng.randint(1, 3))))
            assert ring.nonzero_nonunit() == ring.element(ring.primes[0])
            x, y = (random_element(ring, rng).raw * rng.choice((1, 1, ring.primes[-1]))
                    for _ in range(2))
            for v in (x, y, 0):
                assert ring._is_unit(v) == (v != 0 and all(v.numerator % p for p in ring.primes))
            assert self.same(ring._add(x, y), ring.normalize(x + y))
            assert self.same(ring._neg(x), -x)
            assert self.same(ring._mul(x, y), ring.normalize(x * y))

    def test_integers(self, ZZ):
        rng = rng_for("integer-defaults")
        for _ in range(200):
            x, y = rng.randint(-10**30, 10**30), rng.randint(-10**6, 10**6)
            assert self.same(ZZ._add(x, y), x + y)
            assert self.same(ZZ._neg(x), -x)
            assert self.same(ZZ._mul(x, y), x * y)
            assert ZZ._is_unit(x) == (x in (1, -1)), x
        for x in (0, 1, -1, 2, -2, 2**64, -2**64 - 1, 2**64 + 1):
            assert ZZ._is_unit(x) == (x in (1, -1)), x

    def test_polynomial_units(self):
        rng = rng_for("polynomial-units")
        # every trimmed polynomial of degree <= 3 over F2, F3, F4 and F9
        for q in (2, 3, 4, 9):
            ring = PolynomialRing(q)
            for length in range(5):
                for coeffs in itertools.product(range(q), repeat=length):
                    if coeffs and not coeffs[-1]:
                        continue
                    assert ring._is_unit(coeffs) == (fqpoly.deg(coeffs) == 0), (q, coeffs)
        big = PolynomialRing(2305843009213693951)
        for _ in range(200):
            x = big.normalize([rng.randrange(big.q) for _ in range(rng.randint(0, 4))])
            assert big._is_unit(x) == (fqpoly.deg(x) == 0), x

    def test_first_generator(self, ZZ):
        for ring, raw, name in ((ZZ, 2, "(2)"), (PolynomialRing(2), (0, 1), "(x)"),
                                (PolynomialRing(9), (0, 1), "(x)"),
                                (PolynomialRing(2305843009213693951), (0, 1), "(x)")):
            assert self.same(ring.nonzero_nonunit().raw, raw)
            assert ring.smallest_max_ideal() == MaxIdealId(ring, raw)
            assert repr(ring.smallest_max_ideal()) == name

    @staticmethod
    def removed_valuation(ring, elem, ideal):
        raw, v = ring.element(elem).raw, 0
        if not raw:
            return INF
        while True:
            raw, r = ring._divmod(raw, ideal.generator)
            if r:
                return v
            v += 1

    def test_valuation(self, ZZ, R12):
        rng = rng_for("valuation-defaults")
        big = PolynomialRing(2305843009213693951)
        for ring, gens in ((ZZ, (2, 3, 10007)), (LocalizedIntegersRing((2, 5)), (2, 5)),
                           (LocalizedIntegersRing((3,)), (3,)),
                           (PolynomialRing(2), ((0, 1), (1, 1))),
                           (PolynomialRing(9), ((0, 1),)), (big, ((0, 1), (1, 1)))):
            for gen in gens:
                ideal = ring.max_ideal(gen)
                for _ in range(60):
                    x = random_element(ring, rng)
                    for _ in range(rng.randint(0, 6)):
                        x = x * gen
                    assert valuation(ring, x, ideal) == self.removed_valuation(ring, x, ideal)
                assert valuation(ring, 0, ideal) is INF is self.removed_valuation(ring, 0, ideal)
        with pytest.raises(UnsupportedRing, match="^Z/12 carries no discrete valuations$"):
            valuation(R12, 4, MaxIdealId(R12, 2))


class TestJacobson:
    def test_catalog(self, ZZ, R12, L25, F2X):
        assert jacobson_radical_generator(ZZ) == ZERO_MARKER
        assert jacobson_radical_generator(F2X) == ZERO_MARKER
        assert jacobson_radical_generator(R12).raw == 6
        assert jacobson_radical_generator(L25).raw == Fraction(10)
        assert jacobson_radical_generator(LocalizedIntegersRing((5,))).raw == 5

    def test_zero_marker_is_one_value(self):
        assert repr(ZERO_MARKER) == "ZeroMarker"
        assert {ZERO_MARKER, ZeroMarker()} == {ZERO_MARKER}

    def test_radical_is_intersection_residue(self):
        # derived: intersection of the brute-force maximal ideals
        for n in (12, 30, 8, 49, 36):
            ring = ResidueRing(n)
            maximal = brute_divisor_ideals(n)
            inter = set(range(n))
            for _, s in maximal:
                inter &= s
            gen = jacobson_radical_generator(ring).raw
            assert set(range(0, n, math.gcd(gen, n) if gen else n)) == inter


class TestVsetPair:
    def test_matches_meet_of_vsets(self, ZZ, R12, L25, F2X):
        # two routes to the vanishing set of a two-generated ideal
        for ring in (ZZ, R12, L25, F2X):
            rng = rng_for(f"vset-pair-{ring.short_name}")
            for _ in range(200):
                a = random_element(ring, rng, small=True)
                b = random_element(ring, rng, small=True)
                assert vset_pair(ring, a, b) == \
                    vset(ring, a).intersection(vset(ring, b))


class TestFinCofSet:
    def test_finite_spectrum_normalizes(self, R12):
        s = FinCofSet.cofinite(R12, [R12.max_ideal(2)])
        assert not s.is_cofinite
        assert gens(s) == {3}

    def test_model_equivalence_on_finite_spectrum(self):
        # independent model: explicit subsets of the finite spectrum
        ring = ResidueRing(2 * 3 * 5 * 7)
        spectrum = set(ring.maximal_spectrum())
        rng = rng_for("fincof-model")
        def sample():
            chosen = frozenset(m for m in spectrum if rng.random() < 0.5)
            return FinCofSet.finite(ring, chosen), set(chosen)
        for _ in range(500):
            (a, sa), (b, sb) = sample(), sample()
            assert set(a.intersection(b).sorted_support()) == sa & sb
            assert set(a.union(b).sorted_support()) == sa | sb
            assert set(a.complement().sorted_support()) == spectrum - sa
            assert a.issubset(b) == (sa <= sb)

    def test_mixed_tag_subset_rules(self, ZZ):
        fin = FinCofSet.finite(ZZ, [ZZ.max_ideal(2)])
        cof = FinCofSet.cofinite(ZZ, [ZZ.max_ideal(3)])
        assert fin.issubset(cof)
        assert not cof.issubset(fin)
        assert not fin.issubset(FinCofSet.cofinite(ZZ, [ZZ.max_ideal(2)]))

    def test_validation(self, ZZ, R12):
        with pytest.raises(InconsistentInput):
            FinCofSet.finite(ZZ, [R12.max_ideal(2)])


def test_prime_factors_budget_certifies():
    assert prime_factors(2**31 - 1) == (2**31 - 1,)
    with pytest.raises(FactorizationBudgetExceeded):
        prime_factors((10**9 + 7) * (10**9 + 9), 10**4)


def test_max_ideal_validation(ZZ, R12, L25, F2X):
    with pytest.raises(InconsistentInput):
        ZZ.max_ideal(4)
    with pytest.raises(InconsistentInput):
        R12.max_ideal(5)
    with pytest.raises(InconsistentInput):
        L25.max_ideal(3)
    with pytest.raises(InconsistentInput):
        F2X.max_ideal((1, 1, 1, 1))  # x^3+x^2+x+1 = (x+1)^3 over F2


def test_readme_overrides_table_lists_each_kinds_members():
    # the README's table of what each ring kind overrides cannot drift from
    # the classes: a row names, backticked, every member its class defines
    # (short_name and normalize, which every kind defines, may go unnamed),
    # and no member the class inherits
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| kind | overrides |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.fullmatch(r"\| `([^`]+)` \| (.*) \|", line).groups()
                for line in table.splitlines())
    classes = {"Z": IntegerRing, "Z/n": ResidueRing, "Z_(S)": LocalizedIntegersRing,
               "Fq[x]": PolynomialRing}
    assert sorted(rows) == sorted(classes)
    for kind, cls in classes.items():
        named = set(re.findall(r"`([^`]+)`", rows[kind]))
        own = {name for name in vars(cls) if not name.startswith("__")} \
            - set(cls._fields) - {"_fields", "_defaults"}
        missing = own - {"short_name", "normalize"} - named
        assert not missing, (kind, missing)
        inherited = {name for name in named if hasattr(cls, name)} - own
        assert not inherited, (kind, inherited)


def test_integer_sieve_matches_is_prime_int():
    from prodideals.rings import is_prime_int
    Z = IntegerRing()
    primes = []
    for bound in range(2001):
        if is_prime_int(bound):
            primes.append(bound)
        assert [m.generator for m in Z.maximal_ideals_up_to(bound)] == primes
    assert len(Z.maximal_ideals_up_to(10**5)) == 9592


def test_odd_only_sieve_matches_the_full_sieve():
    # the full Sieve of Eratosthenes over 0..bound, which the odd-only one replaced
    from prodideals.rings import primes_up_to

    def full_sieve(bound):
        sieve = bytearray([1]) * (bound + 1)
        sieve[:2] = bytes(min(2, bound + 1))
        for p in range(2, math.isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
        return list(itertools.compress(range(bound + 1), sieve))

    for bound in [*range(3001), 10**5, 10**6]:
        assert list(primes_up_to(bound)) == full_sieve(bound), bound


def test_poly_max_ideal_accepts_large_irreducible():
    gen = (1, 0, 0, 1) + (0,) * 27 + (1,)  # x^31 + x^3 + 1
    assert PolynomialRing(2).max_ideal(gen).generator == gen


def test_poly_field_is_read_once_per_ring():
    ring = PolynomialRing(9)
    field = ring.K
    calls = fqpoly.field.cache_info()
    assert ring.K is field and field is fqpoly.field(9)
    assert fqpoly.field.cache_info().hits == calls.hits + 1   # the lookup just above
    # the cached field lives outside the record fields
    assert ring == PolynomialRing(9) and hash(ring) == hash(PolynomialRing(9))
    assert repr(ring) == "PolynomialRing(q=9)" and ring._fields == ("q",)


def test_enumeration_caps_raise_before_allocating(monkeypatch):
    Z = IntegerRing()
    assert len(Z.maximal_ideals_up_to(10**6)) == 78498
    with pytest.raises(BudgetExceeded, match="1000001.*1000000"):
        Z.maximal_ideals_up_to(10**6 + 1)
    # a small cap keeps the boundary cheap: q**bound <= cap is listed
    monkeypatch.setattr(fqpoly, "DEFAULT_POLY_BUDGET", 2**6)
    assert len(PolynomialRing(2).maximal_ideals_up_to(6)) == 23
    assert len(PolynomialRing(4).maximal_ideals_up_to(3)) == 4 + 6 + 20
    for q, bound in ((2, 7), (4, 4), (3, 4), (2, 10**9)):
        with pytest.raises(BudgetExceeded, match=f"bound {bound} .* 64$"):
            PolynomialRing(q).maximal_ideals_up_to(bound)


def test_caches_are_bounded():
    from prodideals.products import witness_fillers
    from prodideals.rings import is_prime_int
    from prodideals.valuations import _primitive_power
    for cache in (prime_factors, witness_fillers, _primitive_power, is_prime_int,
                  fqpoly.field, fqpoly.is_irreducible, fqpoly._factor_monic):
        assert cache.cache_info().maxsize is not None


def _trial_division_prime_factors(n, budget):
    """The trial-division loop ``prime_factors`` used to be, copied as it
    was: the reference for its budget contract."""
    n = abs(n)
    if n <= 1:
        return ()
    out = []
    f = 2
    while f <= budget and f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        if f * f <= n:
            raise FactorizationBudgetExceeded(
                f"cofactor {n} not certified prime within trial budget {budget}")
        out.append(n)
    return tuple(out)


def _factor_outcome(fn, n, budget):
    try:
        return fn(n, budget)
    except FactorizationBudgetExceeded as exc:
        return f"raised: {exc}"


def _primes_below(bound):
    return [p for p in range(2, bound) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_prime_factors_matches_trial_division_loop():
    for budget in (0, 1, 2, 3, 4, 5, 7, 10, 30, 100):
        for n in range(-50, 3001):
            assert (_factor_outcome(prime_factors, n, budget)
                    == _factor_outcome(_trial_division_prime_factors, n, budget)), (n, budget)


def test_prime_factors_matches_trial_division_on_products():
    rng = rng_for("prime_factors-products")
    primes = _primes_below(5000)
    for _ in range(3000):
        budget = rng.choice((2, 3, 4, 5, 6, 7, 10, 11, 30, 31, 100, 101, 1000))
        f_end = 3 if budget == 2 else (budget + 1) | 1
        above = [p for p in primes if p > budget]
        shape = rng.randrange(4)
        if shape == 0:    # a factor near the budget
            parts = [rng.choice([p for p in primes if abs(p - budget) <= 12])]
        elif shape == 1:  # a prime cofactor near f_end**2
            parts = [min(above[-1], rng.choice(
                [p for p in above if abs(p - f_end * f_end) <= 6 * f_end] or above))]
        elif shape == 2:  # p**2 for a p just above the budget
            parts = [above[rng.randrange(3)]] * 2
        else:             # two primes above the budget
            parts = rng.sample(above[:40], 2)
        parts += rng.choices(primes[:10], k=rng.randrange(4))
        n = rng.choice((1, -1)) * math.prod(parts)
        assert (_factor_outcome(prime_factors, n, budget)
                == _factor_outcome(_trial_division_prime_factors, n, budget)), (n, budget)


def test_prime_factors_named_budget_cases():
    with pytest.raises(FactorizationBudgetExceeded,
                       match=r"^cofactor 1000000016000000063 not certified prime "
                             r"within trial budget 10000$"):
        prime_factors((10**9 + 7) * (10**9 + 9), 10**4)
    big = (2**61 - 1) * (2**89 - 1)
    with pytest.raises(FactorizationBudgetExceeded, match=f"^cofactor {big} "):
        prime_factors(big, 10**4)
    # above the cube root at most two primes remain: a square, or a product
    # that trial division splits below its square root
    assert prime_factors(1000003**2, 10**7) == (1000003,)
    pq = 1000003 * 1000033
    assert prime_factors(pq, 10**7) == prime_factors(pq, 1000010) == (1000003, 1000033)
    with pytest.raises(FactorizationBudgetExceeded, match=f"^cofactor {pq} "):
        prime_factors(pq, 10**6)
    assert prime_factors(6 * (10**7 + 19), 10**4) == (2, 3, 10**7 + 19)
    # candidates above the sieve cap, up to and including the budget
    n = 1000003 * 1000033 * 1000037
    for budget in (1000002, 1000003, 1000033):
        assert (_factor_outcome(prime_factors, n, budget)
                == _factor_outcome(_trial_division_prime_factors, n, budget))
    with pytest.raises(FactorizationBudgetExceeded, match="^cofactor 1000000007 "):
        prime_factors(6 * (10**9 + 7), 10**4)  # prime, but not below 10001**2


def test_miller_rabin_strong_pseudoprimes():
    from prodideals.rings import MILLER_RABIN_LIMIT, is_prime_int
    # strong pseudoprimes to the first 1, 4 and 9..11 prime bases
    for n in (2047, 3215031751, 3825123056546413051):
        assert not is_prime_int(n)
    # psi_12 passes the bases 2..37; only base 41 shows it composite
    assert not is_prime_int(318665857834031151167461)
    # psi_13 passes all 13 bases: it is never reported prime
    psi13 = 3317044064679887385961981
    assert psi13 == MILLER_RABIN_LIMIT
    with pytest.raises(FactorizationBudgetExceeded, match=f"^{psi13} "):
        is_prime_int(psi13)
    assert is_prime_int(2**61 - 1) and is_prime_int(2**31 - 1)
    assert not is_prime_int(psi13 + 1)  # composite verdicts hold at any size
    primes = set(_primes_below(3000))
    assert [n for n in range(-5, 3000) if is_prime_int(n)] == sorted(primes)


def test_cached_primality_is_the_computed_one():
    from prodideals.rings import is_prime_int
    rng = rng_for("is_prime_int cache")
    samples = ([rng.randrange(-10, 10**6) for _ in range(300)]
               + [rng.randrange(10**20) | 1 for _ in range(100)]
               + [2**61 - 1, 2047, 3215031751, 318665857834031151167461])
    for n in samples + samples:
        assert is_prime_int(n) == is_prime_int.__wrapped__(n), n


def test_primality_errors_raise_on_every_call():
    # an error is not cached: psi_13 and the prime 2**89 - 1 above it pass every
    # base, so both raise on the second call as on the first
    from prodideals.rings import MILLER_RABIN_LIMIT, is_prime_int
    for n in (MILLER_RABIN_LIMIT, 2**89 - 1):
        for _ in range(2):
            with pytest.raises(FactorizationBudgetExceeded, match=f"^{n} passes"):
                is_prime_int(n)


def test_icbrt_is_the_floor_cube_root():
    from prodideals.rings import iroot
    for n in list(range(2000)) + [10**18 - 1, 10**18, 2**300, 3**200 - 1]:
        r = iroot(n, 3)
        assert r**3 <= n < (r + 1) ** 3


def test_iroot_is_the_floor_kth_root():
    from prodideals.rings import iroot
    for k in range(1, 12):
        for n in list(range(300)) + [2**4096, 2**4096 - 1, 3**1000 + 1, 10**50]:
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
    assert iroot(2**4096, 4096) == 2 and iroot(2**4096 - 1, 4096) == 1


def test_trial_sieve_is_lazy_and_capped(monkeypatch):
    from prodideals import rings
    assert rings._sieved_primes.cache_info().maxsize is not None
    bounds = []
    sieve = rings.primes_up_to
    monkeypatch.setattr(rings, "primes_up_to", lambda b: bounds.append(b) or sieve(b))
    rings._sieved_primes.cache_clear()
    prime_factors.cache_clear()
    assert prime_factors(12 * 1009) == (2, 3, 1009)
    assert max(bounds) <= 32
    # a budget far above the sieve cap sieves no further than the cap
    n = 1000003 * 1000033 * 1000037
    assert prime_factors(n, 10**12) == (1000003, 1000033, 1000037)
    assert max(bounds) == rings.DEFAULT_FACTOR_BUDGET
    # nothing is sieved at import
    src = str(pathlib.Path(rings.__file__).resolve().parent.parent)
    code = ("import prodideals.cli, prodideals.rings as r; "
            "print(r._sieved_primes.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "0"
