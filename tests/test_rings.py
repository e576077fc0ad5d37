import math
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


class TestValuation:
    def test_examples(self, ZZ, F2X):
        assert valuation(ZZ, ZZ.element(24), ZZ.max_ideal(2)) == 3
        assert valuation(ZZ, ZZ.element(0), ZZ.max_ideal(5)) is INF
        assert valuation(F2X, F2X.element((0, 1, 1)), F2X.max_ideal((1, 1))) == 1

    def test_residue_rejected(self, R12):
        with pytest.raises(UnsupportedRing):
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


class TestJacobson:
    def test_catalog(self, ZZ, R12, L25, F2X):
        assert jacobson_radical_generator(ZZ) == ZERO_MARKER
        assert jacobson_radical_generator(F2X) == ZERO_MARKER
        assert jacobson_radical_generator(R12).raw == 6
        assert jacobson_radical_generator(L25).raw == Fraction(10)
        assert jacobson_radical_generator(LocalizedIntegersRing((5,))).raw == 5

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


def test_integer_sieve_matches_is_prime_int():
    from prodideals.fqpoly import is_prime_int
    Z = IntegerRing()
    primes = []
    for bound in range(2001):
        if is_prime_int(bound):
            primes.append(bound)
        assert [m.generator for m in Z.maximal_ideals_up_to(bound)] == primes
    assert len(Z.maximal_ideals_up_to(10**5)) == 9592


def test_poly_max_ideal_accepts_large_irreducible():
    gen = (1, 0, 0, 1) + (0,) * 27 + (1,)  # x^31 + x^3 + 1
    assert PolynomialRing(2).max_ideal(gen).generator == gen


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
    for cache in (prime_factors, witness_fillers):
        assert cache.cache_info().maxsize is not None
