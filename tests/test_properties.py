import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

import plusplus_checker
from conftest import random_element, random_nonzero, rng_for
from prodideals import cli
from prodideals.boolalg import UltrafilterDescriptor, enumerate_ultrafilters
from prodideals.errors import NoWitness, UnsupportedRing, ZeroElement
from prodideals.products import ProductRing, UltrafilterIdeal, is_maximal
from prodideals.properties import (
    RULE_PLUSPLUS_ZERO_DIMENSIONAL,
    one_dim_plus_witness,
    plus_witness,
    plusplus_check,
    plusplus_witness,
)
from prodideals.rings import (
    IntegerRing,
    LocalizedIntegersRing,
    MaxIdealId,
    PolynomialRing,
    ResidueRing,
    crt_solve,
    dset,
    jacobson_radical_generator,
    valuation,
    vset,
)
from prodideals.valuations import valuation_compare

ZZ = IntegerRing()


class TestPlusWitness:
    def test_worked_examples(self, F2X):
        w = plus_witness(ZZ, 2, 6)
        assert w.d.raw == 3
        w = plus_witness(ZZ, 0, 6)
        assert w.d.raw == 1
        w = plus_witness(F2X, (0, 1), (0, 1, 1))
        assert w.d.raw == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            plus_witness(ZZ, 2, 0)

    @pytest.mark.parametrize("ring_name", ["ZZ", "R12", "L25", "F2X"])
    def test_containments_sampled(self, ring_name, ZZ, R12, L25, F2X):
        ring = {"ZZ": ZZ, "R12": R12, "L25": L25, "F2X": F2X}[ring_name]
        rng = rng_for(f"plus-{ring_name}")
        for _ in range(300):
            r = random_element(ring, rng, small=True)
            a = random_nonzero(ring, rng, small=True)
            w = plus_witness(ring, r, a)
            must = vset(ring, a).intersection(dset(ring, r))
            assert must.issubset(vset(ring, w.d))
            assert vset(ring, w.d).issubset(dset(ring, r))


def brute_separating_condition(n, r, a):
    """Independent oracle for the intersection condition on a finite ring:
    for every maximal ideal Q containing r, the intersection of the maximal
    ideals containing a but not r must contain an element outside Q."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(
        p % q for q in range(2, p))]
    v_r = {p for p in primes if r % p == 0}
    v_a = {p for p in primes if a % p == 0}
    inter_primes = v_a - v_r
    inter = [x for x in range(n) if all(x % p == 0 for p in inter_primes)]
    for q in v_r:
        if not any(x % q for x in inter):
            return False
    return True


class TestEquivalenceOnFiniteRings:
    def test_intersection_condition_exhaustive(self):
        # the witness route and the element-search route must agree; catalog
        # rings satisfy the property, so the condition must hold throughout
        for n in range(2, 41):
            ring = ResidueRing(n)
            for r in range(n):
                for a in range(1, n):
                    assert brute_separating_condition(n, r, a)
                    w = plus_witness(ring, ring.element(r), ring.element(a))
                    assert w.lower.issubset(w.vset_d)
                    assert w.vset_d.issubset(w.upper)


def idempotent_sum(primes, r):
    """The strong separation witness as a sum of idempotents: the sum of
    (rad/p) * ((rad/p)^-1 mod p) over the primes p dividing r, mod rad."""
    rad = math.prod(primes)
    return sum(rad // p * pow(rad // p, -1, p) for p in primes if r % p == 0) % rad


class TestPlusPlus:
    def test_catalog_verdicts(self, R12, L25, F2X):
        assert plusplus_check(R12).holds
        assert plusplus_check(L25).holds
        v = plusplus_check(ZZ)
        assert not v.holds and v.obstruction.raw == 2
        v = plusplus_check(F2X)
        assert not v.holds and v.obstruction.raw == (0, 1)

    def test_obstruction_verified(self, F2X):
        # the complement of the obstruction's vanishing set is cofinite with
        # nonempty exclusion; vanishing sets are finite or everything
        for ring in (ZZ, F2X):
            r = plusplus_check(ring).obstruction
            target = dset(ring, r)
            assert target.is_cofinite and target.support
            rng = rng_for(f"obstruction-{ring.short_name}")
            for _ in range(300):
                d = random_element(ring, rng, small=True)
                assert vset(ring, d) != target

    def test_witness_worked_examples(self, R12, L25):
        assert plusplus_witness(R12, R12.element(2)).raw == 3
        assert plusplus_witness(L25, L25.element(2)).raw == 5
        with pytest.raises(NoWitness):
            plusplus_witness(ZZ, ZZ.element(2))
        assert plusplus_witness(ZZ, ZZ.element(0)).raw == 1
        assert plusplus_witness(ZZ, ZZ.element(1)).raw == 0

    def test_exhaustive_residue_sweep(self):
        for n in list(range(2, 80)) + [90, 96, 120, 128, 180, 200]:
            ring = ResidueRing(n)
            primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
            rad = math.prod(primes)
            for r in range(n):
                d = plusplus_witness(ring, ring.element(r))
                assert vset(ring, d) == dset(ring, ring.element(r))
                # read by trial division: p divides d exactly when it does not divide r
                assert 0 <= d.raw < rad
                assert all((d.raw % p == 0) == (r % p != 0) for p in primes)

    def test_localized_sweep(self):
        for primes in ((2,), (2, 5), (3, 5, 7)):
            ring = LocalizedIntegersRing(primes)
            rng = rng_for(f"pp-loc-{primes}")
            for _ in range(100):
                r = random_element(ring, rng, small=True)
                d = plusplus_witness(ring, r)
                assert vset(ring, d) == dset(ring, r)

    def test_table_rows_equal_the_idempotent_sum(self):
        for n in range(2, 401):
            primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
            assert plusplus_checker.witness_table(cli, n) == [
                {"r": r, "d": idempotent_sum(primes, r)} for r in range(n)], n

    def test_localized_witness_equals_the_idempotent_sum(self):
        # p divides r in Z_(S) exactly when it divides r's numerator
        for primes in ((2,), (3,), (2, 5), (3, 5, 7), (2, 3, 5, 7, 11)):
            ring = LocalizedIntegersRing(primes)
            rng = rng_for(f"pp-idempotent-{primes}")
            rad = math.prod(primes)
            numerators = [0, 1, -1, rad, -rad, -2 * rad + 1] + [
                rng.randint(-rad * rad, rad * rad) for _ in range(60)]
            for a in numerators:
                den = rng.choice([b for b in range(1, 60) if math.gcd(b, rad) == 1])
                r = Fraction(a, den)
                assert plusplus_witness(ring, ring.element(r)).raw == idempotent_sum(
                    primes, r.numerator), r

    @pytest.mark.parametrize("n, calls", [(9240, 32), (12, 4)])
    def test_table_builds_one_witness_per_divisor_pattern(self, monkeypatch, n, calls):
        # 9240 = 2^3 * 3 * 5 * 7 * 11 and 12 = 2^2 * 3: one call per set of primes
        from prodideals import properties
        built = []
        monkeypatch.setattr(properties, "plusplus_witness",
                            lambda ring, r: built.append(r) or plusplus_witness(ring, r))
        assert len(plusplus_checker.witness_table(cli, n)) == n
        assert len(built) == calls

    def test_tables_meet_the_definition(self):
        rows, disagreements = plusplus_checker.check(800)
        assert rows == sum(range(2, 801)) and not disagreements

    def test_strong_implies_weak(self, R12, L25):
        # wherever the strong property holds, the weak witness must succeed
        for ring in (R12, L25):
            assert plusplus_check(ring).holds
            rng = rng_for(f"si-{ring.short_name}")
            for _ in range(200):
                r = random_element(ring, rng, small=True)
                a = random_nonzero(ring, rng, small=True)
                w = plus_witness(ring, r, a)
                assert w.lower.issubset(w.vset_d)


class TestOneDimWitness:
    def test_worked_examples(self):
        assert one_dim_plus_witness(ZZ, 2, 15).raw == 15
        assert one_dim_plus_witness(ZZ, 6, 10).raw == 5
        assert one_dim_plus_witness(ZZ, 1, 7).raw == 7

    def test_residue_rejected(self, R12):
        with pytest.raises(UnsupportedRing):
            one_dim_plus_witness(R12, R12.element(2), R12.element(3))

    def test_agrees_with_plus_witness(self, L25, F2X):
        # the two construction routes must induce the same vanishing behavior
        for ring in (ZZ, L25, F2X):
            rng = rng_for(f"one-dim-{ring.short_name}")
            for _ in range(200):
                r = random_element(ring, rng, small=True)
                a = random_nonzero(ring, rng, small=True)
                d1 = plus_witness(ring, r, a).d
                d2 = one_dim_plus_witness(ring, r, a)
                must = vset(ring, a).intersection(dset(ring, r))
                for route in (d1, d2):
                    assert must.issubset(vset(ring, route))
                    assert vset(ring, route).issubset(dset(ring, r))
                assert vset(ring, d1).intersection(must) == \
                    vset(ring, d2).intersection(must)


class TestMaximalityAcrossCatalog:
    def test_strong_rings_make_every_descriptor_maximal(self):
        product = ProductRing((ResidueRing(12), LocalizedIntegersRing((2, 5))))
        assert all(plusplus_check(r).holds for r in product.components)
        for u in enumerate_ultrafilters(product.shape):
            assert is_maximal(UltrafilterIdeal(product, u)).is_maximal

    def test_weak_only_rings_reject_frechet(self):
        product = ProductRing((ZZ, ResidueRing(12)))
        verdicts = [(u.is_frechet, is_maximal(UltrafilterIdeal(product, u)).is_maximal)
                    for u in enumerate_ultrafilters(product.shape, 7)]
        assert all(ok for frechet, ok in verdicts if not frechet)
        assert all(not ok for frechet, ok in verdicts if frechet)
        assert any(frechet for frechet, _ in verdicts)


class TestResidueField:
    """Z/5 is a domain of dimension 0: every kind decision that sets Z/n
    apart must treat it as Z/n, not as a domain kind."""

    F5 = ResidueRing(5)

    def test_kind_facts(self):
        assert self.F5.is_domain and self.F5.dimension == 0 and self.F5.spectrum_finite
        assert ResidueRing(12).dimension == 0 and not ResidueRing(12).is_domain
        for ring in (ZZ, LocalizedIntegersRing((2, 5)), PolynomialRing(2)):
            assert ring.is_domain and ring.dimension == 1

    def test_plusplus_is_zero_dimensional(self):
        verdict = plusplus_check(self.F5)
        assert verdict.holds and verdict.rule == RULE_PLUSPLUS_ZERO_DIMENSIONAL

    def test_check_plusplus_prints_a_witness_table(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["--format", "machine", "check-plusplus", "-r", "Z/5"]) == 0
        rec = json.loads(out.getvalue().splitlines()[1])
        assert rec["provenance"] == RULE_PLUSPLUS_ZERO_DIMENSIONAL
        assert rec["witness_table"] == [{"r": 0, "d": 1}] + [
            {"r": r, "d": 0} for r in range(1, 5)]

    def test_valuation_kinds_reject_it(self):
        m = MaxIdealId(self.F5, 5)
        with pytest.raises(UnsupportedRing):
            one_dim_plus_witness(self.F5, 1, 2)
        with pytest.raises(UnsupportedRing):
            valuation(self.F5, self.F5.element(2), m)
        with pytest.raises(UnsupportedRing):
            crt_solve(self.F5, [(m, 1, 1)])
        product = ProductRing((self.F5,))
        u = UltrafilterDescriptor(product.shape, 0, m)
        with pytest.raises(UnsupportedRing):
            valuation_compare(u, product.element([2]), product.element([3]))

    def test_jacobson_radical_is_zero(self):
        assert jacobson_radical_generator(self.F5) == self.F5.zero
