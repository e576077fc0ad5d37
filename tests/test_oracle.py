import itertools
import math

import pytest

from prodideals.errors import BudgetExceeded, UnsupportedRing
from prodideals.oracle import (
    all_ideals,
    descriptor_elements,
    exhaustive_prime_closure,
    is_prime_ideal,
    maximal_ideals,
    oracle_run,
)
from prodideals.products import (
    IndexUltrafilter,
    KernelIdeal,
    ProductRing,
    UltrafilterIdeal,
    enumerate_maximal_ideals,
    ideal_member,
)
from prodideals.boolalg import UltrafilterDescriptor
from prodideals.rings import IntegerRing, ResidueRing


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


class TestAllIdeals:
    def test_counts_match_divisor_structure(self):
        # the ideal lattice of a residue product is the product of divisor
        # lattices; the closure must find exactly that many sets
        for moduli in ((12,), (4, 9), (6, 10), (8, 3, 5), (360,), (4, 9, 25)):
            found = all_ideals(moduli)
            expected = math.prod(divisor_count(n) for n in moduli)
            assert len(found) == expected
            assert len({i.elements() for i in found}) == expected

    def test_every_found_set_is_an_ideal(self):
        moduli = (6, 4)
        for ideal in all_ideals(moduli):
            elems = ideal.elements()
            for a in elems:
                for b in elems:
                    s = tuple((x + y) % n for x, y, n in zip(a, b, moduli))
                    assert s in elems
            for a in elems:
                for r in itertools.product(range(6), range(4)):
                    p = tuple((x * y) % n for x, y, n in zip(a, r, moduli))
                    assert p in elems

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            all_ideals((101, 101), budget=10_000)


class TestMaximalAndPrime:
    def test_worked_examples(self):
        assert len(oracle_run([4, 9]).maximal) == 2
        assert len(oracle_run([2]).maximal) == 1
        assert len(oracle_run([30]).maximal) == 3

    def test_field_maximal_is_zero_ideal(self):
        rep = oracle_run([2])
        assert rep.maximal[0] == frozenset({(0,)})

    def test_primes_of_z12(self):
        # by hand: the prime ideals are the two maximal ones
        rep = oracle_run([12])
        assert rep.primes is not None and len(rep.primes) == 2
        assert set(rep.primes) == set(rep.maximal)

    def test_primes_include_kernels_at_prime_coordinates(self):
        # in Z/3 x Z/4 the kernel at the first coordinate is prime
        rep = oracle_run([3, 4])
        kernel = frozenset((0, b) for b in range(4))
        assert kernel in rep.primes

    def test_prime_marking_matches_definition(self):
        # literal all-pairs reference; (21, 22) has 462 elements and (360,)
        # has 24 divisors
        for moduli in ((12,), (4, 9), (2, 8), (2, 3, 4), (3, 4, 5), (2, 2, 6),
                       (21, 22), (360,)):
            ideals = all_ideals(moduli)
            for ideal in ideals:
                claimed = is_prime_ideal(ideal)
                elems = ideal.elements()
                complement = [e for e in itertools.product(*(range(n) for n in moduli))
                              if e not in elems]
                direct = bool(complement) and all(
                    tuple((x * y) % n for x, y, n in zip(a, b, moduli)) not in elems
                    for a in complement for b in complement)
                assert claimed == direct

    def test_primes_of_z25_z33(self):
        # by hand the primes of Z/25 x Z/33 are the pullbacks of (5), (3)
        # and (11)
        rep = oracle_run([25, 33])
        assert rep.ideal_count == 3 * 4
        assert len(rep.maximal) == 3
        assert set(rep.primes) == set(rep.maximal)


class TestDescriptorComparison:
    def test_matches_on_grid_sample(self):
        for moduli in ((4, 9), (12, 10), (27, 8), (5, 5)):
            product = ProductRing(tuple(ResidueRing(n) for n in moduli))
            ours = {descriptor_elements(i) for i in enumerate_maximal_ideals(product)}
            assert ours == set(oracle_run(list(moduli), mark_primes=False).maximal)

    def test_non_residue_rejected(self):
        with pytest.raises(UnsupportedRing):
            oracle_run([IntegerRing()])


class TestExhaustivePrimeClosure:
    def test_no_violations_for_prime_descriptor(self):
        product = ProductRing((ResidueRing(12), ResidueRing(10)))
        u = UltrafilterDescriptor(product.shape, 0,
                                  product.components[0].max_ideal(3))
        ideal = UltrafilterIdeal(product, u)
        pairs, violations = exhaustive_prime_closure(
            (12, 10), lambda e: ideal_member(ideal, product.element(list(e))))
        assert pairs == 120 * 120
        assert violations == []

    def test_detects_violations_for_non_prime(self):
        # the kernel at a composite-residue coordinate is not prime
        product = ProductRing((ResidueRing(12), ResidueRing(7)))
        ideal = KernelIdeal(product, IndexUltrafilter(0))
        _, violations = exhaustive_prime_closure(
            (12, 7), lambda e: ideal_member(ideal, product.element(list(e))))
        assert violations
        (a, b) = violations[0]
        assert a[0] % 12 != 0 and b[0] % 12 != 0 and (a[0] * b[0]) % 12 == 0
