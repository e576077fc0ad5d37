import contextlib
import hashlib
import io
import itertools
import math

import pytest

from conftest import exhaustive_prime_closure, spawn_cli
from prodideals import oracle
from prodideals.cli import main
from prodideals.errors import BudgetExceeded, UnsupportedRing
from prodideals.oracle import (
    all_ideals,
    descriptor_elements,
    descriptor_parts,
    is_prime_ideal,
    maximal_ideals,
    oracle_run,
)
from prodideals.products import (
    RULE_INDEX_FILTER_CONCENTRATION,
    RULE_ZERO_DIMENSIONAL_MINIMAL_PRIME,
    KernelIdeal,
    PointwiseMaxIdeal,
    ProductRing,
    UltrafilterIdeal,
    enumerate_maximal_ideals,
    ideal_member,
    minimal_prime_below,
)
from prodideals.boolalg import UltrafilterDescriptor
from prodideals.rings import IntegerRing, ResidueRing
from prodideals.scenario import run_scenario


def products_up_to(size):
    """Every product of at most three moduli, in ascending order, with at most
    ``size`` elements; 400 is the range of ``test_matches_a_literal_pairwise_closure``."""
    return itertools.chain(
        ((a,) for a in range(2, size + 1)),
        ((a, b) for a in range(2, math.isqrt(size) + 1) for b in range(a, size // a + 1)),
        ((a, b, c) for a in range(2, size + 1) for b in range(a, size // (a * a) + 1)
         for c in range(b, size // (a * b) + 1)))


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def literal_ideal_closure(moduli):
    """Every ideal of the product as a set of element tuples: the multiples of
    every element, closed under element-wise sums of pairs in rounds until a
    round adds nothing.  Elements are row-major indices; numpy tables and
    scatters into membership masks keep the element work fast."""
    import numpy as np

    digits = np.array(list(itertools.product(*(range(n) for n in moduli))), np.int32).T
    size = digits.shape[1]

    def table(op):  # table[a, b] is the index of op(element a, element b)
        index = np.zeros((size, size), np.int32)
        for d, n in zip(digits, moduli):
            index = index * n + op(d[:, None], d[None, :]) % n
        return index

    def masks(rows, indices):  # the set of membership masks, one per row number
        out = np.zeros((rows.max() + 1, size), bool)
        out[rows, indices] = True
        return {m.tobytes() for m in out}
    add, mul = table(np.add), table(np.multiply)
    pool = masks(np.arange(size)[:, None], mul)
    while True:
        sets = [np.flatnonzero(np.frombuffer(k, bool)) for k in pool]
        sums = set()
        for i in range(1, len(sets)):
            # sets[i] + sets[j] for every j < i in one scatter, as row j
            rows = np.repeat(np.arange(i), [len(b) for b in sets[:i]])
            sums |= masks(rows[None, :], add[sets[i]][:, np.concatenate(sets[:i])])
        if sums <= pool:
            return {frozenset(map(tuple, digits.T[np.frombuffer(k, bool)].tolist()))
                    for k in pool}
        pool |= sums


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

    def test_matches_a_literal_pairwise_closure(self):
        # every product of at most three moduli with at most 400 elements
        for moduli in itertools.chain(
                ((a,) for a in range(2, 401)),
                ((a, b) for a in range(2, 21) for b in range(a, 400 // a + 1)),
                ((a, b, c) for a in range(2, 8) for b in range(a, 201)
                 for c in range(b, 400 // (a * b) + 1))):
            found = {i.elements() for i in all_ideals(moduli)}
            assert found == literal_ideal_closure(moduli), moduli

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

    def test_materialisation_matches_a_full_product_scan(self):
        # every element of the product through ideal_member; a predicate that
        # is not an ideal would differ from the per-coordinate parts
        for moduli in ((4, 9), (12, 10), (6, 5, 4), (8,)):
            product = ProductRing(tuple(ResidueRing(n) for n in moduli))
            comps = product.components
            descriptors = [KernelIdeal(product, i)
                           for i in range(len(moduli))]
            descriptors += [PointwiseMaxIdeal(product, i, tuple(
                r.max_ideal(r.primes[-1]) for r in comps)) for i in range(len(moduli))]
            descriptors += [UltrafilterIdeal(product, UltrafilterDescriptor(
                product.shape, i, r.max_ideal(p))) for i, r in enumerate(comps)
                for p in r.primes]
            for ideal in descriptors:
                full = frozenset(e for e in itertools.product(*(range(n) for n in moduli))
                                 if ideal_member(ideal, product.element(list(e))))
                assert descriptor_elements(ideal) == full, ideal

    def test_non_residue_rejected(self):
        with pytest.raises(UnsupportedRing):
            oracle_run([IntegerRing()])


class TestMinimalPrimeChecker:
    """``minimal_prime_below`` against the definition: of the oracle's prime
    ideals, those inside the ultrafilter ideal have one minimal member, and
    it is the answer, at every principal ultrafilter of every product of at
    most three residue rings with at most 120 elements."""

    def test_matches_the_minimal_oracle_prime_below(self):
        checked = 0
        for moduli in products_up_to(120):
            product = ProductRing(tuple(ResidueRing(n) for n in moduli))
            primes = [p.parts for p in oracle_run(product.components).prime_ideals]
            for i, ring in enumerate(product.components):
                for m in ring.maximal_spectrum():
                    ideal = UltrafilterIdeal(
                        product, UltrafilterDescriptor(product.shape, i, m))
                    parts = descriptor_parts(ideal)
                    below = [p for p in primes if all(map(frozenset.issubset, p, parts))]
                    minimal = [p for p in below
                               if not any(q != p and all(map(frozenset.issubset, q, p))
                                          for q in below)]
                    found = minimal_prime_below(ideal)
                    assert [descriptor_parts(found.verdict)] == minimal, (moduli, i, m)
                    assert found.rule == (RULE_INDEX_FILTER_CONCENTRATION if ring.is_domain
                                          else RULE_ZERO_DIMENSIONAL_MINIMAL_PRIME)
                    checked += 1
        assert checked == 1057


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
        ideal = KernelIdeal(product, 0)
        _, violations = exhaustive_prime_closure(
            (12, 7), lambda e: ideal_member(ideal, product.element(list(e))))
        assert violations
        (a, b) = violations[0]
        assert a[0] % 12 != 0 and b[0] % 12 != 0 and (a[0] * b[0]) % 12 == 0


def oracle_verdict(moduli):
    """The verdict of a scenario ``oracle`` query over the residue product."""
    scenario = {"schema_version": 1,
                "rings": [{"kind": "residue", "n": n} for n in moduli],
                "product": list(range(len(moduli))), "queries": [{"query": "oracle"}]}
    return run_scenario(scenario).records[0]["verdict"]


class TestPartLevelReport:
    """The report counts ideals and compares parts; every part holds 0, so a
    product of parts determines its parts, and the verdicts must be those
    of element sets."""

    def test_sets_from_parts_match_element_sets(self):
        for moduli in products_up_to(400):
            rep = oracle_run(moduli)
            elements = [i.elements() for i in all_ideals(moduli)]
            # maximal by inclusion of element sets, not of parts
            proper = [e for e in elements if len(e) < math.prod(moduli)]
            maximal = {e for e in proper if not any(e < f for f in proper)}
            assert rep.ideal_count == len(set(elements))
            assert len(rep.maximal_ideals) == len(maximal) == len(rep.maximal)
            assert {i.elements() for i in rep.maximal_ideals} == set(rep.maximal) == maximal
            assert len(rep.prime_ideals) == len(set(rep.primes)) == len(rep.primes)
            assert {i.elements() for i in rep.prime_ideals} == set(rep.primes)

    def test_verdict_from_parts_matches_element_sets(self):
        for moduli in (m for m in products_up_to(400) if len(m) <= 2):
            rep = oracle_run(moduli)
            product = ProductRing(tuple(ResidueRing(n) for n in moduli))
            ultra = {descriptor_elements(i) for i in enumerate_maximal_ideals(product)}
            assert oracle_verdict(moduli) == {
                "ideal_count": len({i.elements() for i in all_ideals(moduli)}),
                "maximal_count": len(set(rep.maximal)),
                "prime_count": len(set(rep.primes)),
                "matches_ultrafilter_enumeration": ultra == set(rep.maximal)}, moduli

    @pytest.mark.parametrize("moduli", [(4, 9), (12, 10), (6, 5, 4), (8,), (2, 3)])
    def test_a_mutated_part_does_not_match(self, moduli, monkeypatch):
        # toggle the residue 1 in one part of the first descriptor: at the
        # concentration coordinate 1 is added, elsewhere it is dropped
        real = oracle.descriptor_parts
        for k in range(len(moduli)):
            calls = []

            def mutated(ideal):
                parts = list(real(ideal))
                if not calls:
                    parts[k] = parts[k] ^ {1}
                    assert (frozenset(itertools.product(*parts))
                            not in set(oracle_run(moduli).maximal))
                calls.append(ideal)
                return tuple(parts)
            monkeypatch.setattr(oracle, "descriptor_parts", mutated)
            assert oracle_verdict(moduli)["matches_ultrafilter_enumeration"] is False
            monkeypatch.undo()
            assert len(calls) == sum(len(ResidueRing(n).primes) for n in moduli)
        assert oracle_verdict(moduli)["matches_ultrafilter_enumeration"] is True

    def test_parts_are_the_membership_of_each_coordinate(self):
        product = ProductRing((ResidueRing(12), ResidueRing(10)))
        ideal = UltrafilterIdeal(product, UltrafilterDescriptor(
            product.shape, 0, product.components[0].max_ideal(3)))
        assert descriptor_parts(ideal) == (frozenset({0, 3, 6, 9}), frozenset(range(10)))


@pytest.mark.parametrize("moduli, budget, digest", [
    ((360, 360), 200_000, "6972c0f9b0268bcfc11b46fd849c4dca851d2ea4c453b5a4abe276af3a313daf"),
    ((720, 720), 600_000, "93d937584ed7589b455908332c7b35197345be3da8ea7ba1e7d20b538e8b2731"),
])
def test_large_oracle_report_pinned(moduli, budget, digest):
    # the default text report, byte for byte; building the product's element
    # sets took 4-5 s and 336 MB at (720, 720), the parts take 0.3 s and 17 MB
    argv = ["oracle", "--budget", str(budget)] + [a for n in moduli for a in ("-r", f"Z/{n}")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    if moduli == (720, 720):
        sha, code, maxrss_kb = spawn_cli(argv)
        assert (sha, code) == (digest, 0)
        assert maxrss_kb < 40 * 1024
