"""Acceptance suite: every criterion is exact (tolerance zero) and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import io
import itertools
import json
import math
import pathlib
import time

import pytest

from conftest import exhaustive_prime_closure, random_element, random_nonzero, rng_for
from prodideals import oracle
from prodideals.boolalg import (
    AlgebraElement,
    UltrafilterDescriptor,
    enumerate_ultrafilters,
    membership,
)
from prodideals.cli import INFINITE_INDEX_MESSAGE, main as cli_main
from prodideals.products import (
    IndexUltrafilter,
    KernelIdeal,
    ProductRing,
    UltrafilterIdeal,
    ValuationIdeal,
    enumerate_maximal_ideals,
    ideal_member,
    index_filter_of,
    is_prime,
    skolem_check,
    vset_vector,
)
from prodideals.properties import plus_witness, plusplus_check, plusplus_witness
from prodideals.rings import (
    INF,
    FinCofSet,
    IntegerRing,
    LocalizedIntegersRing,
    PolynomialRing,
    ResidueRing,
    dset,
    valuation,
    vset,
    vset_pair,
)
from prodideals.valuations import (
    PrefixSample,
    ValueVector,
    chain_strictness,
    interpolate_chain,
    ug_member,
    valuation_compare,
)

ZZ = IntegerRing()
F2X = PolynomialRing(2)
ZXZ = ProductRing((ZZ, ZZ))


def report(number, label, started):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {label} ({elapsed:.1f}s)")


def test_criterion_01_boolean_laws():
    started = time.perf_counter()
    pools = {
        ZZ: [ZZ.max_ideal(p) for p in (2, 3, 5, 7, 11, 13, 17, 19)],
        F2X: [F2X.max_ideal(g) for g in
              ((0, 1), (1, 1), (1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1))],
    }
    for ring, pool in pools.items():
        rng = rng_for(f"acc1-{ring.short_name}")

        def sample():
            support = frozenset(m for m in pool if rng.random() < 0.4)
            if rng.random() < 0.5:
                return FinCofSet.finite(ring, support)
            return FinCofSet.cofinite(ring, support)

        empty, full = FinCofSet.empty(ring), FinCofSet.all(ring)
        for _ in range(10000):
            x, y, z = sample(), sample(), sample()
            assert x.intersection(y) == y.intersection(x)
            assert x.union(y) == y.union(x)
            assert x.intersection(y.intersection(z)) == x.intersection(y).intersection(z)
            assert x.union(y.union(z)) == x.union(y).union(z)
            assert x.intersection(x.union(y)) == x
            assert x.union(x.intersection(y)) == x
            assert x.intersection(y.union(z)) == \
                x.intersection(y).union(x.intersection(z))
            assert x.union(y.intersection(z)) == \
                x.union(y).intersection(x.union(z))
            assert x.intersection(y).complement() == \
                x.complement().union(y.complement())
            assert x.union(y).complement() == \
                x.complement().intersection(y.complement())
            assert x.complement().complement() == x
            assert x.intersection(x.complement()) == empty
            assert x.union(x.complement()) == full
    assert time.perf_counter() - started < 10
    report(1, "boolean laws on 10^4 finite/cofinite triples", started)


def test_criterion_02_vanishing_tuple_identities():
    started = time.perf_counter()
    shapes = [ZXZ, ProductRing((ZZ, ZZ, ZZ)),
              ProductRing((ResidueRing(12), ResidueRing(10))),
              ProductRing((F2X, F2X))]
    for product in shapes:
        rng = rng_for(f"acc2-{product}")
        for _ in range(1000):
            a = product.element([random_element(r, rng, small=True).raw
                                 for r in product.components])
            b = product.element([random_element(r, rng, small=True).raw
                                 for r in product.components])
            sa, sb, sab = vset_vector(a), vset_vector(b), vset_vector(a * b)
            # product rule: coordinatewise union
            assert sab == AlgebraElement(tuple(
                x.union(y) for x, y in zip(sa.coords, sb.coords)))
            # meet rule: the pair ideal's vanishing tuple
            assert AlgebraElement(tuple(
                x.intersection(y) for x, y in zip(sa.coords, sb.coords))) == \
                AlgebraElement(tuple(
                    vset_pair(r, x, y) for r, x, y in
                    zip(product.components, a.entries, b.entries)))
    assert time.perf_counter() - started < 30
    report(2, "vanishing-tuple product/meet identities, 10^3 pairs x 4 shapes",
           started)


THREE_FACTOR_CASES = [(2, 3, 5), (4, 9, 25), (8, 27, 5), (12, 10, 7),
                      (16, 9, 25), (30, 30, 11), (2, 2, 2), (25, 49, 8),
                      (27, 25, 7), (32, 81, 3)]


def test_criterion_03_maximal_ideal_oracle_equivalence():
    started = time.perf_counter()
    cases = [(n1, n2) for n1 in range(2, 31) for n2 in range(2, 31)]
    cases += THREE_FACTOR_CASES
    for moduli in cases:
        assert math.prod(moduli) <= 10_000
        product = ProductRing(tuple(ResidueRing(n) for n in moduli))
        ours = {oracle.descriptor_elements(i)
                for i in enumerate_maximal_ideals(product)}
        brute = set(oracle.oracle_run(list(moduli), mark_primes=False).maximal)
        assert ours == brute, moduli
    assert time.perf_counter() - started < 120
    report(3, f"ultrafilter vs brute-force maximal ideals on {len(cases)} products",
           started)


def test_criterion_04_prime_closure():
    started = time.perf_counter()
    f2xsq = ProductRing((F2X, F2X))
    m2 = ZZ.max_ideal(2)
    sampled_cases = [
        UltrafilterIdeal(ZXZ, UltrafilterDescriptor(ZXZ.shape, 0, m2)),
        UltrafilterIdeal(ZXZ, UltrafilterDescriptor(ZXZ.shape, 0, None)),
        KernelIdeal(ZXZ, IndexUltrafilter(1)),
        UltrafilterIdeal(f2xsq, UltrafilterDescriptor(
            f2xsq.shape, 0, F2X.max_ideal((0, 1)))),
        ValuationIdeal(ZXZ, UltrafilterDescriptor(ZXZ.shape, 0, m2),
                       ValueVector(ZXZ.shape, (1, 1), ((0, m2, 4),))),
        ValuationIdeal(ZXZ, UltrafilterDescriptor(ZXZ.shape, 0, m2),
                       ValueVector(ZXZ.shape, (INF, INF), ())),
        ValuationIdeal(ZXZ, UltrafilterDescriptor(ZXZ.shape, 0, None),
                       ValueVector(ZXZ.shape, (2, 2), ())),
    ]
    for ideal in sampled_cases:
        assert is_prime(ideal)
        product = ideal.product
        rng = rng_for(f"acc4-{ideal}")

        def draw():
            return product.element([
                r.zero.raw if rng.random() < 0.25
                else random_element(r, rng, small=True).raw
                for r in product.components])

        hits = 0
        for _ in range(1000):
            a, b = draw(), draw()
            if ideal_member(ideal, a * b):
                hits += 1
                assert ideal_member(ideal, a) or ideal_member(ideal, b)
        assert hits > 50

    # exhaustive scans on finite residue products
    exhaustive_cases = [
        ((12, 10), UltrafilterIdeal, (0, 3)),
        ((4, 9), UltrafilterIdeal, (1, 3)),
        ((3, 4), KernelIdeal, 0),
        ((97, 101), UltrafilterIdeal, (0, 97)),  # 9797 elements, within 10^4
    ]
    for moduli, kind, args in exhaustive_cases:
        product = ProductRing(tuple(ResidueRing(n) for n in moduli))
        if kind is UltrafilterIdeal:
            coord, p = args
            u = UltrafilterDescriptor(product.shape, coord,
                                      product.components[coord].max_ideal(p))
            ideal = UltrafilterIdeal(product, u)
        else:
            ideal = KernelIdeal(product, IndexUltrafilter(args))
        assert is_prime(ideal)
        pairs, violations = exhaustive_prime_closure(
            moduli, lambda e: ideal_member(ideal, product.element(list(e))))
        assert pairs == math.prod(moduli) ** 2
        assert violations == []
    report(4, "prime closure: sampled descriptors + exhaustive finite scans",
           started)


def test_criterion_05_separation_properties():
    started = time.perf_counter()
    catalog = [ZZ, ResidueRing(360), LocalizedIntegersRing((2, 5)), F2X,
               PolynomialRing(4)]
    for ring in catalog:
        rng = rng_for(f"acc5-{ring.short_name}")
        for _ in range(1000):
            r = random_element(ring, rng, small=True)
            a = random_nonzero(ring, rng, small=True)
            w = plus_witness(ring, r, a)
            assert w.lower.issubset(w.vset_d)
            assert w.vset_d.issubset(w.upper)

    # strong property: exhaustive witness sweep for residue rings up to 200
    for n in range(2, 201):
        ring = ResidueRing(n)
        assert plusplus_check(ring).holds
        for r in range(n):
            d = plusplus_witness(ring, ring.element(r))
            assert vset(ring, d) == dset(ring, ring.element(r))

    # integers and binary polynomials fail, with a verified obstruction
    for ring in (ZZ, F2X):
        verdict = plusplus_check(ring)
        assert not verdict.holds
        target = dset(ring, verdict.obstruction)
        assert target.is_cofinite and target.support
        rng = rng_for(f"acc5-obstruction-{ring.short_name}")
        for _ in range(1000):
            d = random_element(ring, rng, small=True)
            assert vset(ring, d) != target

    # weak-property equivalence on finite rings: the witness route agrees
    # with the element-search condition, exhaustively up to 60
    for n in range(2, 61):
        ring = ResidueRing(n)
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % q for q in range(2, p))]
        divisible = {p: frozenset(x for x in range(n) if x % p == 0)
                     for p in primes}
        for r in range(n):
            v_r = [p for p in primes if r % p == 0]
            for a in range(1, n):
                inter_primes = [p for p in primes if a % p == 0 and r % p]
                candidates = set(range(n))
                for p in inter_primes:
                    candidates &= divisible[p]
                # element-search route
                search_ok = all(any(x % q for x in candidates) for q in v_r)
                assert search_ok
                # witness route re-verified exactly
                w = plus_witness(ring, ring.element(r), ring.element(a))
                assert w.lower.issubset(w.vset_d)
                assert w.vset_d.issubset(w.upper)
    assert time.perf_counter() - started < 60
    report(5, "separating-element battery (weak + strong, exhaustive sweeps)",
           started)


def test_criterion_06_minimal_prime_correspondence():
    started = time.perf_counter()
    grid = [(n1, n2) for n1 in range(2, 31) for n2 in range(2, 31)]
    cases = [ProductRing((ResidueRing(n1), ResidueRing(n2))) for n1, n2 in grid]
    cases += [ProductRing(tuple(ResidueRing(n) for n in m))
              for m in THREE_FACTOR_CASES]
    cases.append(ZXZ)
    for product in cases:
        bound = 7 if product is ZXZ else None
        rng = rng_for(f"acc6-{product}")
        for u in enumerate_ultrafilters(product.shape, bound):
            ideal = UltrafilterIdeal(product, u)
            induced = index_filter_of(u)
            for coord in range(product.size):
                chi = product.indicator(
                    [i for i in range(product.size) if i != coord])
                contained = ideal_member(ideal, chi)
                if contained:
                    for _ in range(100):
                        entries = [random_element(r, rng, small=True).raw
                                   for r in product.components]
                        entries[coord] = product.components[coord].zero.raw
                        if not ideal_member(ideal, product.element(entries)):
                            contained = False
                            break
                assert contained == (IndexUltrafilter(coord) == induced)
    report(6, "kernel-in-ultrafilter-ideal iff induced index filter matches",
           started)


def test_criterion_07_valuation_comparison_principal():
    started = time.perf_counter()
    descriptors = [UltrafilterDescriptor(ZXZ.shape, 0, ZZ.max_ideal(p))
                   for p in (2, 3, 5)]
    for u in descriptors:
        rng = rng_for(f"acc7-{u}")
        for _ in range(1000):
            a = ZXZ.element([random_element(ZZ, rng, small=True).raw
                             for _ in range(2)])
            b = ZXZ.element([random_element(ZZ, rng, small=True).raw
                             for _ in range(2)])
            va = valuation(ZZ, a.entries[0], u.principal)
            vb = valuation(ZZ, b.entries[0], u.principal)
            assert valuation_compare(u, a, b).verdict == ("GE" if va >= vb else "LT")
    report(7, "induced valuation comparison vs direct, 10^3 pairs x 3 atoms",
           started)


def test_criterion_08_chain_suite():
    started = time.perf_counter()
    m2, m5 = ZZ.max_ideal(2), ZZ.max_ideal(5)
    values = list(range(1, 11)) + [INF]
    for u in (UltrafilterDescriptor(ZXZ.shape, 0, m2),
              UltrafilterDescriptor(ZXZ.shape, 1, m5)):
        for gv, hv in itertools.product(values, repeat=2):
            g = ValueVector(ZXZ.shape, (1, 1), ((u.coordinate, u.principal, gv),))
            h = ValueVector(ZXZ.shape, (1, 1), ((u.coordinate, u.principal, hv),))
            verdict = chain_strictness(u, g, h)
            assert verdict.consistent
            assert verdict.dominates == (gv is not INF and hv is INF)
            assert verdict.strict_containment == (gv is not INF and hv is INF)

    # threshold ideal of the exact-valuation vector is the smallest prime
    # over x: the whole ideal for finite positive valuation, the kernel for
    # vanishing x; both endpoints are realized by explicit vectors
    from prodideals.valuations import min_prime_over
    u2 = UltrafilterDescriptor(ZXZ.shape, 0, m2)
    ultra = UltrafilterIdeal(ZXZ, u2)
    kernel = KernelIdeal(ZXZ, IndexUltrafilter(0))
    panel = [ZXZ.element([v, 1]) for v in (0, 1, 2, 4, 8, 12, 3, 5, 9, 64)]
    structured = [ZXZ.element([sign * 2**j * odd, second])
                  for j in range(1, 7) for odd in (1, 3, 5)
                  for sign in (1, -1) for second in (1, 7)]
    for x in structured:
        g, _ = min_prime_over(u2, x)
        for y in panel:
            assert ug_member(u2, g, y) == ideal_member(ultra, y)
    for second in (1, 7):
        g, _ = min_prime_over(u2, ZXZ.element([0, second]))
        for y in panel:
            assert ug_member(u2, g, y) == ideal_member(kernel, y)
    g_inf = ValueVector(ZXZ.shape, (INF, INF), ())
    g_fin = ValueVector(ZXZ.shape, (1, 1), ())
    for y in panel:
        assert ug_member(u2, g_inf, y) == ideal_member(kernel, y)
        assert ug_member(u2, g_fin, y) == ideal_member(ultra, y)
    report(8, "chain strictness grid + smallest-prime realization, exhaustive",
           started)


def test_criterion_09_interpolation_witnesses():
    started = time.perf_counter()
    count = 1000
    sample = PrefixSample(tuple(1 for _ in range(count)),
                          tuple(2**i + 1 for i in range(1, count + 1)),
                          tuple(2**i for i in range(1, count + 1)))
    rep = interpolate_chain(sample, "W", n_max=20)
    assert rep.ok and rep.first_failure is None
    for n, wi, wii in rep.witnesses:
        assert wi is not None and wii is not None
        assert n * sample.g[wi] < rep.k[wi]
        assert n * rep.k[wii] < sample.h[wii]
    one = interpolate_chain(PrefixSample((2,), (3,), (1,)), "W", n_max=1)
    assert one.k == (INF,)
    assert time.perf_counter() - started < 5
    report(9, "interpolation obligations on the doubling sample, n <= 20",
           started)


def test_criterion_10_skolem_certificates():
    started = time.perf_counter()
    for product in (ZXZ, ProductRing((ZZ, ZZ, ZZ))):
        rng = rng_for(f"acc10-{product}")
        count = 0
        while count < 1000:
            pair = [[random_element(ZZ, rng, small=True).raw
                     for _ in range(product.size)] for _ in range(2)]
            if any(math.gcd(pair[0][i], pair[1][i]) != 1
                   for i in range(product.size)):
                continue
            elems = [product.element(e) for e in pair]
            result = skolem_check(elems)
            assert result.holds
            total = product.zero
            for c, e in zip(result.certificate, elems):
                total = total + c * e
            assert total == product.one
            count += 1
            # non-coprime control: force a common prime at one coordinate
            coord = rng.randrange(product.size)
            p = rng.choice((2, 3, 5))
            spoiled = [list(e) for e in pair]
            for e in spoiled:
                e[coord] *= p
            control = skolem_check([product.element(e) for e in spoiled])
            assert not control.holds
            bad_coord, ideal = control.witness
            for e in spoiled:
                assert ideal.contains(product.components[bad_coord].element(
                    e[bad_coord]))
    report(10, "skolem certificates on 10^3 coprime tuples + controls", started)


def test_criterion_11_scope_refusal():
    started = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["maxideals", "-r", "Z", "--infinite-index"])
    assert code == 1
    message = err.getvalue().strip()
    assert message == INFINITE_INDEX_MESSAGE
    assert "out of scope" in message and "README" in message
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    assert "Scope and limitations" in readme.read_text()
    report(11, "infinite-index requests refused with a reference message",
           started)


def test_criterion_12_report_determinism():
    started = time.perf_counter()
    corpus = sorted((pathlib.Path(__file__).resolve().parent.parent /
                     "scenarios").glob("*.json"))
    assert corpus
    from prodideals.scenario import run_scenario
    for path in corpus:
        first = run_scenario(str(path)).render_machine().encode()
        second = run_scenario(str(path)).render_machine().encode()
        assert first == second, path.name
    report(12, f"byte-identical machine reports across {len(corpus)} scenarios",
           started)
