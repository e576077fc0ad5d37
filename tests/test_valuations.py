import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from conftest import random_element, rng_for
from prodideals.boolalg import UltrafilterDescriptor
from prodideals.errors import (
    InconsistentInput,
    InvalidSample,
    NonPositiveValueVector,
    NotMember,
    UnsupportedDescriptor,
    UnsupportedRing,
)
from prodideals.products import (
    KernelIdeal,
    ProductRing,
    UltrafilterIdeal,
    ideal_member,
)
from prodideals.fqpoly import all_monic, field
from prodideals.record import Ruling
from prodideals.rings import INF, IntegerRing, PolynomialRing, ResidueRing, valuation
from prodideals.valuations import (
    RULE_FRECHET_EXCEPTION_SCAN,
    RULE_LL_ATOM,
    RULE_LL_DEFAULT_PAIR,
    RULE_PRINCIPAL_VALUATION_RESTRICTION,
    PrefixSample,
    ValueVector,
    chain_strictness,
    floor_div_log,
    interpolate_chain,
    ll_relation,
    min_prime_over,
    ug_member,
    valuation_compare,
)

ZZ = IntegerRing()
ZXZ = ProductRing((ZZ, ZZ))
SHAPE = ZXZ.shape
M2 = ZZ.max_ideal(2)
U2 = UltrafilterDescriptor(SHAPE, 0, M2)
UF = UltrafilterDescriptor(SHAPE, 0, None)


def vv(default0, default1=1, **at2):
    exc = tuple((0, M2, v) for v in at2.values())
    return ValueVector(SHAPE, (default0, default1), exc)


def trial_factor(n):
    n = abs(n)
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trial_divmod_mod_p(f, g, p):
    """Long division of coefficient tuples (lowest degree first) over F_p."""
    f, inv, dg = list(f), pow(g[-1], -1, p), len(g) - 1
    quot = [0] * max(len(f) - dg, 0)
    for shift in reversed(range(len(quot))):
        c = quot[shift] = f[shift + dg] * inv % p
        for j, gj in enumerate(g):
            f[shift + j] = (f[shift + j] - c * gj) % p
    rem = f[:dg]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def trial_factor_poly(f, p):
    """The monic irreducible factors of a nonzero f over F_p, with their
    multiplicities: every monic polynomial of rising degree is divided out
    while it divides, so only irreducible ones ever do."""
    f = trial_divmod_mod_p(f, (f[-1],), p)[0]
    out = {}
    d = 1
    while 2 * d < len(f):
        for m in all_monic(field(p), d):
            q, r = trial_divmod_mod_p(f, m, p)
            while not r:
                out[m] = out.get(m, 0) + 1
                f = q
                q, r = trial_divmod_mod_p(f, m, p)
        d += 1
    if len(f) > 1:
        out[f] = out.get(f, 0) + 1
    return out


def random_poly_raw(p):
    def draw(rng):
        coeffs = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)
    return draw


#: (ring, draw a raw entry, factor a nonzero raw entry) for every kind
#: that admits a cofinite ultrafilter
FRECHET_KINDS = [
    (ZZ, lambda rng: rng.randint(-4000, 4000), trial_factor),
    (PolynomialRing(2), random_poly_raw(2), lambda f: trial_factor_poly(f, 2)),
    (PolynomialRing(3), random_poly_raw(3), lambda f: trial_factor_poly(f, 3)),
]


class TestValuationCompare:
    def test_worked_examples(self):
        principal, frechet = RULE_PRINCIPAL_VALUATION_RESTRICTION, RULE_FRECHET_EXCEPTION_SCAN
        assert valuation_compare(U2, ZXZ.element([4, 7]), ZXZ.element([2, 9])) == \
            Ruling("GE", principal)
        assert valuation_compare(U2, ZXZ.element([2, 1]), ZXZ.element([4, 1])) == \
            Ruling("LT", principal)
        assert valuation_compare(UF, ZXZ.element([6, 1]), ZXZ.element([2, 1])) == \
            Ruling("GE", frechet)
        assert valuation_compare(UF, ZXZ.element([6, 1]), ZXZ.element([4, 1])) == \
            Ruling("LT", frechet)

    def test_residue_rejected(self):
        product = ProductRing((ResidueRing(12),))
        u = UltrafilterDescriptor(product.shape, 0,
                                  product.components[0].max_ideal(2))
        with pytest.raises(UnsupportedRing):
            valuation_compare(u, product.element([2]), product.element([3]))

    def test_principal_matches_direct_valuation(self):
        descriptors = [UltrafilterDescriptor(SHAPE, 0, ZZ.max_ideal(p))
                       for p in (2, 3, 5)]
        rng = rng_for("prop-compare")
        for u in descriptors:
            for _ in range(300):
                a = ZXZ.element([random_element(ZZ, rng, small=True).raw
                                 for _ in range(2)])
                b = ZXZ.element([random_element(ZZ, rng, small=True).raw
                                 for _ in range(2)])
                va = valuation(ZZ, a.entries[0], u.principal)
                vb = valuation(ZZ, b.entries[0], u.principal)
                expected = "GE" if va >= vb else "LT"
                assert valuation_compare(u, a, b).verdict == expected

    def test_frechet_against_independent_scan(self):
        # independent route: factor both entries by trial division and look
        # for any maximal ideal where the first element drops below the
        # second; a third of the draws make a a multiple of b
        rng = rng_for("frechet-compare")
        for ring, draw, factor in FRECHET_KINDS:
            product = ProductRing((ring,))
            u = UltrafilterDescriptor(product.shape, 0, None)
            zero, one = ring.zero.raw, ring.one.raw
            cases = [(one, zero, "LT"), (zero, one, "GE"), (zero, zero, "GE")]
            for _ in range(300):
                x, y = draw(rng), draw(rng)
                if rng.randrange(3) == 0:
                    x = (ring.element(x) * ring.element(y)).raw
                if not x:
                    expected = "GE"
                elif not y:
                    expected = "LT"
                else:
                    fx, fy = factor(x), factor(y)
                    expected = "GE" if all(fx.get(p, 0) >= e for p, e in fy.items()) \
                        else "LT"
                cases.append((x, y, expected))
            for x, y, expected in cases:
                a, b = product.element([x]), product.element([y])
                assert valuation_compare(u, a, b).verdict == expected, (ring, x, y)


def ug_member_bounded_search(u, g, x, n_max=64):
    """Independent decision of threshold membership by bounded search over a
    generated family of candidate witness sets.

    Candidates put a set at the concentration coordinate only (any other
    choice only adds constraints).  Principal: supersets of the atom reduce
    to the atom, so the atom is the single candidate.  Cofinite: candidates
    exclude subsets of the finitely many ideals where the entry or the
    vector is exceptional; the cofinitely many remaining positions carry the
    entry valuation (infinite for zero entries, zero otherwise) against the
    coordinate default.
    """
    ring = u.shape[u.coordinate]
    entry = x.entries[u.coordinate]
    if not u.is_frechet:
        v = valuation(ring, entry, u.principal)
        threshold = g.value_at(u.coordinate, u.principal)
        for n in range(1, n_max + 1):
            scaled = INF if v is INF else n * v
            if scaled >= threshold:
                return True
        return False
    relevant = set() if entry.is_zero else set(ring.vset(entry).sorted_support())
    relevant |= {m for c, m, _ in g.exceptions if c == u.coordinate}
    relevant = sorted(relevant, key=lambda m: m.sort_key)
    default = g.defaults[u.coordinate]
    outside_v = INF if entry.is_zero else 0
    for k in range(len(relevant) + 1):
        for excluded in itertools.combinations(relevant, k):
            kept = [m for m in relevant if m not in excluded]
            for n in range(1, n_max + 1):
                def satisfied(v, threshold):
                    scaled = INF if v is INF else n * v
                    return scaled >= threshold
                if not satisfied(outside_v, default):
                    continue
                if all(satisfied(valuation(ring, entry, m),
                                 g.value_at(u.coordinate, m)) for m in kept):
                    return True
    return False


class TestUgMember:
    def test_worked_examples(self):
        assert ug_member(U2, vv(1, at2=3), ZXZ.element([2, 1]))
        assert not ug_member(U2, vv(1, at2=INF), ZXZ.element([2, 1]))
        assert ug_member(U2, vv(1, at2=INF), ZXZ.element([0, 1]))
        assert not ug_member(UF, vv(1), ZXZ.element([6, 5]))
        assert ug_member(UF, vv(1), ZXZ.element([0, 5]))

    def test_positivity_required(self):
        with pytest.raises(NonPositiveValueVector):
            ug_member(U2, vv(0), ZXZ.element([2, 1]))

    def test_against_bounded_search(self):
        rng = rng_for("ug-search")
        vectors = [vv(1), vv(2, at2=5), vv(1, at2=INF), vv(3, 7, at2=1),
                   ValueVector(SHAPE, (INF, INF), ())]
        for u in (U2, UF, UltrafilterDescriptor(SHAPE, 1, ZZ.max_ideal(3))):
            for g in vectors:
                for _ in range(60):
                    entries = [0 if rng.random() < 0.3
                               else random_element(ZZ, rng, small=True).raw
                               for _ in range(2)]
                    x = ZXZ.element(entries)
                    assert ug_member(u, g, x) == ug_member_bounded_search(u, g, x)


class TestMinPrimeOver:
    def test_worked_example(self):
        g, descriptor = min_prime_over(U2, ZXZ.element([4, 3]))
        assert g.defaults == (INF, INF)
        assert g.value_at(0, M2) == 2
        assert ug_member(U2, g, ZXZ.element([4, 3]))

    def test_zero_entry_gives_kernel(self):
        g, _ = min_prime_over(U2, ZXZ.element([0, 1]))
        assert g.defaults == (INF, INF) and not g.exceptions
        # the resulting ideal is the kernel: members vanish at the coordinate
        for value, expected in ((0, True), (2, False), (6, False)):
            assert ug_member(U2, g, ZXZ.element([value, 1])) == expected

    def test_not_member_rejected(self):
        with pytest.raises(NotMember):
            min_prime_over(U2, ZXZ.element([3, 2]))

    def test_minimality_panel(self):
        # for x with finite positive valuation the minimal prime over x is
        # the whole ultrafilter ideal; for vanishing x it is the kernel
        ultra = UltrafilterIdeal(ZXZ, U2)
        kernel = KernelIdeal(ZXZ, 0)
        panel = [ZXZ.element([v, 1]) for v in (0, 1, 2, 4, 8, 12, 5)]
        for j in (1, 2, 5):
            x = ZXZ.element([2**j * 3, 7])
            g, _ = min_prime_over(U2, x)
            for y in panel:
                assert ug_member(U2, g, y) == ideal_member(ultra, y)
        x = ZXZ.element([0, 7])
        g, _ = min_prime_over(U2, x)
        for y in panel:
            assert ug_member(U2, g, y) == ideal_member(kernel, y)

    def test_threshold_ideals_realize_the_chain(self):
        # every prime between the kernel and the ultrafilter ideal appears
        # as a threshold ideal: the kernel at the all-infinite vector, the
        # maximal one at any finite vector
        ultra = UltrafilterIdeal(ZXZ, U2)
        kernel = KernelIdeal(ZXZ, 0)
        panel = [ZXZ.element([v, 1]) for v in (0, 1, 2, 4, 8, 12, 5, 9)]
        g_infinite = ValueVector(SHAPE, (INF, INF), ())
        g_finite = vv(1, at2=4)
        for y in panel:
            assert ug_member(U2, g_infinite, y) == ideal_member(kernel, y)
            assert ug_member(U2, g_finite, y) == ideal_member(ultra, y)


class TestLLRelation:
    def test_worked_examples(self):
        assert ll_relation(U2, vv(1, at2=1), vv(1, at2=INF))
        assert not ll_relation(U2, vv(1, at2=1), vv(1, at2=5))
        assert ll_relation(UF, vv(1), vv(INF))
        # the branch that decides names the rule
        assert ll_relation(U2, vv(1), vv(1)) == Ruling(False, RULE_LL_ATOM)
        assert ll_relation(UF, vv(1), vv(INF)) == Ruling(True, RULE_LL_DEFAULT_PAIR)

    def test_zero_convention(self):
        g = ValueVector(SHAPE, (0, 0), ())
        assert ll_relation(U2, g, vv(1, at2=5))   # n*0 = 0 < 5
        assert not ll_relation(U2, g, ValueVector(SHAPE, (0, 0), ()))

    def test_definition_unfolded_small_scales(self):
        # at a principal descriptor the definition reduces to the atom; check
        # the quantifier directly for scales up to 200
        values = [0, 1, 2, 7, 10, INF]
        for gv, hv in itertools.product(values, repeat=2):
            g, h = vv(1, at2=gv), vv(1, at2=hv)
            claimed = ll_relation(U2, g, h)
            finite_scan = all(
                (INF if gv is INF else n * gv) < hv for n in range(1, 201))
            if claimed:
                assert finite_scan
            elif hv is not INF or gv is INF:
                # failures at finite h (or infinite g) show up within the scan
                assert not finite_scan

    def test_frechet_exceptions_irrelevant(self):
        g = vv(1, at2=INF)
        h = vv(INF, at2=1)
        assert ll_relation(UF, g, h)  # defaults decide: 1 vs INF
        assert not ll_relation(UF, h, g)


class TestChainStrictness:
    def test_biconditional_exhaustive_grid(self):
        values = list(range(1, 11)) + [INF]
        for u in (U2, UltrafilterDescriptor(SHAPE, 1, ZZ.max_ideal(5))):
            marker = u.principal
            for gv, hv in itertools.product(values, repeat=2):
                g = ValueVector(SHAPE, (1, 1), ((u.coordinate, marker, gv),))
                h = ValueVector(SHAPE, (1, 1), ((u.coordinate, marker, hv),))
                verdict = chain_strictness(u, g, h)
                assert verdict.consistent
                assert verdict.dominates == (gv is not INF and hv is INF)

    def test_strictness_matches_membership_panel(self):
        panel = [ZXZ.element([v, 1]) for v in (0, 1, 2, 4, 8, 3)]
        values = [1, 2, 9, INF]
        for gv, hv in itertools.product(values, repeat=2):
            g, h = vv(1, at2=gv), vv(1, at2=hv)
            member_g = [ug_member(U2, g, y) for y in panel]
            member_h = [ug_member(U2, h, y) for y in panel]
            subset = all(not mh or mg for mg, mh in zip(member_g, member_h))
            strict_panel = subset and member_g != member_h
            assert chain_strictness(U2, g, h).strict_containment == strict_panel

    def test_frechet_rejected(self):
        with pytest.raises(UnsupportedDescriptor):
            chain_strictness(UF, vv(1), vv(INF))


def exact_floor_ratio_oracle(n):
    """Independent oracle for small n: bracket e**n by rational partial sums
    with a tail bound, and certify floor(n/log n) from the defining
    inequality n**k <= e**n < n**(k+1)."""
    terms = 4 * n + 24
    while True:
        s = Fraction(0)
        term = Fraction(1)
        for j in range(1, terms + 1):
            s += term
            term = term * n / j
        # tail: term = n**terms/terms!; ratio below n/(terms+1) < 1/2
        tail = term * 2
        lower, upper = s, s + tail
        k = 1
        while Fraction(n**(k + 1)) <= lower:
            k += 1
        if Fraction(n**k) <= lower and Fraction(n**(k + 1)) >= upper:
            return k
        terms *= 2


class TestFloorDivLog:
    def test_small_values_against_rational_bracket(self):
        for n in range(2, 45):
            assert floor_div_log(n) == exact_floor_ratio_oracle(n)

    def test_convention_at_one(self):
        assert floor_div_log(1) is INF

    def test_rational_base_cases(self):
        assert floor_div_log(4, base=2) == 2       # 4 / log2(4) exactly
        assert floor_div_log(8, base=2) == 2       # floor(8/3)
        assert floor_div_log(16, base=4) == 8      # 16 / 2
        assert floor_div_log(8, base=4) == 5       # floor(8/(3/2))
        assert floor_div_log(9, base=3) == 4       # floor(9/2)

    def test_large_value_window(self):
        # certified window from 0.6931 < log 2 < 0.6932
        lo, hi = Fraction(6931, 10000), Fraction(6932, 10000)
        for i in (100, 500, 1000):
            n = 2**i
            k = floor_div_log(n)
            assert Fraction(k) <= Fraction(n) / (i * lo)
            assert Fraction(k + 1) > Fraction(n) / (i * hi)

    def test_large_values_against_second_route(self):
        # independent route: decimal arithmetic, whose ln is correctly
        # rounded, with an explicit decisive-margin check, escalating
        # precision until the fractional part is clearly away from the floor
        # boundary; n / ln(n) is off by a few units in its last place
        import decimal
        import random

        def second_route(n):
            digits = max(2 * len(str(n)), 60)
            while True:
                with decimal.localcontext() as ctx:
                    ctx.prec = digits
                    r = decimal.Decimal(n) / decimal.Decimal(n).ln()
                    fl = int(r)  # r > 0, so truncation is the floor
                    frac = r - fl
                    margin = decimal.Decimal(10) ** (len(str(fl)) - digits // 2)
                    if frac > margin and (1 - frac) > margin:
                        return fl
                digits *= 2

        for i in (60, 100, 333, 1000):
            n = 2**i
            assert floor_div_log(n) == second_route(n), i
        rng = random.Random("large-floors")
        for _ in range(50):
            n = rng.getrandbits(rng.randint(64, 600)) | 1
            if n > 2:
                assert floor_div_log(n) == second_route(n), n

    def test_invalid(self):
        with pytest.raises(InconsistentInput):
            floor_div_log(0)
        with pytest.raises(InconsistentInput):
            floor_div_log(5, base=1)


def test_integer_base_is_exact_on_doubling_scales():
    # log_2(2**i) = i and log_4(2**i) = i/2 exactly, up to the interpolation cap
    for i in range(1, 4097):
        assert floor_div_log(2**i, base=2) == 2**i // i
        assert floor_div_log(2**i, base=4) == 2**(i + 1) // i


def test_integer_base_on_large_non_powers():
    # n divisible by the base's primitive root but not a power of it; the
    # pinned values are those of the exponent-by-exponent search
    def digest(k):
        return hashlib.sha256(str(k).encode()).hexdigest()[:16]
    assert floor_div_log(2**4096, base=2) == 2**4084
    assert floor_div_log(2**4096 + 2, base=2) == 2**4084
    assert digest(floor_div_log(3**2000 * 2, base=3)) == "526a026b2663ceb7"
    assert digest(floor_div_log(6**1500 * 5, base=2)) == "6b7ec79bd313f3da"


def test_primitive_power_against_the_definition():
    # n = c**e with e maximal: below the limit, from the list of every power
    # c**e; above it, for powers of bases that are no proper powers
    from prodideals.valuations import _primitive_power
    limit = 20000
    best = {n: (n, 1) for n in range(2, limit)}
    for c in range(2, math.isqrt(limit) + 1):
        e, n = 2, c * c
        while n < limit:
            if e > best[n][1]:
                best[n] = (c, e)
            e, n = e + 1, n * c
    assert {n: _primitive_power(n) for n in best} == best
    for c, e in ((2, 4096), (6, 1500), (12, 210), (2**61 - 1, 60), (10**6 + 3, 1)):
        assert _primitive_power(c**e) == (c, e)
        assert _primitive_power(c**e + 2) == (c**e + 2, 1)


def test_interpolation_finds_the_base_root_once():
    # every sample entry takes floor(N / log_base N); the base's primitive
    # root is computed for the first one only
    from prodideals import valuations
    sample = PrefixSample((1,) * 8, tuple(2**i + 1 for i in range(1, 9)),
                          tuple(2**i for i in range(1, 9)))
    valuations._primitive_power.cache_clear()
    interpolate_chain(sample, "W", n_max=4, log_base=2**512 + 2)
    info = valuations._primitive_power.cache_info()
    assert (info.misses, info.hits) == (1, 7)


def test_integer_base_against_the_definition():
    # floor(n / log_b n) is the largest k with n**k <= b**n
    for b in range(2, 17):
        for n in range(2, 400):
            k = floor_div_log(n, base=b)
            assert n**k <= b**n < n**(k + 1), (n, b)


class TestInterpolation:
    def test_floor_worked_example(self):
        sample = PrefixSample((1,), (9,), (8,))
        report = interpolate_chain(sample, "W", n_max=2)
        assert report.k == (3,)  # floor(8/log 8) = 3

    def test_one_gives_infinity(self):
        report = interpolate_chain(PrefixSample((2,), (3,), (1,)), "W", n_max=2)
        assert report.k == (INF,)

    def test_bracketing_validated(self):
        with pytest.raises(InvalidSample):
            interpolate_chain(PrefixSample((1,), (12,), (8,)), "W")  # h > (N+1)g

    def test_doubling_sample_witnesses(self):
        count = 200
        sample = PrefixSample(tuple(1 for _ in range(count)),
                              tuple(2**i + 1 for i in range(1, count + 1)),
                              tuple(2**i for i in range(1, count + 1)))
        report = interpolate_chain(sample, "W", n_max=20)
        assert report.ok and report.first_failure is None
        for n, wi, wii in report.witnesses:
            assert n * sample.g[wi] < report.k[wi]
            assert n * report.k[wii] < sample.h[wii]

    def test_bounded_sample_fails_eventually(self):
        sample = PrefixSample((1, 1), (9, 9), (8, 8))
        report = interpolate_chain(sample, "W", n_max=10)
        assert not report.ok
        assert report.first_failure is not None

    def test_middle_value_stays_below_cap(self):
        # k <= N*g < h wherever log N >= 1
        count = 40
        sample = PrefixSample(tuple(2 for _ in range(count)),
                              tuple(2**(i + 1) + 3 for i in range(1, count + 1)),
                              tuple(2**i + 1 for i in range(1, count + 1)))
        report = interpolate_chain(sample, "W", n_max=5)
        for g, h, n, k in zip(sample.g, sample.h, sample.n, report.k):
            if n >= 3:
                assert k <= n * g < h

    def test_unbounded_branch(self):
        count = 30
        sample = PrefixSample(tuple(1 for _ in range(count)),
                              tuple(INF for _ in range(count)),
                              tuple(range(1, count + 1)))
        report = interpolate_chain(sample, "V", n_max=20)
        assert report.ok
        assert report.k == tuple(range(1, count + 1))
        with pytest.raises(InvalidSample):
            interpolate_chain(PrefixSample((1,), (5,), (2,)), "V")

    def test_log_base_recorded(self):
        report = interpolate_chain(PrefixSample((1,), (9,), (8,)), "W",
                                   n_max=1, log_base=2)
        assert report.log_base == 2
        assert report.k == (2,)  # floor(8/3)


def quadratic_witness_scan(sample, k, n_max):
    """The obligation scan written from its statement: at each scale n, the
    first index with n*g < k and the first with n*k < h, each searched from
    index 0.  The reference for the forward-pointer scan."""
    def scaled_lt(n, a, b):
        return a is not INF and (b > 0 if a == 0 else n * a < b)

    witnesses = tuple(
        (n, next((i for i in range(len(sample.g)) if scaled_lt(n, sample.g[i], k[i])), None),
         next((i for i in range(len(sample.g)) if scaled_lt(n, k[i], sample.h[i])), None))
        for n in range(1, n_max + 1))
    return witnesses, next((n for n, wi, wii in witnesses if None in (wi, wii)), None)


@pytest.mark.parametrize("branch", ["W", "V"])
def test_forward_pointer_scan_matches_the_quadratic_scan(branch):
    rng = rng_for(f"interpolate-scan-{branch}")
    for trial in range(60):
        length = rng.randint(1, 40)
        if branch == "W":
            # N = 1 gives k = inf; N*g < h <= (N+1)*g brackets h
            g = [rng.randint(1, 4) for _ in range(length)]
            n = [rng.choice((1, rng.randint(2, 200))) for _ in range(length)]
            h = [nv * gv + rng.randint(1, gv) for gv, nv in zip(g, n)]
        else:
            # g = 0 gives k = 0; h dominates g at all scales
            g = [rng.choice((0, rng.randint(1, 4))) for _ in range(length)]
            h = [INF if gv or rng.random() < 0.5 else rng.randint(1, 9) for gv in g]
            n = [rng.randint(1, 200) for _ in range(length)]
        sample = PrefixSample(tuple(g), tuple(h), tuple(n))
        log_base = rng.choice((None, 2, 10))
        # past the last witness: the largest N or cell, and then some
        n_max = rng.choice((1, 20, max(n) + rng.randint(1, 50)))
        report = interpolate_chain(sample, branch, n_max=n_max, log_base=log_base)
        witnesses, first_failure = quadratic_witness_scan(sample, report.k, n_max)
        assert (report.witnesses, report.first_failure) == (witnesses, first_failure), trial
        assert report.ok == (first_failure is None)
