"""Valuation comparison, threshold ideals, domination, and chain interpolation.

Value vectors assign an element of the discrete value monoid (non-negative
integers with infinity) to every pair (coordinate, maximal ideal), stored as
a per-coordinate default plus finitely many exceptions.  All decision
procedures below are closed forms derived from this finite-support shape;
the test suite re-checks them against bounded quantifier searches.
"""

from __future__ import annotations

import functools
import itertools

from .boolalg import UltrafilterDescriptor
from .errors import (
    BudgetExceeded,
    InconsistentInput,
    InvalidSample,
    NonPositiveValueVector,
    NotMember,
    ShapeMismatch,
    UnsupportedDescriptor,
)
from .record import Record, set_field
from .rings import INF, MaxIdealId, _check_valued, _primitive_power, valuation
from .values import check_value, is_value

#: The largest ``n_max`` of ``interpolate_chain``, and the longest built-in
#: doubling sample; the report holds one witness triple per scale.
INTERPOLATION_CAP = 4096


class ValueVector(Record):
    """Finite-support assignment (coordinate, maximal ideal) -> value.

    ``defaults[i]`` applies to every maximal ideal of coordinate i outside
    the exception list.
    """

    shape: tuple
    defaults: tuple
    exceptions: tuple  # sorted ((coordinate, MaxIdealId, value), ...)

    def __post_init__(self):
        shape = tuple(self.shape)
        set_field(self, "shape", shape)
        defaults = tuple(self.defaults)
        if len(defaults) != len(shape):
            raise ShapeMismatch("one default per coordinate required")
        for d in defaults:
            check_value(d, "default")
        set_field(self, "defaults", defaults)
        exc = []
        seen = set()
        for coord, ideal, value in self.exceptions:
            if not 0 <= coord < len(shape):
                raise InconsistentInput(f"coordinate {coord} out of range")
            if ideal.ring != shape[coord]:
                raise InconsistentInput(
                    f"{ideal} is not a maximal ideal of {shape[coord].short_name}")
            check_value(value, "exception value")
            key = (coord, ideal)
            if key in seen:
                raise InconsistentInput(f"duplicate exception for {key}")
            seen.add(key)
            exc.append((coord, ideal, value))
        exc.sort(key=lambda t: (t[0], t[1].sort_key))
        set_field(self, "exceptions", tuple(exc))

    @classmethod
    def constant(cls, shape, value) -> "ValueVector":
        return cls(tuple(shape), tuple(value for _ in shape), ())

    def value_at(self, coord: int, ideal: MaxIdealId):
        for c, m, v in self.exceptions:
            if c == coord and m == ideal:
                return v
        return self.defaults[coord]

    @property
    def everywhere_positive(self) -> bool:
        return all(d >= 1 for d in self.defaults) and \
            all(v >= 1 for _, _, v in self.exceptions)

    def __repr__(self):
        exc = ", ".join(f"({c},{m}):{v}" for c, m, v in self.exceptions)
        return f"ValueVector(defaults={self.defaults}, exceptions=[{exc}])"


def _check_domain_shape(u: UltrafilterDescriptor):
    for ring in u.shape:
        _check_valued(ring)


def _check_element(u: UltrafilterDescriptor, x):
    if tuple(x.ring.components) != u.shape:
        raise ShapeMismatch("element over a different shape")


def valuation_compare(u: UltrafilterDescriptor, a, b) -> str:
    """Compare images of two product elements under the induced valuation.

    Principal at (i, M): "GE" when v_M(a_i) >= v_M(b_i), else "LT".
    Cofinite at i: "GE" when v_P(a_i) >= v_P(b_i) at every maximal ideal P,
    that is, when b_i divides a_i; one Euclidean division decides it, since
    the kinds with a cofinite ultrafilter (``Z``, ``Fq[x]``) are principal
    ideal domains.  Whether a cofinite witnessing set should suffice instead,
    so that only a zero b_i against a nonzero a_i gives "LT", is the open
    membership reading in ROADMAP.md.
    """
    _check_domain_shape(u)
    _check_element(u, a)
    _check_element(u, b)
    i = u.coordinate
    ring = u.shape[i]
    ea, eb = a.entries[i], b.entries[i]
    if not u.is_frechet:
        va = valuation(ring, ea, u.principal)
        vb = valuation(ring, eb, u.principal)
        return "GE" if va >= vb else "LT"
    if ea.is_zero:
        return "GE"
    if eb.is_zero:
        return "LT"
    return "LT" if ring._divmod(ea.raw, eb.raw)[1] else "GE"


def ug_member(u: UltrafilterDescriptor, g: ValueVector, x) -> bool:
    """Membership in the valuation-threshold ideal of (u, g).

    Defining condition: some member Y of the ultrafilter and some power n
    satisfy n*v_P(x_i) >= g_(i,P) for every coordinate i and P in Y_i.
    Closed forms (g positive everywhere):

    * principal at (i, M): the singleton of M at coordinate i is the best Y,
      so membership means some n has n*v_M(x_i) >= g_(i,M), i.e. the entry
      vanishes (infinite valuation), or v_M(x_i) >= 1 with finite threshold.
    * cofinite at i: Y_i must be cofinite, but a nonzero entry has zero
      valuation at cofinitely many P, where no n reaches a positive
      threshold; hence membership means the entry is zero.
    """
    if not g.everywhere_positive:
        raise NonPositiveValueVector("value vector must be positive everywhere")
    _check_domain_shape(u)
    _check_element(u, x)
    if g.shape != u.shape:
        raise ShapeMismatch("value vector over a different shape")
    i = u.coordinate
    entry = x.entries[i]
    if u.is_frechet:
        return entry.is_zero
    return entry.is_zero or (u.principal.contains(entry)
                             and g.value_at(i, u.principal) is not INF)


def min_prime_over(u: UltrafilterDescriptor, x):
    """The smallest prime between the kernel and the ultrafilter ideal
    containing x: threshold values are the exact valuations of x where it
    does not vanish, infinity elsewhere.

    Returns (g, descriptor) and re-verifies x in the resulting ideal.
    Raises NotMember when x is not in the ultrafilter ideal.
    """
    from .products import UltrafilterIdeal, ValuationIdeal, ideal_member
    _check_domain_shape(u)
    _check_element(u, x)
    product = x.ring
    if not ideal_member(UltrafilterIdeal(product, u), x):
        raise NotMember(f"{x!r} is not in the ultrafilter ideal")
    exceptions = []
    for i, (ring, entry) in enumerate(zip(product.components, x.entries)):
        if entry.is_zero:
            continue
        for m in ring.vset(entry).sorted_support():
            exceptions.append((i, m, valuation(ring, entry, m)))
    g = ValueVector(u.shape, tuple(INF for _ in u.shape), tuple(exceptions))
    descriptor = ValuationIdeal(product, u, g)
    if not ug_member(u, g, x):
        raise AssertionError(f"{x!r} is not in its own threshold ideal")
    return g, descriptor


def _dominates_at_all_scales(gv, hv) -> bool:
    # n * gv < hv for every positive integer n
    if gv == 0:
        return hv > 0
    if gv is INF:
        return False
    return hv is INF


def ll_relation(u: UltrafilterDescriptor, g: ValueVector, h: ValueVector) -> bool:
    """The domination order on value vectors: every member of the
    ultrafilter contains, for every scale n, a position where n*g < h.

    Adversarial members shrink to the concentration coordinate, so only it
    matters.  Principal: the test reduces to the fixed position.  Cofinite:
    for each n the qualifying positions must form an infinite set, and the
    finitely many exceptions never supply that, so the per-coordinate
    default pair alone decides.
    """
    if g.shape != u.shape or h.shape != u.shape:
        raise ShapeMismatch("value vectors over a different shape")
    i = u.coordinate
    if u.is_frechet:
        return _dominates_at_all_scales(g.defaults[i], h.defaults[i])
    return _dominates_at_all_scales(g.value_at(i, u.principal),
                                    h.value_at(i, u.principal))


class ChainVerdict(Record):
    dominates: bool            # g strictly dominated by h at all scales
    strict_containment: bool   # threshold ideal of h strictly inside that of g
    consistent: bool           # the two verdicts agree


def chain_strictness(u: UltrafilterDescriptor, g: ValueVector, h: ValueVector) -> ChainVerdict:
    """Domination versus strict containment of threshold ideals, at a
    principal descriptor (where singleton members make the two equivalent).

    At a principal descriptor the threshold ideal only depends on whether
    the value at the fixed position is finite: finite thresholds all yield
    the pullback of the maximal ideal (powers saturate any finite bound),
    the infinite threshold yields the projection kernel.  Hence strict
    containment happens exactly for h infinite, g finite there.
    """
    if u.is_frechet:
        raise UnsupportedDescriptor(
            "strictness assertions are restricted to principal descriptors")
    for v in (g, h):
        if not v.everywhere_positive:
            raise NonPositiveValueVector("value vectors must be positive everywhere")
    dom = ll_relation(u, g, h)
    i = u.coordinate
    gv = g.value_at(i, u.principal)
    hv = h.value_at(i, u.principal)
    strict = (hv is INF) and (gv is not INF)
    return ChainVerdict(dom, strict, dom == strict)


# ---------------------------------------------------------------------------
# Exact floor(N / log N)


def _atanh_bounds(p: int, q: int, w: int):
    """Integers lo <= 2**w * atanh(p/q) < hi, for 0 <= p/q <= 1/3.

    Sums t_j // (2j+1) over the fixed-point powers t_j = floor(t_(j-1) p^2/q^2)
    of (p/q)**(2j+1) until t_K = 0.  Each t_j lies below its exact value by less
    than j+1, so each of the K summands by less than 2; the exact tail from
    j = K is below (K+1)/(2K+1) / (1 - 1/9) <= 9/8.
    """
    term, total, j = (p << w) // q, 0, 0
    while term:
        total += term // (2 * j + 1)
        term = term * p * p // (q * q)
        j += 1
    return total, total + 2 * j + 2


@functools.lru_cache(maxsize=64)
def _ln_bounds(x: int, w: int):
    """Integers lo < 2**w * ln(x) < hi for x >= 2, rounded outward: with
    2**e <= x < 2**(e+1), ln x = e ln 2 + 2 atanh((x - 2**e)/(x + 2**e)), and
    ln 2 = 2 atanh(1/3).  Cached, so ln 2 is summed once per precision w."""
    if x == 2:
        lo, hi = _atanh_bounds(1, 3, w)
        return 2 * lo, 2 * hi
    e = x.bit_length() - 1
    lo2, hi2 = _ln_bounds(2, w)
    lo, hi = _atanh_bounds(x - (1 << e), x + (1 << e), w)
    return e * lo2 + 2 * lo, e * hi2 + 2 * hi


def floor_div_log(n: int, base: int = None):
    """Exact floor(n / log_base(n)); natural log when base is None.

    n / log_b(n) = n ln(b) / ln(n) lies between two integer quotients of the
    enclosures ``_ln_bounds`` of 2**w ln(n) and 2**w ln(b) (2**w itself for
    the natural log); w doubles until the floors of both ends agree.  That
    terminates because the ratio is irrational, except when n and base are
    powers of one integer, which is decided exactly first.
    Returns infinity at n = 1 where the logarithm vanishes.
    """
    if n < 1:
        raise InconsistentInput("n must be a positive integer")
    if n == 1:
        return INF
    if base is not None:
        if base < 2:
            raise InconsistentInput("logarithm base must be an integer >= 2")
        cb, eb = _primitive_power(base)
        # n is a power of cb iff dividing out cb leaves 1, since cb is not a
        # proper power; cb, cb**2, cb**4, ... are divided out while they divide
        m, en = n, 0
        while m % cb == 0:
            p, k = cb, 1
            while m % p == 0:
                m, en = m // p, en + k
                p, k = p * p, 2 * k
        if m == 1:
            # log_base(n) = en/eb exactly
            return (n * eb) // en
    w = 1 << (n.bit_length() + 63).bit_length()
    while True:
        n_lo, n_hi = _ln_bounds(n, w)
        b_lo, b_hi = (1 << w, 1 << w) if base is None else _ln_bounds(base, w)
        lo, hi = n * b_lo // n_hi, n * b_hi // n_lo
        if lo == hi:
            return lo
        w *= 2


# ---------------------------------------------------------------------------
# Chain interpolation on sampled prefixes


class PrefixSample(Record):
    """A finite prefix of positions, one maximal ideal per index.

    ``g`` and ``h`` are the value pairs; ``n`` carries the per-index scale:
    the bracketing integer N for the bounded-ratio branch, or the assigned
    partition cell for the unbounded-ratio branch.
    """

    g: tuple
    h: tuple
    n: tuple

    def __post_init__(self):
        g, h, n = tuple(self.g), tuple(self.h), tuple(self.n)
        if not (len(g) == len(h) == len(n)) or not g:
            raise InvalidSample("g, h, n must be nonempty and of equal length")
        for v in itertools.chain(g, h, n):
            if not is_value(v):
                raise InvalidSample(f"not a value: {v!r}")
        set_field(self, "g", g)
        set_field(self, "h", h)
        set_field(self, "n", n)

    @property
    def length(self) -> int:
        return len(self.g)


class InterpolationReport(Record):
    branch: str
    log_base: object       # "e" or an integer
    k: tuple
    witnesses: tuple       # ((n, index_scale, index_headroom), ...) for n = 1..n_max
    ok: bool
    first_failure: object  # None, or the first n lacking a witness


def interpolate_chain(sample: PrefixSample, branch: str,
                      n_max: int = 20, log_base: int = None) -> InterpolationReport:
    """Construct the middle vector k of a strict domination chain g < k < h
    on a sampled prefix, and scan the two proof obligations.

    Bounded-ratio branch ("W"): each index carries N with
    N*g < h <= (N+1)*g; the middle value is floor(N/log N)*g, with the
    convention floor(1/0) = infinity at N = 1.  Unbounded-ratio branch
    ("V"): h dominates g at all scales and each index carries a partition
    cell n; the middle value is n*g.

    The report exhibits, for every scale up to n_max, an index where the
    middle value exceeds n*g (obligation "scale") and one where n times the
    middle value stays below h (obligation "headroom").  A missing witness
    is expected when the sampled scales are bounded; the first such scale is
    reported.  An ``n_max`` above ``INTERPOLATION_CAP`` raises BudgetExceeded.
    """
    if branch not in ("V", "W"):
        raise InvalidSample("branch must be 'V' or 'W'")
    if n_max > INTERPOLATION_CAP:
        raise BudgetExceeded(f"n_max {n_max} exceeds the interpolation cap {INTERPOLATION_CAP}")
    k = []
    if branch == "W":
        for i, (gv, hv, nv) in enumerate(zip(sample.g, sample.h, sample.n)):
            if gv is INF or hv is INF or nv is INF:
                raise InvalidSample(f"index {i}: bounded branch needs finite values")
            if gv < 1 or nv < 1:
                raise InvalidSample(f"index {i}: positive values required")
            if not (nv * gv < hv <= (nv + 1) * gv):
                raise InvalidSample(
                    f"index {i}: bracketing N*g < h <= (N+1)*g fails "
                    f"(N={nv}, g={gv}, h={hv})")
            ratio = floor_div_log(nv, log_base)
            k.append(ratio * gv if ratio is not INF else INF)
    else:
        for i, (gv, hv, nv) in enumerate(zip(sample.g, sample.h, sample.n)):
            if nv is INF or nv < 1:
                raise InvalidSample(f"index {i}: cell index must be a positive integer")
            if not _dominates_at_all_scales(gv, hv):
                raise InvalidSample(
                    f"index {i}: unbounded branch needs h to dominate g at all "
                    f"scales (g={gv}, h={hv})")
            k.append(nv * gv)
    k = tuple(k)

    # n*a < b holds at fewer indices as n grows, so the first witness of
    # each obligation only moves forward: one pointer per obligation
    obligations, at = ((sample.g, k), (k, sample.h)), [0, 0]
    witnesses = []
    for n in range(1, n_max + 1):
        for j, (a, b) in enumerate(obligations):
            while at[j] < sample.length and not _scaled_lt(n, a[at[j]], b[at[j]]):
                at[j] += 1
        witnesses.append((n, *(i if i < sample.length else None for i in at)))
    first_failure = next((n for n, wi, wii in witnesses if wi is None or wii is None), None)
    return InterpolationReport(branch, "e" if log_base is None else log_base,
                               k, tuple(witnesses), first_failure is None, first_failure)


def _scaled_lt(n: int, a, b) -> bool:
    # n*a < b in the value monoid
    if a is INF:
        return False
    if a == 0:
        return b > 0
    return n * a < b
