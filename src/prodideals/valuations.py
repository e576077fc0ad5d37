"""Valuation comparison, threshold ideals, domination, and chain interpolation.

Value vectors assign an element of the discrete value monoid (non-negative
integers with infinity) to every pair (coordinate, maximal ideal), stored as
a per-coordinate default plus finitely many exceptions.  All decision
procedures below are closed forms derived from this finite-support shape;
the test suite re-checks them against bounded quantifier searches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .boolalg import UltrafilterDescriptor
from .errors import (
    InconsistentInput,
    InvalidSample,
    NonPositiveValueVector,
    NotMember,
    ShapeMismatch,
    UnsupportedDescriptor,
    UnsupportedRing,
)
from .rings import INF, MaxIdealId, ResidueRing, valuation
from .values import check_value, is_value


@dataclass(frozen=True)
class ValueVector:
    """Finite-support assignment (coordinate, maximal ideal) -> value.

    ``defaults[i]`` applies to every maximal ideal of coordinate i outside
    the exception list.
    """

    shape: tuple
    defaults: tuple
    exceptions: tuple  # sorted ((coordinate, MaxIdealId, value), ...)

    def __post_init__(self):
        shape = tuple(self.shape)
        object.__setattr__(self, "shape", shape)
        defaults = tuple(self.defaults)
        if len(defaults) != len(shape):
            raise ShapeMismatch("one default per coordinate required")
        for d in defaults:
            check_value(d, "default")
        object.__setattr__(self, "defaults", defaults)
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
        object.__setattr__(self, "exceptions", tuple(exc))

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
        if isinstance(ring, ResidueRing):
            raise UnsupportedRing(
                f"{ring.short_name} carries no discrete valuations")


def _check_element(u: UltrafilterDescriptor, x):
    if tuple(x.ring.components) != u.shape:
        raise ShapeMismatch("element over a different shape")


def valuation_compare(u: UltrafilterDescriptor, a, b) -> str:
    """Compare images of two product elements under the induced valuation.

    Returns "GE" when some member of the ultrafilter witnesses a pointwise
    comparison v_P(a) >= v_P(b), else "LT".  Principal: compare at the fixed
    ideal.  Cofinite: the witnessing set must be cofinite, so the finitely
    many ideals where either entry vanishes are scanned for a strict drop.
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
    exceptional = set(ring.vset(ea).sorted_support()) | set(ring.vset(eb).sorted_support())
    for m in exceptional:
        if valuation(ring, ea, m) < valuation(ring, eb, m):
            return "LT"
    return "GE"


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
    v = valuation(u.shape[i], entry, u.principal)
    if v is INF:
        return True
    threshold = g.value_at(i, u.principal)
    return v >= 1 and threshold is not INF


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
    assert ug_member(u, g, x)
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


@dataclass(frozen=True)
class ChainVerdict:
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


def _primitive_power(n: int):
    """Write n = c**e with maximal e (so c is not a proper power)."""
    if n < 2:
        return n, 1
    for e in range(n.bit_length(), 1, -1):
        c = round(n ** (1.0 / e))
        for cand in (c - 1, c, c + 1):
            if cand >= 2 and cand**e == n:
                return cand, e
    return n, 1


def floor_div_log(n: int, base: int = None):
    """Exact floor(n / log_base(n)); natural log when base is None.

    The defining equivalence floor(n/log n) = max{k : k*log n <= n} is
    decided with certified interval arithmetic at increasing precision.
    The loop terminates because n/log n is irrational in the natural-log
    case; for an integer base the only rational values arise when n and
    base are powers of a common integer, which is handled exactly first.
    Returns infinity at n = 1 where the logarithm vanishes.
    """
    if n < 1:
        raise InconsistentInput("n must be a positive integer")
    if n == 1:
        return INF
    if base is not None:
        if base < 2:
            raise InconsistentInput("logarithm base must be an integer >= 2")
        cn, en = _primitive_power(n)
        cb, eb = _primitive_power(base)
        if cn == cb:
            # log_base(n) = en/eb exactly
            return (n * eb) // en
    import mpmath  # lazily: only the interpolation path needs it

    prec = max(n.bit_length() + 64, 128)
    while True:
        saved = mpmath.iv.prec
        mpmath.iv.prec = prec
        try:
            x = mpmath.iv.mpf(n)
            log_x = mpmath.iv.log(x)
            if base is not None:
                log_x = log_x / mpmath.iv.log(mpmath.iv.mpf(base))
            ratio = x / log_x
            # extract the endpoints at matching precision: the ambient
            # context would silently round the floors to its own precision
            with mpmath.workprec(prec):
                lo = int(mpmath.floor(ratio.a))
                hi = int(mpmath.floor(ratio.b))
        finally:
            mpmath.iv.prec = saved
        if lo == hi:
            return lo
        prec *= 2


# ---------------------------------------------------------------------------
# Chain interpolation on sampled prefixes


@dataclass(frozen=True)
class PrefixSample:
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
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "n", n)

    @property
    def length(self) -> int:
        return len(self.g)


@dataclass(frozen=True)
class InterpolationReport:
    branch: str
    log_base: object       # "e" or an integer
    k: tuple
    witnesses: tuple       # ((n, index_scale, index_headroom), ...) for n = 1..n_max
    ok: bool
    first_failure: object  # None, or the first n lacking a witness

    def witness_for(self, n: int):
        for m, wi, wii in self.witnesses:
            if m == n:
                return wi, wii
        raise KeyError(n)


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
    reported.
    """
    if branch not in ("V", "W"):
        raise InvalidSample("branch must be 'V' or 'W'")
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
            if gv is INF:
                raise InvalidSample(f"index {i}: finite g required")
            k.append(nv * gv)
    k = tuple(k)

    witnesses = []
    ok = True
    first_failure = None
    for n in range(1, n_max + 1):
        wi = next((i for i in range(sample.length)
                   if _scaled_lt(n, sample.g[i], k[i])), None)
        wii = next((i for i in range(sample.length)
                    if _scaled_lt(n, k[i], sample.h[i])), None)
        witnesses.append((n, wi, wii))
        if (wi is None or wii is None) and first_failure is None:
            first_failure = n
            ok = False
    return InterpolationReport(branch, "e" if log_base is None else log_base,
                               k, tuple(witnesses), ok, first_failure)


def _scaled_lt(n: int, a, b) -> bool:
    # n*a < b in the value monoid
    if a is INF:
        return False
    if a == 0:
        return b > 0
    return n * a < b
