"""Seeded job lists for the three workloads.

Every job is one ``prodideals`` CLI call.  The inputs come from ``--seed``
alone, and each job carries a check whose expected answer is computed here
from ``mathref``, never by calling ``prodideals``.  The seed changes the
concrete inputs (bounds, moduli, factor orders, integers, polynomials, query
order) but not the shape of the job list, so runs with different seeds do
nearly the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mathref as mr

INF = "inf"
MAX_SAFE = 2**53 - 1
SMALL_PRIMES = mr.primes_upto(100)


@dataclass
class Job:
    name: str                                  # stable for a seed; keys the digests
    argv: list
    check: Callable[[bytes], Optional[str]]    # None when the output is right


def enc_int(v: int):
    """The report's integer encoding: strings beyond 2**53 - 1."""
    return v if abs(v) <= MAX_SAFE else str(v)


def first_verdict(out: bytes):
    """The verdict of record 0, from a machine or a text report."""
    lines = out.decode().splitlines()
    if lines[0].startswith("{"):
        return json.loads(lines[1])["verdict"]
    return json.loads(lines[1].split(": ", 1)[1])


def record_count(out: bytes) -> int:
    lines = out.decode().splitlines()
    if lines[0].startswith("{"):
        return len(lines) - 1
    return sum(1 for line in lines if line.startswith("["))


# ---------------------------------------------------------------------------
# enumerate: maxideals at growing bounds


def _expected_spectrum(token: str, bound: int):
    """(checker of one coordinate's principal generators, is_infinite)."""
    if token == "Z":
        primes = mr.primes_upto(bound)
        return (lambda gens: sorted(gens) == primes), True
    if token.startswith("Z/"):
        want = sorted(mr.factorize(int(token[2:])))
        return (lambda gens: sorted(gens) == want), False
    if token.startswith("Z_("):
        want = sorted(int(p) for p in token[3:-1].split(","))
        return (lambda gens: sorted(gens) == want), False
    q = int(token[1:-3])
    want = {d: mr.irreducible_count(q, d) for d in range(1, bound + 1)}

    def check(gens):
        polys = [tuple(g["poly"]) for g in gens]
        by_deg = Counter(len(f) - 1 for f in polys)
        return (len(set(polys)) == len(polys) and all(f[-1] == 1 for f in polys)
                and by_deg == Counter({d: n for d, n in want.items() if n}))
    return check, True


def _check_maxideals(tokens, bound):
    specs = [_expected_spectrum(t, bound) for t in tokens]

    def check(out: bytes):
        verdict = first_verdict(out)
        gens = [[] for _ in tokens]
        for entry in verdict["maximal"]:
            u = entry["ultrafilter"]
            gens[u["coordinate"]].append(u["principal"])
        for i, (ok, _) in enumerate(specs):
            if not ok(gens[i]):
                return f"coordinate {i} ({tokens[i]}): wrong maximal ideals"
        rejected = sorted(e["ultrafilter"]["coordinate"] for e in verdict["rejected"]
                          if e["ultrafilter"].get("cofinite_frechet"))
        infinite = [i for i, (_, inf) in enumerate(specs) if inf]
        if rejected != infinite or len(verdict["rejected"]) != len(infinite):
            return f"rejected entries at {rejected}, expected one Frechet entry at each of {infinite}"
        return None
    return check


def _finite_extra(rng) -> str:
    """A finite-spectrum component that adds few, cheap maximal ideals."""
    if rng.random() < 0.5:
        return f"Z/{rng.randrange(2, 1000)}"
    return "Z_(" + ",".join(str(p) for p in sorted(rng.sample(SMALL_PRIMES[:10], 2))) + ")"


#: (infinite components, bound range); Z bounds are value bounds, Fq degree bounds
ENUMERATE_SLOTS = (
    (["Z", "Z"], (97_000, 100_000)),
    (["Z", "Z"], (29_000, 31_000)),
    (["Z"], (9_500, 10_500)),
    (["F2[x]"], (12, 12)),
    (["F2[x]"], (10, 10)),
    (["F3[x]"], (6, 6)),
    (["F4[x]"], (5, 5)),
    (["F3[x]", "F2[x]"], (4, 4)),
)


def enumerate_jobs(rng, workdir):
    jobs = []
    for i, (tokens, (lo, hi)) in enumerate(ENUMERATE_SLOTS):
        tokens = tokens + [_finite_extra(rng)]
        rng.shuffle(tokens)
        bound = rng.randint(lo, hi)
        fmt = rng.choice(("machine", "text"))
        argv = ["maxideals"] + [a for t in tokens for a in ("-r", t)] + [
            "--bound", str(bound), "--format", fmt]
        jobs.append(Job(f"enumerate-{i}", argv, _check_maxideals(tokens, bound)))
    rng.shuffle(jobs)
    return jobs, {}


# ---------------------------------------------------------------------------
# verify: brute-force oracle over finite residue products

#: (moduli pool of near-equal cost, mark primes, shuffle factor order).  One
#: job per slot.  The prime scans stop at the first product that falls in
#: the ideal, so factor order changes the work: the large products keep a
#: fixed order.  Products of at most 400 elements take the pure-Python pair
#: scan, larger ones the numpy scan.
VERIFY_SLOTS = (
    ([(32, 81, 3)], True, False),                   # prime powers, 60 ideals
    ([(89, 109), (97, 101)], True, False),          # two primes, about 1e4 elements
    ([(8, 27), (4, 9, 5)], True, True),             # <= 400 elements
    ([(49, 8), (16, 25)], True, True),              # <= 400 elements
    ([(125, 64), (81, 121)], False, True),
    ([(7, 11, 13), (5, 11, 17), (7, 9, 11)], True, True),      # > 400, few ideals
)

def _check_oracle(moduli, mark):
    want = {
        "ideal_count": math.prod(mr.divisor_count(n) for n in moduli),
        "maximal_count": sum(mr.omega(n) for n in moduli),
        "prime_count": sum(mr.omega(n) for n in moduli) if mark else None,
        "matches_ultrafilter_enumeration": True,
    }

    def check(out: bytes):
        got = first_verdict(out)
        return None if got == want else f"oracle verdict {got}, expected {want}"
    return check


def verify_jobs(rng, workdir):
    jobs = []
    for slot, (pool, mark, shuffle) in enumerate(VERIFY_SLOTS):
        moduli = list(rng.choice(pool))
        if shuffle:
            rng.shuffle(moduli)
        argv = ["oracle"] + [a for n in moduli for a in ("-r", f"Z/{n}")]
        if not mark:
            argv.append("--no-primes")
        argv += ["--format", rng.choice(("machine", "text"))]
        jobs.append(Job(f"verify-{slot}", argv, _check_oracle(moduli, mark)))
    rng.shuffle(jobs)
    return jobs, {}


# ---------------------------------------------------------------------------
# batch: scenario files of small queries
#
# An element is kept as (json, factors): factors maps each atom (prime or
# monic irreducible tuple) to its exponent, None for zero.  Every expected
# verdict below is read off those factorisations.


class IntModel:
    desc = {"kind": "integers"}
    infinite = True

    def __init__(self, rng):
        self.rng = rng
        self.atoms = SMALL_PRIMES[:12]

    def atom_json(self, p):
        return p

    def element(self, big=None, force=None):
        """A nonzero integer up to 1e12 from known factors.  ``big`` is a
        (lo, hi) range for one large prime factor, which sets how long
        trial division runs; ``force`` is an atom that must divide."""
        rng = self.rng
        factors = {}
        limit = 10**12
        if big is not None:
            p = mr.next_prime(rng.randrange(*big))
            factors[p] = 1
            limit //= p
        if force is not None:
            factors[force] = factors.get(force, 0) + rng.randint(1, 2)
            limit //= force ** factors[force]
        for p in self.atoms:
            if rng.random() < 0.35:
                e = rng.randint(1, 3)
                if p**e <= limit:
                    factors[p] = factors.get(p, 0) + e
                    limit //= p**e
        value = math.prod(p**e for p, e in factors.items())
        sign = rng.choice((1, -1))
        return enc_int(sign * value), factors

    def zero(self):
        return 0, None


class LocModel:
    """Z localized at a prime set S; factors are those of the numerator at S."""
    infinite = False

    def __init__(self, rng):
        self.rng = rng
        self.atoms = sorted(rng.sample(SMALL_PRIMES[:6], 3))
        self.desc = {"kind": "localized_integers", "primes": self.atoms}

    def atom_json(self, p):
        return p

    def element(self, force=None):
        rng = self.rng
        factors = {p: rng.randint(0, 3) for p in self.atoms}
        if force is not None:
            factors[force] += 1
        # S is drawn from the primes below 17, so these cofactors avoid it
        num = math.prod(p**e for p, e in factors.items()) * rng.choice((1, 17, 19, 23))
        den = rng.choice((1, 29, 31, 37, 41))
        frac = Fraction(num, den)
        text = str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
        return text, {p: e for p, e in factors.items() if e}

    def zero(self):
        return 0, None


class PolyModel:
    """F_p[x], p prime; elements are a unit times known irreducibles."""
    infinite = True

    def __init__(self, rng, p):
        self.rng = rng
        self.p = p
        self.desc = {"kind": "poly_fq", "q": p}
        irr = mr.monic_irreducibles(p, 6 if p == 2 else 4)
        self.atoms = [f for f in irr if len(f) <= 4]          # degree <= 3
        self.large = [f for f in irr if len(f) - 1 >= (5 if p == 2 else 4)]

    def atom_json(self, g):
        return {"poly": list(g)}

    def element(self, big=None, force=None):
        """A nonzero polynomial of degree <= 10.  ``big`` asks for one large
        irreducible factor, so trial division runs up to half its degree."""
        rng = self.rng
        factors = {}
        if big is not None:
            factors[rng.choice(self.large)] = 1
        if force is not None:
            factors[force] = rng.randint(1, 2)
        while rng.random() < 0.6:
            g = rng.choice(self.atoms)
            if sum((len(f) - 1) * e for f, e in factors.items()) + len(g) - 1 > 10:
                break
            factors[g] = factors.get(g, 0) + 1
        f = (rng.randrange(1, self.p),)
        for g, e in factors.items():
            for _ in range(e):
                f = mr.pmul(self.p, f, g)
        return {"poly": list(f)}, factors

    def product_json(self, atoms):
        f = (1,)
        for g in atoms:
            f = mr.pmul(self.p, f, g)
        return {"poly": list(f)}

    def zero(self):
        return {"poly": []}, None


class ResModel:
    """Z/n for check-plus and check-plusplus queries."""
    infinite = False

    def __init__(self, rng):
        self.n = rng.choice([n for n in range(60, 200) if len(mr.factorize(n)) >= 2])
        self.desc = {"kind": "residue", "n": self.n}


def _val(factors, atom):
    return math.inf if factors is None else factors.get(atom, 0)


class ScenarioPlan:
    """Accumulates one scenario's queries and its factorisation inputs."""

    def __init__(self, rng, models, product):
        self.rng = rng
        self.models = models                  # ring models, scenario ring order
        self.product = product                # indices of product components
        self.queries = []
        self.fact_inputs = []                 # (ring index, element) per factored input
        self.repeats = 0

    @property
    def comps(self):
        return [self.models[i] for i in self.product]

    def add(self, query, expect=None):
        if expect is None:
            self.queries.append(query)
        else:
            self.queries.append({"query": "assert", "of": query, "expect": expect})

    def vector(self, pinned=None):
        """A product element's entry jsons; ``pinned`` maps a coordinate to
        the (json, factors) entry it must hold."""
        pinned = pinned or {}
        out = []
        for i, m in enumerate(self.comps):
            if i in pinned:
                out.append(pinned[i][0])
            elif self.rng.random() < 0.1:
                out.append(m.zero()[0])
            else:
                out.append(m.element()[0])
        return out

    def principal(self):
        """(coordinate, atom, ultrafilter json) at a random principal atom."""
        coord = self.rng.randrange(len(self.product))
        atom = self.rng.choice(self.comps[coord].atoms)
        return coord, atom, {"coordinate": coord,
                             "principal": self.comps[coord].atom_json(atom)}

    def frechet(self):
        coords = [i for i, m in enumerate(self.comps) if m.infinite]
        coord = self.rng.choice(coords)
        return coord, {"coordinate": coord, "cofinite_frechet": True}

    def factored(self, ring_index, big):
        """A factorisation input; exactly one in four repeats an earlier one."""
        same_ring = [j for r, j in self.fact_inputs if r == ring_index]
        if same_ring and len(self.fact_inputs) % 4 == 3:
            self.repeats += 1
            elem = self.rng.choice(same_ring)
        else:
            elem = self.models[ring_index].element(big=big)
        self.fact_inputs.append((ring_index, elem))
        return elem

    # -- query families --------------------------------------------------

    def ideal_member(self):
        rng = self.rng
        coord, atom, u = self.principal()
        m = self.comps[coord]
        entry = m.element(force=atom) if rng.random() < 0.5 else m.element()
        if rng.random() < 0.1:
            entry = m.zero()
        elem = self.vector({coord: entry})
        kind = rng.random()
        if kind < 0.6:
            ideal = {"kind": "ultrafilter_ideal", "ultrafilter": u}
            expect = _val(entry[1], atom) >= 1
        elif kind < 0.8:
            ideal = {"kind": "kernel_ideal", "coordinate": coord}
            expect = entry[1] is None
        else:
            atoms = [rng.choice(c.atoms) for c in self.comps]
            atoms[coord] = atom
            ideal = {"kind": "pointwise_max_ideal", "coordinate": coord,
                     "ideals": [c.atom_json(a) for c, a in zip(self.comps, atoms)]}
            expect = _val(entry[1], atom) >= 1
        self.add({"query": "ideal-member", "ideal": ideal, "element": elem}, expect)

    def valuation_compare(self):
        coord, atom, u = self.principal()
        m = self.comps[coord]
        a = m.element(force=atom if self.rng.random() < 0.6 else None)
        b = m.element(force=atom if self.rng.random() < 0.6 else None)
        va, vb = _val(a[1], atom), _val(b[1], atom)
        self.add({"query": "valuation-compare", "ultrafilter": u,
                  "a": self.vector({coord: a}), "b": self.vector({coord: b})},
                 "GE" if va >= vb else "LT")

    def valuation_compare_frechet(self):
        coord, u = self.frechet()
        ring_index = self.product[coord]
        big = (10**9, 10**9 + 10**8) if isinstance(self.comps[coord], IntModel) else True
        a = self.factored(ring_index, big)
        b = self.factored(ring_index, big)
        self.add({"query": "valuation-compare", "ultrafilter": u,
                  "a": self.vector({coord: a}), "b": self.vector({coord: b})})

    def _value_vector(self, positive):
        rng = self.rng
        low = 1 if positive else 0
        defaults = [rng.choice([INF, rng.randint(low, 4)]) for _ in self.comps]
        exceptions = {}
        for _ in range(rng.randint(0, 3)):
            coord, atom, _ = self.principal()
            exceptions[(coord, atom)] = rng.choice([INF, rng.randint(low, 5)])
        vec = {"defaults": defaults,
               "exceptions": [{"coord": c, "ideal": self.comps[c].atom_json(a), "value": v}
                              for (c, a), v in exceptions.items()]}
        return vec, (lambda c, a: exceptions.get((c, a), defaults[c]))

    def ug_member(self):
        coord, atom, u = self.principal()
        m = self.comps[coord]
        roll = self.rng.random()
        entry = m.zero() if roll < 0.15 else m.element(force=atom if roll < 0.6 else None)
        g, value_at = self._value_vector(positive=True)
        threshold = value_at(coord, atom)
        v = _val(entry[1], atom)
        expect = v == math.inf or (v >= 1 and threshold != INF)
        self.add({"query": "ug-member", "ultrafilter": u, "g": g,
                  "x": self.vector({coord: entry})}, expect)

    def ll(self):
        coord, atom, u = self.principal()
        g, g_at = self._value_vector(positive=False)
        h, h_at = self._value_vector(positive=False)
        gv, hv = g_at(coord, atom), h_at(coord, atom)
        # n*g < h for every n >= 1, read from the definition
        if gv == 0:
            expect = hv == INF or hv > 0
        else:
            expect = gv != INF and hv == INF
        self.add({"query": "ll", "ultrafilter": u, "g": g, "h": h}, expect)

    def check_plus(self, ring_index, big):
        m = self.models[ring_index]
        r = self.factored(ring_index, big)
        a = self.factored(ring_index, big)
        if isinstance(m, PolyModel):
            expect = m.product_json(g for g in a[1] if g not in r[1])
        else:
            expect = enc_int(math.prod(p for p in a[1] if p not in r[1]))
        self.add({"query": "check-plus", "ring": ring_index, "r": r[0], "a": a[0]}, expect)

    def check_plus_residue(self, ring_index):
        n = self.models[ring_index].n
        primes = mr.factorize(n)
        r = self.rng.randrange(n)
        a = self.rng.randrange(1, n)
        expect = math.prod(p for p in primes if a % p == 0 and r % p != 0) % n
        self.add({"query": "check-plus", "ring": ring_index, "r": r, "a": a}, expect)

    def is_maximal(self):
        if self.rng.random() < 0.7:
            u, expect = self.principal()[2], True
        else:
            u, expect = self.frechet()[1], False
        self.add({"query": "is-maximal", "ultrafilter": u}, expect)

    def minimal_prime(self):
        u = self.principal()[2] if self.rng.random() < 0.6 else self.frechet()[1]
        self.add({"query": "minimal-prime", "ultrafilter": u})

    def skolem(self):
        elems = [self.vector() for _ in range(self.rng.randint(2, 3))]
        self.add({"query": "skolem", "elements": elems})

    def misc(self, maxideal_bound):
        rng = self.rng
        self.add({"query": "maxideals", "bound": maxideal_bound})
        # the doubling sample brackets h between N*g and (N+1)*g: branch W
        self.add({"query": "interpolate", "branch": "W",
                  "doubling": rng.randint(16, 48), "n_max": rng.randint(8, 20)})


#: query family -> count per file; the mix is fixed so every seed does
#: about the same work
INT_FILE = (("ideal_member", 45), ("valuation_compare", 45), ("ug_member", 30),
            ("ll", 30), ("check_plus", 40), ("valuation_compare_frechet", 16),
            ("skolem", 12), ("is_maximal", 15), ("minimal_prime", 12))
POLY_FILE = (("ideal_member", 45), ("valuation_compare", 45), ("ug_member", 30),
             ("ll", 25), ("check_plus", 24), ("valuation_compare_frechet", 8),
             ("skolem", 10), ("is_maximal", 15), ("minimal_prime", 10))
MIX_FILE = (("ideal_member", 60), ("valuation_compare", 45), ("ug_member", 30),
            ("ll", 30), ("check_plus", 20), ("check_plus_residue", 30),
            ("skolem", 12), ("is_maximal", 15), ("minimal_prime", 12))


def _int_file(rng):
    models = [IntModel(rng), IntModel(rng)]
    b = ScenarioPlan(rng, models, [0, 1])
    # the k-th check-plus takes band k % 3 for its large prime factor
    bands = [(10**4, 10**6), (10**8, 11 * 10**7), (10**10, 105 * 10**8)]
    k = 0
    for family in _plan(rng, INT_FILE):
        if family == "check_plus":
            b.check_plus(rng.randrange(2), bands[k % 3])
            k += 1
        else:
            getattr(b, family)()
    b.add({"query": "check-plusplus", "ring": 0})
    b.misc(rng.randint(100, 300))
    return b


def _poly_file(rng):
    models = [PolyModel(rng, 2), PolyModel(rng, 3)]
    rng.shuffle(models)
    b = ScenarioPlan(rng, models, [0, 1])
    for family in _plan(rng, POLY_FILE):
        if family == "check_plus":
            b.check_plus(rng.randrange(2), True)
        else:
            getattr(b, family)()
    b.add({"query": "check-plusplus", "ring": 1})
    b.misc(3)
    return b


def _mix_file(rng):
    models = [IntModel(rng), LocModel(rng), PolyModel(rng, 2), ResModel(rng)]
    b = ScenarioPlan(rng, models, [0, 1, 2])
    for family in _plan(rng, MIX_FILE):
        if family == "check_plus":
            ring_index = rng.choice((0, 2))
            b.check_plus(ring_index, (10**7, 10**8) if ring_index == 0 else True)
        elif family == "check_plus_residue":
            b.check_plus_residue(3)
        else:
            getattr(b, family)()
    b.add({"query": "check-plusplus", "ring": 3})
    b.add({"query": "check-plusplus", "ring": 1, "r": rng.randint(1, 500)})
    b.misc(5)
    return b


def _plan(rng, mix):
    plan = [family for family, count in mix for _ in range(count)]
    rng.shuffle(plan)
    return plan


BATCH_FILES = (("ints", _int_file), ("ints", _int_file), ("polys", _poly_file),
               ("polys", _poly_file), ("mixed", _mix_file), ("mixed", _mix_file))


def batch_jobs(rng, workdir):
    jobs = []
    inputs = repeats = 0
    for i, (kind, make) in enumerate(BATCH_FILES):
        b = make(rng)
        data = {"schema_version": 1, "rings": [m.desc for m in b.models],
                "product": b.product, "objects": {}, "queries": b.queries,
                "options": {"bound": 3}}
        path = os.path.join(workdir, f"batch-{i}-{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        inputs += len(b.fact_inputs)
        repeats += b.repeats
        jobs.append(Job(f"batch-{i}", ["run", path, "--format",
                                       rng.choice(("machine", "text"))],
                        _check_records(len(b.queries))))
    rng.shuffle(jobs)
    return jobs, {"factor_inputs": inputs, "factor_repeat_share": repeats / inputs}


def _check_records(n):
    def check(out: bytes):
        got = record_count(out)
        return None if got == n else f"{got} report records for {n} queries"
    return check


WORKLOADS = {"enumerate": enumerate_jobs, "verify": verify_jobs, "batch": batch_jobs}
