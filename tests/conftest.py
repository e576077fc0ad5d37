import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from prodideals.rings import (
    IntegerRing,
    LocalizedIntegersRing,
    PolynomialRing,
    ResidueRing,
)


@pytest.fixture
def ZZ():
    return IntegerRing()


@pytest.fixture
def R12():
    return ResidueRing(12)


@pytest.fixture
def L25():
    return LocalizedIntegersRing((2, 5))


@pytest.fixture
def F2X():
    return PolynomialRing(2)


def rng_for(name: str) -> random.Random:
    return random.Random(f"prodideals:{name}")


def random_element(ring, rng, small=False):
    hi = 60 if small else 10**6
    if isinstance(ring, IntegerRing):
        return ring.element(rng.randint(-hi, hi))
    if isinstance(ring, ResidueRing):
        return ring.element(rng.randrange(ring.modulus))
    if isinstance(ring, LocalizedIntegersRing):
        num = rng.randint(-9999, 9999)
        den = rng.choice([1, 1, 1, 3, 7, 9, 11, 13, 21])
        while any(den % p == 0 for p in ring.primes):
            den += 2
        return ring.element(Fraction(num, den))
    if isinstance(ring, PolynomialRing):
        degree = rng.randint(0, 5)
        coeffs = [rng.randrange(ring.q) for _ in range(degree + 1)]
        return ring.element(tuple(coeffs))
    raise TypeError(ring)


def random_nonzero(ring, rng, small=False):
    while True:
        e = random_element(ring, rng, small)
        if not e.is_zero:
            return e


def exhaustive_prime_closure(moduli, member) -> tuple:
    """Scan all pairs (a, b) with a*b in the ideal given by the membership
    predicate; returns (pairs_checked, violations) where a violation is a
    pair with product inside but neither factor inside.

    Used to verify primality claims of descriptor-backed ideals on finite
    rings, independently of how the descriptor decides membership.
    """
    import numpy as np

    moduli = tuple(int(n) for n in moduli)
    size = math.prod(moduli)
    codes = np.arange(size, dtype=np.int64)
    digits, rest = [], codes
    for n in moduli:
        digits.append(rest % n)
        rest = rest // n
    member_mask = np.zeros(size, dtype=bool)
    for code in range(size):
        elem = tuple(int(d[code]) for d in digits)
        member_mask[code] = member(elem)
    violations = []
    pairs = 0
    non_members = codes[~member_mask]
    for a_code in non_members:
        a_digits = [int(d[a_code]) for d in digits]
        prod_code = np.zeros(len(non_members), dtype=np.int64)
        stride = 1
        for i, n in enumerate(moduli):
            prod_code += ((a_digits[i] * digits[i][non_members]) % n) * stride
            stride *= n
        bad = member_mask[prod_code]
        pairs += len(non_members)
        if bad.any():
            b_code = int(non_members[np.argmax(bad)])
            violations.append((tuple(a_digits),
                               tuple(int(d[b_code]) for d in digits)))
    # pairs with a member factor can never violate primality
    pairs += size * size - len(non_members) * len(non_members)
    return pairs, violations


# runs the CLI in a child and reads its stdout in chunks; a child forked from
# pytest would inherit pytest's resident high-water mark, this small one's not
SPAWNER = """
import hashlib, os, sys
r, w = os.pipe()
pid = os.fork()
if pid == 0:
    os.dup2(w, 1)
    os.execv(sys.executable, [sys.executable, "-c",
             "import sys; from prodideals.cli import main; sys.exit(main(sys.argv[1:]))"]
             + sys.argv[1:])
os.close(w)
digest = hashlib.sha256()
while chunk := os.read(r, 1 << 16):
    digest.update(chunk)
_, status, usage = os.wait4(pid, 0)
print(digest.hexdigest(), os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def spawn_cli(argv) -> tuple:
    """(SHA-256 of stdout, exit code, the child's own peak RSS in KiB) of one
    CLI process run with ``argv``."""
    import prodideals
    src = str(pathlib.Path(prodideals.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", SPAWNER] + argv,
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    sha, code, maxrss_kb = out.split()
    return sha, int(code), int(maxrss_kb)
