"""The value monoid of discrete valuations: non-negative integers plus infinity.

``INF`` is a singleton that compares above every integer, absorbs
multiplication by positive integers and addition, and refuses the
undefined product ``0 * INF``.  All arithmetic stays exact.
"""

from __future__ import annotations


class Infinity:
    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("prodideals.INF")

    def __lt__(self, other):
        self._check(other)
        return False

    def __le__(self, other):
        self._check(other)
        return isinstance(other, Infinity)

    def __gt__(self, other):
        self._check(other)
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        self._check(other)
        return True

    def __add__(self, other):
        self._check(other)
        return self

    __radd__ = __add__

    def __mul__(self, other):
        self._check(other)
        if other == 0:
            raise ValueError("0 * INF is undefined in the value monoid")
        return self

    __rmul__ = __mul__

    @staticmethod
    def _check(other):
        if not isinstance(other, (int, Infinity)):
            raise TypeError(f"cannot compare INF with {other!r}")


INF = Infinity()


def is_value(v) -> bool:
    return v is INF or (isinstance(v, int) and not isinstance(v, bool) and v >= 0)


def check_value(v, what="value"):
    if not is_value(v):
        raise ValueError(f"{what} must be a non-negative integer or INF, got {v!r}")
    return v


#: ints of larger magnitude are written as strings: a JSON reader may hold doubles
JSON_INT_MAX = 2**53 - 1


def encode_value(v):
    """JSON form: ints stay ints (strings beyond +-``JSON_INT_MAX``), INF
    becomes \"inf\".

    Also the JSON form of integer ring elements and generators, negative ones
    included."""
    if v is INF:
        return "inf"
    return str(v) if abs(v) > JSON_INT_MAX else v


def encode_values(values):
    """``encode_value`` of each of a chunk of ints: the chunk itself when all stay ints."""
    if max(map(abs, values), default=0) <= JSON_INT_MAX:
        return values
    return [encode_value(v) for v in values]

