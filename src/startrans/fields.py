"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python values (``fractions.Fraction`` for the rationals,
``int`` reduced to ``0..p-1`` for a prime field); the field object supplies
the arithmetic.  All operations are pure and the values immutable, so
everything here is safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


class RationalField:
    """The field of rationals with exact ``Fraction`` arithmetic."""

    name = "rational"

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def invert(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def div(self, a, b):
        return a * self.invert(b)

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def from_fraction(numerator, denominator=1):
        return Fraction(numerator, denominator)

    @staticmethod
    def to_str(a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


# Miller-Rabin with the primes up to 37 as bases is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(p):
    """Deterministic primality test; ValueError when p is too large for the
    test to be exact."""
    if p >= _MR_EXACT_BELOW:
        raise ValueError(
            f"prime fields need p < {_MR_EXACT_BELOW}, where primality is exact"
        )
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with ``p`` elements; scalars are ints in ``0..p-1``."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"p:{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.invert(b)) % self.p

    @staticmethod
    def is_zero(a):
        return a == 0

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, numerator, denominator=1):
        return self.div(numerator % self.p, denominator % self.p)

    @staticmethod
    def to_str(a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_spec(spec):
    """Build a field from a tag: ``"rational"`` or ``"p:<prime>"``."""
    if spec == "rational":
        return RationalField()
    if spec.startswith("p:"):
        try:
            return PrimeField(int(spec[2:]))
        except ValueError as exc:
            raise ParseError(f"bad prime field spec {spec!r}: {exc}") from None
    raise ParseError(f"unknown field spec {spec!r}")
