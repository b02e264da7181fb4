"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python values (``fractions.Fraction`` for the rationals,
``int`` reduced to ``0..p-1`` for a prime field); the field object supplies
the arithmetic.  What does not depend on the scalar form (the zero test,
the printer, division) is written once, in the base class ``_Field``.
All operations are pure and the values immutable, so everything here is
safe to share between threads.

The rational operations are the hot path of every computation over Q, and
the ``Fraction`` operators spend most of their time in dispatch (type
checks, operator fallbacks, ``Fraction.__new__``).  ``RationalField``
therefore reads the two slots of a ``Fraction`` directly and builds each
result with ``_fraction``, normalized exactly as the ``Fraction`` operators
do (lowest terms, positive denominator), so values, ``==``, ``hash`` and
``str`` are those of the operators.  That relies on the CPython slot
layout of ``Fraction``, which is checked once at import: a Python that lays
it out differently gets an ``ImportError``, not wrong arithmetic.

The product kernel (``poly._sum_of_products``) and the division step of
``modules`` do not call these methods per term: they read the plain
attribute ``p`` (``None`` on ``RationalField``) and then compute on ints.
Over a prime field they use an inline ``%``: sums of products stay unreduced ints until their term
is complete and are reduced modulo p once (delayed reduction); every
coefficient they store is again an int in ``1..p-1``.  Over Q a product
sums int numerators over a common denominator (the lcm of the
denominators, never their product) and normalizes each output term once,
with one gcd and ``_fraction``; the division step builds each product with
a tail term already in lowest terms by cross-cancelling a gcd, and adds it
with ``_sum``.  Every coefficient they store is a ``Fraction`` normalized
as the operators normalize it.
"""

from __future__ import annotations

import platform
from fractions import Fraction
from math import gcd

from .errors import ParseError

if Fraction.__slots__ != ("_numerator", "_denominator"):
    raise ImportError(
        "startrans reads the _numerator/_denominator slots of "
        "fractions.Fraction, which Python "
        f"{platform.python_version()} does not have"
    )

_new = object.__new__


def _fraction(numerator, denominator):
    """The Fraction numerator/denominator, built without normalizing: the
    caller passes coprime ints with denominator > 0."""
    q = _new(Fraction)
    q._numerator = numerator
    q._denominator = denominator
    return q


def _sum(na, da, nb, db):
    """na/da + nb/db in lowest terms, by the scheme of ``Fraction``'s
    addition: only the gcd of the denominators can divide the sum."""
    g = gcd(da, db)
    if g == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _fraction(t // g2, s * (db // g2))


class _Field:
    """What the two fields share: a zero test and a printer for both scalar
    forms, and division as a product with the inverse."""

    @staticmethod
    def is_zero(a):
        return not a

    @staticmethod
    def to_str(a):
        return str(a)

    def div(self, a, b):
        return self.mul(a, self.invert(b))


class RationalField(_Field):
    """The field of rationals; scalars are normalized ``Fraction`` values.

    The operations read ``_numerator``/``_denominator`` instead of calling
    the ``Fraction`` operators (see the module docstring); their results
    equal the operators' in value, representation, ``hash`` and ``str``.
    """

    name = "rational"
    p = None  # not a prime field: the hot loops call the methods below

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return _sum(a._numerator, a._denominator, b._numerator, b._denominator)

    @staticmethod
    def sub(a, b):
        return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)

    @staticmethod
    def mul(a, b):
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _fraction(na * nb, db * da)

    @staticmethod
    def neg(a):
        return _fraction(-a._numerator, a._denominator)

    @staticmethod
    def invert(a):
        n = a._numerator
        if not n:
            raise ZeroDivisionError("inverse of zero")
        if n < 0:
            return _fraction(-a._denominator, -n)
        return _fraction(a._denominator, n)

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def from_fraction(numerator, denominator=1):
        return Fraction(numerator, denominator)

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


class PrimeField(_Field):
    """The field with ``p`` elements; scalars are ints in ``0..p-1``, and
    ``p`` is what selects the inline arithmetic (see the module docstring)."""

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
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, numerator, denominator=1):
        return self.div(numerator % self.p, denominator % self.p)

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
