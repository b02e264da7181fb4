"""The ``Fraction`` operators as the reference for ``RationalField``.

``check_pair(a, b)`` compares every rational field operation on one pair
with the ``Fraction`` operator it replaces: same value, same normalized
numerator and denominator, same ``hash`` and ``str``, and the same
``ZeroDivisionError`` on a zero divisor.  Run as a script it checks random
pairs and needs nothing beyond the package, so it also runs under Pythons
without pytest or hypothesis:

    PYTHONPATH=src python3 tests/fraction_check.py [pairs] [seed]
"""

from __future__ import annotations

import operator
import platform
import random
import sys
from fractions import Fraction
from math import gcd

from startrans.fields import RationalField

FIELD = RationalField()
BINARY = (
    ("add", operator.add),
    ("sub", operator.sub),
    ("mul", operator.mul),
    ("div", operator.truediv),
)


def _same(got, want, what):
    assert type(got) is Fraction, f"{what}: got a {type(got).__name__}"
    assert got == want, f"{what}: {got} != {want}"
    num, den = got.numerator, got.denominator
    assert den > 0 and gcd(num, den) == 1, f"{what}: {num}/{den} not normalized"
    assert (num, den) == (want.numerator, want.denominator), what
    assert hash(got) == hash(want), f"{what}: hash differs"
    assert str(got) == str(want), f"{what}: str differs"


def _raises_zero_division(fn, *args):
    try:
        fn(*args)
    except ZeroDivisionError:
        return True
    return False


def check_pair(a, b):
    """Every ``RationalField`` operation on (a, b) against the operators."""
    for name, op in BINARY:
        what = f"{name}({a!r}, {b!r})"
        if name == "div" and b == 0:
            assert _raises_zero_division(FIELD.div, a, b), what
            continue
        _same(getattr(FIELD, name)(a, b), op(a, b), what)
    _same(FIELD.neg(a), -a, f"neg({a!r})")
    if a == 0:
        assert _raises_zero_division(FIELD.invert, a), f"invert({a!r})"
    else:
        _same(FIELD.invert(a), 1 / a, f"invert({a!r})")
    assert FIELD.is_zero(a) == (a == 0), f"is_zero({a!r})"


def random_rational(rng):
    """Zero, a small integer, or a fraction with up to 256-bit parts."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-10, 10))
    bits = rng.choice((4, 64, 256))
    return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


def random_partner(rng, a):
    """A second operand: independent, a's negative, a itself, or one that
    shares a factor of a's denominator (the cancelling cases of add)."""
    kind = rng.randrange(4)
    if kind == 0:
        return -a
    if kind == 1:
        return a
    if kind == 2:
        return Fraction(rng.randint(-(2**64), 2**64), a.denominator * rng.randint(1, 6))
    return random_rational(rng)


def main(argv):
    pairs = int(argv[0]) if argv else 200_000
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = random.Random(seed)
    for _ in range(pairs):
        a = random_rational(rng)
        check_pair(a, random_partner(rng, a))
    print(f"python {platform.python_version()}: {pairs} pairs agree (seed {seed})")


if __name__ == "__main__":
    main(sys.argv[1:])
