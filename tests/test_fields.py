"""The rational field kernel against the ``Fraction`` operators, and the
prime-field inverse.

``RationalField`` builds its results from the numerator and denominator
slots instead of calling the operators; these tests keep the operators as
the reference (``fraction_check.check_pair``) and require equal values,
normalized parts, hashes and strings.
"""

import importlib.util
import platform
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_check import check_pair
from startrans import fields
from startrans.fields import PrimeField, RationalField

SMALL = st.integers(-12, 12)
BIG = st.integers(-(2**200), 2**200)
DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 2**200))


def rationals():
    return st.one_of(
        st.just(Fraction(0)),
        SMALL.map(Fraction),
        BIG.map(Fraction),
        st.builds(Fraction, st.one_of(SMALL, BIG), DENOMINATORS),
    )


@st.composite
def operand_pairs(draw):
    a = draw(rationals())
    shares_a_factor = st.builds(
        lambda num, k: Fraction(num, a.denominator * k),
        st.one_of(SMALL, BIG),
        st.integers(1, 6),
    )
    b = draw(st.one_of(rationals(), st.just(-a), st.just(a), shares_a_factor))
    return a, b


@settings(max_examples=400, deadline=None)
@given(operand_pairs())
def test_rational_ops_equal_the_fraction_operators(pair):
    a, b = pair
    check_pair(a, b)
    check_pair(b, a)


def test_zero_has_no_inverse():
    f = RationalField()
    with pytest.raises(ZeroDivisionError):
        f.invert(Fraction(0))
    for a in (Fraction(0), Fraction(3), Fraction(-5, 7)):
        with pytest.raises(ZeroDivisionError):
            f.div(a, Fraction(0))


def test_import_refuses_another_fraction_layout(monkeypatch):
    monkeypatch.setattr(Fraction, "__slots__", ("_num", "_den"))
    spec = importlib.util.spec_from_file_location(
        "startrans._fields_layout_check", fields.__file__
    )
    module = importlib.util.module_from_spec(spec)
    with pytest.raises(ImportError, match=platform.python_version()):
        spec.loader.exec_module(module)


@pytest.mark.parametrize("p", [2, 3, 7, 32003, 2**61 - 1])
def test_prime_field_inverse(p):
    f = PrimeField(p)
    assert f.p == p and RationalField.p is None
    for a in {1, p - 1, p // 2 or 1, 12345 % p or 1, (2**40 + 7) % p or 1}:
        inv = f.invert(a)
        assert 0 < inv < p and a * inv % p == 1
    for zero in (0, p, -3 * p):
        with pytest.raises(ZeroDivisionError):
            f.invert(zero)
