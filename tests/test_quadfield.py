"""Exact quadratic-field arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcltflow.errors import MixedRingError
from lcltflow.quadfield import QuadScalar, as_fraction, as_quad

S2 = QuadScalar.sqrtD(2)
S3 = QuadScalar.sqrtD(3)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)
scalars = st.builds(lambda p, q: QuadScalar(p, q, 2), rationals, rationals)


def test_basic_ring():
    x = QuadScalar(1, 1, 2)          # 1 + sqrt2
    assert x * x == QuadScalar(3, 2, 2)
    assert (x - 1) * (x + 1) == QuadScalar(2, 2, 2)
    assert x + (-x) == 0
    assert float(x) == pytest.approx(1 + math.sqrt(2), abs=1e-15)


def test_inverse_and_division():
    x = QuadScalar(Fraction(3, 2), Fraction(-1, 5), 2)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        QuadScalar(0, 0, 2).inverse()


def test_sqrt2_is_irrational_in_the_field():
    # sqrt2 squared is exactly 2, yet sqrt2 is not rational
    assert S2 * S2 == 2
    assert not S2.is_rational()
    assert (S2 * S2).is_rational()


def test_exact_sign_close_cases():
    # 665857/470832 is a continued-fraction convergent of sqrt2: the
    # difference is ~1e-12 and float comparison alone is untrustworthy
    approx = Fraction(665857, 470832)
    d = as_quad(approx) - S2
    assert d.sign() == 1
    assert (S2 - approx).sign() == -1
    assert (S2 - S2).sign() == 0


def test_floor_exact_near_integers():
    assert (3 * S2).floor() == 4            # 4.2426...
    assert (-3 * S2).floor() == -5
    assert as_quad(7).floor() == 7
    assert (S2 * S2).floor() == 2           # exactly 2
    x = 5 * S2 - as_quad(Fraction(99, 14))  # slightly minus
    assert x.floor() == math.floor(float(x))


def test_mod_reduces_into_range():
    b = S2.mod(as_quad(1))
    assert b == S2 - 1
    assert (S2 * 10).mod(S2) == 0
    assert (-S2).mod(as_quad(1)) == 2 - S2


def test_mixed_ring_rejected_but_rationals_compatible():
    with pytest.raises(MixedRingError):
        _ = S2 + S3
    # rational scalars carry no ring commitment
    assert as_quad(2, D=3) + S2 == QuadScalar(2, 1, 2)
    assert QuadScalar(5, 0, 3) * S2 == 5 * S2


def test_square_free_validation():
    with pytest.raises(ValueError):
        QuadScalar(0, 1, 4)
    with pytest.raises(ValueError):
        QuadScalar(0, 1, 12)
    QuadScalar(1, 0, 4)  # rational: D irrelevant


def test_json_pair_round_trip():
    x = QuadScalar(Fraction(-7, 3), Fraction(2, 11), 2)
    assert x.to_pair() == [[-7, 3], [2, 11]]


def test_order_against_foreign_types_raises():
    # every comparison defers to the other operand, so an unrelated type
    # raises TypeError instead of answering False
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(S2, op)("x") is NotImplemented
    with pytest.raises(TypeError):
        S2 > "x"
    with pytest.raises(TypeError):
        S2 >= "x"
    assert S2 > 1 and S2 >= Fraction(7, 5) and not S2 > S2 and S2 >= S2


@given(scalars, scalars)
@settings(max_examples=200)
def test_order_consistent_with_floats(a, b):
    # exact order must agree with floats away from ties
    fa, fb = float(a), float(b)
    if abs(fa - fb) > 1e-6 * (1 + abs(fa) + abs(fb)):
        assert (a < b) == (fa < fb)


@given(scalars)
@settings(max_examples=200)
def test_floor_property(a):
    f = a.floor()
    assert f <= a < f + 1
    assert 0 <= float(a.frac()) < 1


@given(scalars, scalars)
@settings(max_examples=200)
def test_field_axioms_sample(a, b):
    assert a + b == b + a
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


def test_floats_are_read_as_shortest_decimals():
    # numpy 2's repr of a float64 is not a decimal, so as_quad goes
    # through float() first
    for x in (0.1, np.float64(0.1)):
        assert as_quad(x) == Fraction(1, 10)
    assert as_fraction(50.2) == Fraction(251, 5)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
