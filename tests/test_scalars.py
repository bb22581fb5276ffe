import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ercd.operators import GeneralOp
from ercd.scalars import (ExactScalar, HALF, INV_SQRT2, I_UNIT, ONE, SQRT2,
                          ZERO)
from exact_oracles import is_real

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=4)
scalars = st.builds(ExactScalar, fractions, fractions, fractions, fractions)
nonzero_scalars = scalars.filter(bool)


def test_inv_sqrt2_squares_to_half():
    assert INV_SQRT2 * INV_SQRT2 == ExactScalar(Fraction(1, 2))


def test_conjugation_negates_imaginary_part():
    x = I_UNIT * INV_SQRT2  # i/sqrt2
    assert x.conjugate() == -x


def test_sqrt2_conjugate_pair_product():
    # (1 + sqrt2)(-1 + sqrt2) = 1, expanding (sqrt2)^2 - 1 by hand
    assert (ONE + SQRT2) * (SQRT2 - ONE) == ONE


def _image(x):
    """The float image (GeneralOp.floats) of the linear operator whose one
    nonzero entry is x, at (0, 0); None when x is zero."""
    zero = (ZERO,) * 4
    a, b = GeneralOp.linear(((x, ZERO, ZERO, ZERO), zero, zero, zero)).floats()
    assert b is None
    assert a is None or not a.ravel()[1:].any()
    return a if a is None else a[0, 0]


def test_to_complex_values():
    assert abs(_image(INV_SQRT2) - 0.7071067811865476) < 1e-15
    assert _image(ZERO) is None
    assert abs(_image(ONE + SQRT2) - 2.414213562373095) < 1e-15


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(scalars, scalars, scalars)
@settings(max_examples=80)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(nonzero_scalars)
@settings(max_examples=80)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ONE


@given(scalars, scalars)
@settings(max_examples=80)
def test_conjugation_is_multiplicative_involution(x, y):
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(scalars)
@settings(max_examples=50)
def test_float_image_tracks_exact_value(x):
    # round-trip sanity only; exact equality is never decided through floats
    expected = (float(x.a) + float(x.b) * math.sqrt(2)
                + 1j * (float(x.c) + float(x.d) * math.sqrt(2)))
    if not x:
        assert _image(x) is None
        return
    assert abs(_image(x) - expected) <= 4 * abs(expected) * 2.3e-16 + 1e-15


def test_rendering_is_symbolic():
    assert INV_SQRT2.render() == "1/2*sqrt2"
    assert (HALF + INV_SQRT2).render() == "1/2 + 1/2*sqrt2"
    assert (-I_UNIT).render() == "-i"
    assert ZERO.render() == "0"
    assert "0.7" not in (INV_SQRT2 * I_UNIT).render()


def test_real_predicates():
    assert is_real(ONE + SQRT2)
    assert not is_real(ONE + I_UNIT)
    # rational: no sqrt2 and no imaginary component
    assert not (ONE.b or ONE.c or ONE.d) and SQRT2.b
