"""Gaussian rationals: GaussRat(re, im) is the order-4 CycNum with
coordinates (re, im), and all its arithmetic is CycNum's. Evaluation of
Laurent polynomials at A = i is laurent_eval(p, 4)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skeinmod.cyclotomic import CycNum, laurent_eval, root_of_unity
from skeinmod.gaussian import GaussRat
from skeinmod.laurent import LaurentPoly

from conftest import laurent_polys, small_fractions


def gauss_rats():
    return st.builds(GaussRat, small_fractions(), small_fractions())


def test_anchors():
    i = GaussRat.i()
    assert i == root_of_unity(4)
    assert i * i == -1
    assert i ** 4 == 1
    x = GaussRat(Fraction(1, 2), -1)
    assert (x.order, x.coords) == (4, (Fraction(1, 2), Fraction(-1)))
    assert str(x) == "-z4 + 1/2"
    assert GaussRat(3, 4) * GaussRat(3, -4) == 25


@given(gauss_rats(), gauss_rats(), gauss_rats())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(gauss_rats())
def test_inverse(x):
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1
        # (re + im i)(re - im i) = re^2 + im^2
        re, im = x.coords
        assert x * GaussRat(re, -im) == re * re + im * im


@given(gauss_rats(), gauss_rats())
def test_results_are_cycnum_values(x, y):
    for r in (x + y, x - y, -x, x * y, 2 * x, x ** 2):
        assert type(r) is CycNum
        assert r.order == 4
    with pytest.raises(TypeError):
        hash(x)


@given(laurent_polys(), laurent_polys())
def test_laurent_at_i_is_a_homomorphism(p, q):
    assert laurent_eval(p * q, 4) == laurent_eval(p, 4) * laurent_eval(q, 4)
    assert laurent_eval(p + q, 4) == laurent_eval(p, 4) + laurent_eval(q, 4)


def test_laurent_at_i_anchor():
    # A^2 + A^-2 evaluates to -2, the loop value at a 4th root of unity
    p = LaurentPoly.A(2) + LaurentPoly.A(-2)
    assert laurent_eval(p, 4) == -2
    assert laurent_eval(LaurentPoly.A(1), 4) == GaussRat.i()
