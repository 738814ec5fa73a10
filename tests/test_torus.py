"""Torus skein algebra in the symmetrized curve basis."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod.laurent import LaurentPoly
from skeinmod.torus import (
    FGElement,
    fg_chebyshev_basis,
    fg_multiply,
    fg_normalize,
    format_fg,
    parse_fg,
)

from conftest import laurent_polys

A = LaurentPoly.A


@st.composite
def fg_elements(draw, max_terms=3, label_bound=4):
    n = draw(st.integers(0, max_terms))
    el = FGElement(unit=draw(laurent_polys(max_terms=2, max_exp=3, max_coeff=4)))
    for _ in range(n):
        p = draw(st.integers(-label_bound, label_bound))
        q = draw(st.integers(-label_bound, label_bound))
        c = draw(laurent_polys(max_terms=2, max_exp=3, max_coeff=4))
        if (p, q) == (0, 0):
            el = el + FGElement(unit=c)
        else:
            el = el + FGElement({(p, q): c})
    return el


def test_normalize_label():
    assert fg_normalize(2, -3) == ((2, -3), None)
    assert fg_normalize(-2, 3) == ((2, -3), None)
    assert fg_normalize(0, -5) == ((0, 5), None)
    label, scalar = fg_normalize(0, 0)
    assert label == (0, 0)
    assert scalar == LaurentPoly.from_int(2)


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_normalize_label_sign_invariance(p, q):
    if (p, q) != (0, 0):
        assert fg_normalize(p, q)[0] == fg_normalize(-p, -q)[0]


def test_zero_zero_is_not_a_basis_key():
    with pytest.raises(ValueError):
        FGElement({(0, 0): 1})
    assert FGElement.basis(0, 0) == FGElement(unit=2)


@pytest.mark.parametrize("label", [(1.5, 0), (0, 0.0), (True, 1), (1, False), (0.0, 0.0)])
def test_labels_take_only_ints(label):
    # a float label would reach fg_multiply and give float exponents
    message = re.escape(f"label entries must be ints, got {label!r}")
    with pytest.raises(TypeError, match=message):
        FGElement({label: 1})
    with pytest.raises(TypeError, match=message):
        FGElement.basis(*label)
    with pytest.raises(TypeError, match=message):
        fg_normalize(*label)


def test_product_anchor():
    left = FGElement.basis(1, 0)
    right = FGElement.basis(0, 1)
    product = fg_multiply(left, right)
    expected = FGElement({(1, 1): A(1), (1, -1): A(-1)})
    assert product == expected
    assert format_fg(product) == "A*(1,1) + A^-1*(1,-1)"


def test_self_product_hits_the_unit():
    sq = fg_multiply(FGElement.basis(1, 2), FGElement.basis(1, 2))
    assert sq == FGElement({(2, 4): 1}, unit=2)


def test_opposite_labels_multiply_to_scalar_plus_double():
    prod = fg_multiply(FGElement.basis(1, 1), FGElement.basis(-1, -1))
    # labels are symmetrized so this is the same self product
    assert prod == FGElement({(2, 2): 1}, unit=2)


def test_twist_exponent_sign():
    prod = fg_multiply(FGElement.basis(2, 1), FGElement.basis(1, 1))
    assert prod == FGElement({(3, 2): A(1), (1, 0): A(-1)})
    swapped = fg_multiply(FGElement.basis(1, 1), FGElement.basis(2, 1))
    assert swapped == FGElement({(3, 2): A(-1), (1, 0): A(1)})


@given(fg_elements(), fg_elements(), fg_elements())
@settings(max_examples=60, deadline=None)
def test_associativity(x, y, z):
    assert fg_multiply(fg_multiply(x, y), z) == fg_multiply(x, fg_multiply(y, z))


@given(fg_elements(), fg_elements())
@settings(max_examples=60, deadline=None)
def test_unit_element(x, y):
    one = FGElement.one()
    assert fg_multiply(one, x) == x
    assert fg_multiply(x, one) == x
    assert fg_multiply(x, y + z_zero()) == fg_multiply(x, y)


def z_zero():
    return FGElement.zero()


@given(fg_elements(), fg_elements())
@settings(max_examples=80, deadline=None)
def test_commutator_vanishes_at_unit_specializations(x, y):
    """The twist exponents of xy and yx differ by an even amount, so the
    product is commutative exactly at A = 1 and A = -1."""
    diff = fg_multiply(x, y) - fg_multiply(y, x)
    for u in (1, -1):
        unit, terms = diff.specialize_unit(u)
        assert unit == 0
        assert terms == {}


def test_generic_noncommutativity_witness():
    x = FGElement.basis(1, 0)
    y = FGElement.basis(0, 1)
    assert fg_multiply(x, y) != fg_multiply(y, x)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_chebyshev_basis_collapses_multiples(p, q, d):
    """T_d applied to a primitive class is the d-fold class on the nose."""
    if math.gcd(p, q) != 1:
        return
    assert fg_chebyshev_basis(p, q, d) == FGElement.basis(d * p, d * q)


def test_chebyshev_basis_degree_zero():
    assert fg_chebyshev_basis(3, 5, 0) == FGElement(unit=2)


@given(fg_elements())
@settings(max_examples=100, deadline=None)
def test_format_parse_round_trip(el):
    assert parse_fg(format_fg(el)) == el


def test_parse_anchor():
    el = parse_fg("A*(1,1) + A^-1*(1,-1)")
    assert el == FGElement({(1, 1): A(1), (1, -1): A(-1)})
    assert parse_fg("0") == FGElement.zero()
    assert parse_fg("(0,0)") == FGElement(unit=2)
    assert parse_fg("2") == FGElement(unit=2)


def test_parse_rejects_junk():
    for bad in (
        "2*(1,0) +",
        "2(1,0)",
        "*(1,0)",
        "A**(1,0)",
        "()*(1,0)",
        "+2*(1,0)",
        "A + -1",
        "--A",
        "(1,0",
        "A^^2*(1,0)",
    ):
        with pytest.raises(ValueError):
            parse_fg(bad)


def test_scale_and_subtraction():
    x = FGElement.basis(1, 0)
    assert (x * 3 - x * 3).is_zero
    assert x * A(2) == FGElement({(1, 0): A(2)})
