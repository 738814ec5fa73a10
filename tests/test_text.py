"""The shared text grammar: power sums, the term splitter and parentheses."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skeinmod.chebyshev import parse_int_poly
from skeinmod.handlebody import parse_poly3
from skeinmod.laurent import parse_laurent, parse_laurent_fraction
from skeinmod.rewrite import parse_module_element
from skeinmod.text import format_power_sum, parse_power_sum, split_terms, strip_parens
from skeinmod.torus import parse_fg


def power_sums(min_exp):
    return st.dictionaries(st.integers(min_exp, 12), st.integers(-50, 50).filter(bool), max_size=6)


@given(power_sums(-12))
def test_power_sum_round_trip_in_A(coeffs):
    assert parse_power_sum(format_power_sum(coeffs, "A"), "A") == coeffs


@given(power_sums(0))
def test_power_sum_round_trip_in_x(coeffs):
    assert parse_power_sum(format_power_sum(coeffs, "x"), "x") == coeffs


def test_power_sum_anchors():
    assert format_power_sum({2: 1, 0: -2}, "x") == "x^2 - 2"
    assert format_power_sum({1: -3, -2: 1}, "A") == "-3*A + A^-2"
    assert format_power_sum({}, "A") == "0"
    # a cancelled exponent stays, with coefficient 0
    assert parse_power_sum("A^-1 - A^-1 + 2", "A") == {-1: 0, 0: 2}


def test_split_terms_nested_parens_and_negative_exponents():
    text = "-A^-2*(1,-1) + ((1)/(A - A^-3))*(0,0,-1,1)*e - (A^-1 - 1)*x^2"
    assert split_terms(text) == [
        (-1, "A^-2*(1,-1)"),
        (1, "((1)/(A - A^-3))*(0,0,-1,1)*e"),
        (-1, "(A^-1 - 1)*x^2"),
    ]
    assert split_terms("A^-1-1") == [(1, "A^-1"), (-1, "1")]


def test_split_terms_empty_sum():
    assert split_terms("") == []
    assert split_terms(" 0 ") == []
    assert split_terms("-0") == [(-1, "0")]


def test_split_terms_rejects_stray_signs_and_parens():
    for bad in ("A +", "+A", "A + -1", "A +- 1", "--A", "-", "(A", "A)", ")A("):
        with pytest.raises(ValueError):
            split_terms(bad)


def test_strip_parens():
    assert strip_parens("(A + 1)") == "A + 1"
    assert strip_parens("((1)/(A + 1))") == "(1)/(A + 1)"
    assert strip_parens("(1)/(A + 1)") == "(1)/(A + 1)"
    assert strip_parens("A") == "A"


def test_int_poly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        parse_int_poly("x^-1")


@pytest.mark.parametrize(
    "parse",
    [parse_laurent, parse_laurent_fraction, parse_int_poly, parse_fg, parse_poly3, parse_module_element],
)
def test_empty_text_reads_as_zero(parse):
    for text in ("", "  ", "0"):
        assert not parse(text)
