"""Laurent polynomial ring and its fraction field."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod.laurent import (
    LaurentFraction,
    LaurentPoly,
    divexact,
    format_laurent,
    laurent_gcd,
    parse_laurent,
    parse_laurent_fraction,
    pseudo_divmod,
)

from conftest import laurent_polys

A = LaurentPoly.A


def test_constructor_drops_zeros():
    p = LaurentPoly({2: 0, 1: 3, -1: 0})
    assert p.coeff(2) == 0
    assert p.coeff(1) == 3
    assert dict(p.items()) == {1: 3}


def test_constructor_rejects_nonint():
    with pytest.raises(TypeError):
        LaurentPoly({0: Fraction(1, 2)})
    with pytest.raises(TypeError):
        LaurentPoly({1.0: 2})


@pytest.mark.parametrize("terms", [{True: 1}, {0: True}, [(False, 2)], [(1, False)]])
def test_constructor_rejects_bool_exponents_and_coefficients(terms):
    # a bool key was stored as is: LaurentPoly({True: 1}).terms was {True: 1}
    with pytest.raises(TypeError, match="exponents and coefficients must be int"):
        LaurentPoly(terms)


def test_monomial_rejects_bool_exponent():
    for bad in (True, False):
        with pytest.raises(TypeError, match="exponents and coefficients must be int"):
            A(bad)


@pytest.mark.parametrize("k", [0.5, True, 1.0, Fraction(1)])
def test_shift_refuses_non_int_exponents(k):
    # A(1).shift(0.5) printed A^1.5 and A(1).shift(True) gave A^2
    with pytest.raises(TypeError, match="shift exponent k must be an int"):
        A(1).shift(k)
    with pytest.raises(TypeError, match="shift exponent k must be an int"):
        LaurentFraction(A(1), A(0) + 1).shift(k)


def test_bool_operands_are_not_constants():
    # equality with a bool is False rather than an error; arithmetic refuses it
    assert (LaurentPoly.one() == True) is False
    assert LaurentPoly.one() != True
    for op in (lambda p: p + True, lambda p: False - p, lambda p: p * True):
        with pytest.raises(TypeError):
            op(LaurentPoly.one())


def test_basic_anchors():
    assert str(A(1) + A(-1)) == "A + A^-1"
    assert str(LaurentPoly.from_int(-2) + A(2)) == "A^2 - 2"
    assert str(LaurentPoly.zero()) == "0"
    assert (A(3) * A(-3)) == 1
    assert (A(1) + 1) * (A(1) - 1) == A(2) - 1


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        A(1) ** -1


def test_shift():
    p = A(2) + 3
    assert p.shift(-2) == LaurentPoly({0: 1, -2: 3})


def test_eval_unit():
    p = A(3) - A(2) + 5  # at A=-1: -1 - 1 + 5
    assert p.eval_unit(-1) == 3
    assert p.eval_unit(1) == 5
    with pytest.raises(ValueError):
        p.eval_unit(2)


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(laurent_polys())
def test_additive_inverse(p):
    assert (p + (-p)).is_zero


@given(laurent_polys(), st.integers(-3, 3))
def test_shift_is_monomial_multiplication(p, k):
    assert p.shift(k) == p * A(k)


def _rebuilt(p):
    # the same coefficients pushed through the checking public constructor
    return LaurentPoly(dict(p.items()))


_raw_dicts = st.dictionaries(st.integers(-6, 6), st.integers(-3, 3), max_size=6)


@given(_raw_dicts, _raw_dicts, st.integers(-8, 8))
def test_arithmetic_results_are_canonical(d1, d2, k):
    # +, *, - and A(k) build their results without the constructor's checks;
    # they must still never store a zero and must match a checked rebuild
    p, q = LaurentPoly(d1), LaurentPoly(d2)
    for r in (p + q, p - q, p * q, -p, A(k), p * A(k), p + 0, 0 + p, p * 3):
        assert all(isinstance(e, int) and isinstance(v, int) and v for e, v in r.items())
        assert r == _rebuilt(r)
        assert dict(r.items()) == dict(_rebuilt(r).items())


def test_monomial_rejects_nonint_exponent():
    for bad in (1.0, Fraction(1, 2), "1"):
        with pytest.raises(TypeError):
            A(bad)


@given(laurent_polys())
def test_format_parse_round_trip(p):
    assert parse_laurent(format_laurent(p)) == p


def test_parse_rejects_junk():
    for bad in ("A +", "1 +", "2**A", "A^^2", "1 1", "x", "+A", "A + -1", "--A", "-", "(A)"):
        with pytest.raises(ValueError):
            parse_laurent(bad)


def test_fraction_parse_rejects_junk():
    for bad in ("(1) / (A)", "1/A", "(1)/(A)/(2)", "((1))/(A)", "(1)/(0)", "(1)/(A - A)"):
        with pytest.raises(ValueError):
            parse_laurent_fraction(bad)


@given(laurent_polys(), laurent_polys())
def test_eval_unit_is_homomorphism(p, q):
    for u in (1, -1):
        assert (p * q).eval_unit(u) == p.eval_unit(u) * q.eval_unit(u)
        assert (p + q).eval_unit(u) == p.eval_unit(u) + q.eval_unit(u)


@given(laurent_polys(max_terms=4, max_exp=4), laurent_polys(max_terms=4, max_exp=4))
@settings(max_examples=60)
def test_gcd_divides_both(p, q):
    g = laurent_gcd(p, q)
    if g.is_zero:
        assert p.is_zero and q.is_zero
        return
    for h in (p, q):
        if not h.is_zero:
            assert divexact(h, g) * g == h


def test_divexact_rejects_nondivisor():
    with pytest.raises(ValueError):
        divexact(A(1) + 1, A(1) - 1)


# ---------------------------------------------------------------------------
# the integer polynomial division kernel

_coeffs = st.integers(-9, 9)
_int_lists = st.lists(_coeffs, max_size=7)
# trimmed nonzero divisors; half of them have a negative leading coefficient
_divisors = st.builds(
    lambda body, lead: body + [lead],
    st.lists(_coeffs, max_size=4),
    _coeffs.filter(bool),
)


def _poly(vec):
    return LaurentPoly(dict(enumerate(vec)))


@given(_int_lists, _divisors)
def test_pseudo_divmod_identity(a, b):
    mult, q, rem = pseudo_divmod(a, b)
    assert mult > 0
    assert len(rem) < len(b)
    assert not rem or rem[-1]
    assert _poly(a) * mult == _poly(q) * _poly(b) + _poly(rem)


@given(_int_lists, _divisors)
def test_pseudo_divmod_is_exact_on_multiples(c, b):
    for divisor in (b, [-v for v in b]):
        a = dict((_poly(c) * _poly(divisor)).items())
        dense = [a.get(e, 0) for e in range(max(a, default=-1) + 1)]
        mult, q, rem = pseudo_divmod(dense, divisor)
        assert (mult, rem) == (1, [])
        assert _poly(q) == _poly(c)


def test_pseudo_divmod_scales_only_when_inexact():
    # 2x + 1 does not divide x^2 over Z: two steps, each scaled by 2
    assert pseudo_divmod([0, 0, 1], [1, 2]) == (4, [-1, 2], [1])
    assert pseudo_divmod([0, 0, 1], [1, -2]) == (4, [-1, -2], [1])
    assert pseudo_divmod([1, 2], [0, 0, 1]) == (1, [], [1, 2])


def _shifted_sympy(p, x):
    return sympy.Poly(sum(c * x ** (e - p.min_exp) for e, c in p.items()), x)


@given(laurent_polys(max_terms=4, max_exp=4), laurent_polys(max_terms=4, max_exp=4))
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy(p, q):
    if p.is_zero or q.is_zero:
        return
    x = sympy.symbols("x")
    _, want = sympy.gcd(_shifted_sympy(p, x), _shifted_sympy(q, x)).primitive()
    coeffs = [int(c) for c in reversed(want.all_coeffs())]
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    assert laurent_gcd(p, q) == _poly(coeffs)


def test_gcd_with_a_zero_argument_is_primitive():
    assert laurent_gcd(LaurentPoly.zero(), 2 * A(1)) == 1
    assert laurent_gcd(2 * A(1) + 2, LaurentPoly.zero()) == A(1) + 1
    assert laurent_gcd(LaurentPoly.zero(), LaurentPoly.zero()).is_zero


@given(laurent_polys(), laurent_polys())
def test_divexact_undoes_multiplication(p, q):
    if not q.is_zero:
        assert divexact(p * q, q) == p


def test_divexact_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divexact(A(1), LaurentPoly.zero())


class TestLaurentFraction:
    def test_construction_and_equality(self):
        half = LaurentFraction(1, 2)
        assert half + half == LaurentFraction.one()

    def test_cancellation_is_automatic(self):
        q = LaurentFraction(A(2) - 1, A(1) - 1)
        assert q == LaurentFraction(A(1) + 1)

    def test_denominator_normalization(self):
        # denominator gets lowest exponent 0 and a positive lowest coefficient
        q = LaurentFraction(LaurentPoly.one(), A(-2) - A(-3))
        assert q.den.min_exp == 0
        assert q.den.coeff(0) > 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            LaurentFraction.one() / LaurentFraction.zero()

    @given(laurent_polys(max_terms=3, max_exp=3), laurent_polys(max_terms=3, max_exp=3))
    @settings(max_examples=50)
    def test_field_ops(self, p, q):
        fp = LaurentFraction(p)
        fq = LaurentFraction(q)
        assert fp + fq == fq + fp
        assert fp * fq == fq * fp
        if not q.is_zero:
            assert (fp / fq) * fq == fp

    @given(laurent_polys(max_terms=3, max_exp=3),
           laurent_polys(max_terms=3, max_exp=3).filter(bool), st.integers(-4, 4))
    @settings(max_examples=50, deadline=None)
    def test_shift_is_the_canonical_product_by_a_power_of_A(self, p, q, k):
        f = LaurentFraction(p, q)
        shifted, product = f.shift(k), f * A(k)
        assert (shifted.num.terms, shifted.den.terms) == (product.num.terms, product.den.terms)

    def test_parse_round_trip(self):
        for text in ("(A^2 - 1)/(A + 1)", "A + A^-1", "0", "3"):
            f = parse_laurent_fraction(text)
            assert parse_laurent_fraction(str(f)) == f
