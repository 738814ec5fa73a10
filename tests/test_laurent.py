"""Laurent polynomial ring and its fraction field."""

from fractions import Fraction

import pytest
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

    def test_parse_round_trip(self):
        for text in ("(A^2 - 1)/(A + 1)", "A + A^-1", "0", "3"):
            f = parse_laurent_fraction(text)
            assert parse_laurent_fraction(str(f)) == f
