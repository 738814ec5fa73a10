"""Recurrence polynomial families, checked against sympy and their defining
functional equations."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod import chebyshev
from skeinmod.chebyshev import (
    MAX_N,
    chebyshev_S,
    chebyshev_T,
    format_int_poly,
    parse_int_poly,
    poly_eval,
)
from skeinmod.laurent import LaurentPoly


def test_frozen_values():
    assert chebyshev_T(0) == {0: 2}
    assert chebyshev_T(1) == {1: 1}
    assert chebyshev_T(2) == {2: 1, 0: -2}
    assert chebyshev_T(5) == {5: 1, 3: -5, 1: 5}
    assert chebyshev_S(-1) == {}
    assert chebyshev_S(0) == {0: 1}
    assert chebyshev_S(3) == {3: 1, 1: -2}


def test_domain_errors():
    with pytest.raises(ValueError):
        chebyshev_T(-1)
    with pytest.raises(ValueError):
        chebyshev_S(-2)


def test_size_cap_fires_before_the_recurrence(monkeypatch):
    def boom(*args):
        raise AssertionError("the recurrence ran above the cap")

    monkeypatch.setattr(chebyshev, "_recurrence", boom)
    for n in (MAX_N + 1, 10**9):
        for family in (chebyshev_T, chebyshev_S):
            with pytest.raises(ValueError, match="n = %d exceeds the limit %d" % (n, MAX_N)):
                family(n)
    monkeypatch.setattr(chebyshev, "_recurrence", lambda *args: "ran")
    assert chebyshev_T(MAX_N) == chebyshev_S(MAX_N) == "ran"


def _sympy_poly(expr, x):
    return {int(e): int(c) for e, c in sympy.Poly(expr, x).as_dict().items() for e in [e[0]] if c}


@pytest.mark.parametrize("n", range(0, 25))
def test_T_against_sympy(n):
    # trace normalization: our T_n(x) = 2*cheb_T(n, x/2)
    x = sympy.symbols("x")
    expected = sympy.expand(2 * sympy.chebyshevt(n, x / 2))
    assert _sympy_poly(expected, x) == chebyshev_T(n)


@pytest.mark.parametrize("n", range(0, 25))
def test_S_against_sympy(n):
    # our S_n(x) = cheb_U(n, x/2)
    x = sympy.symbols("x")
    expected = sympy.expand(sympy.chebyshevu(n, x / 2))
    assert _sympy_poly(expected, x) == chebyshev_S(n)


@given(st.integers(1, 40))
def test_recurrence(n):
    for fam in (chebyshev_T, chebyshev_S):
        nxt = {e + 1: v for e, v in fam(n).items()}
        for e, v in fam(n - 1).items():
            nxt[e] = nxt.get(e, 0) - v
            if not nxt[e]:
                del nxt[e]
        assert nxt == fam(n + 1)


@given(st.integers(0, 30))
@settings(max_examples=40)
def test_T_turns_sums_into_power_sums(m):
    """T_m(t + t^-1) = t^m + t^-m, as Laurent polynomials."""
    t = LaurentPoly.A(1) + LaurentPoly.A(-1)
    value = poly_eval(chebyshev_T(m), t, LaurentPoly.one())
    expected = LaurentPoly.A(m) + LaurentPoly.A(-m) if m else LaurentPoly.from_int(2)
    assert value == expected


@given(st.integers(0, 30))
@settings(max_examples=40)
def test_S_telescopes(m):
    """(t - t^-1) * S_m(t + t^-1) = t^(m+1) - t^-(m+1)."""
    t = LaurentPoly.A(1) + LaurentPoly.A(-1)
    value = poly_eval(chebyshev_S(m), t, LaurentPoly.one())
    lhs = (LaurentPoly.A(1) - LaurentPoly.A(-1)) * value
    assert lhs == LaurentPoly.A(m + 1) - LaurentPoly.A(-(m + 1))


def test_format_anchor():
    assert format_int_poly(chebyshev_T(2)) == "x^2 - 2"
    assert format_int_poly(chebyshev_S(3)) == "x^3 - 2*x"
    assert format_int_poly({}) == "0"


def test_parse_rejects_junk():
    for bad in ("x +", "+x", "x + -1", "2**x", "x x", "A", "x^-1", "x^-1 - x^-1", "0*x^-1"):
        with pytest.raises(ValueError):
            parse_int_poly(bad)


@given(st.integers(0, 20))
def test_format_parse_round_trip(n):
    for fam in (chebyshev_T, chebyshev_S):
        p = fam(n)
        assert parse_int_poly(format_int_poly(p)) == p
