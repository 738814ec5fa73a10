"""The shared sparse core: `accumulate` and the classes built on it.

Arithmetic results of LaurentPoly, Poly3, ModuleElement and FGElement adopt
their dicts without the constructors' checks, so each one must store no
zero coefficient and equal a rebuild through the public constructor, key
for key. The raw input dicts hold zero coefficients and, for the two label
types, keys that merge or cancel once canonicalized.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod.cyclotomic import laurent_eval
from skeinmod.gaussian import GaussRat
from skeinmod.handlebody import Poly3
from skeinmod.laurent import LaurentFraction, LaurentPoly
from skeinmod.rewrite import ModuleElement, boundary_multiply
from skeinmod.sparse import accumulate
from skeinmod.torus import FGElement, fg_multiply

from conftest import laurent_polys

A = LaurentPoly.A

_coeffs = laurent_polys(max_terms=2, max_exp=2, max_coeff=3)
_small = st.integers(-2, 2)
_poly3_dicts = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _coeffs, max_size=5)
_module_dicts = st.dictionaries(
    st.tuples(st.tuples(_small, _small, _small, _small), st.sampled_from(("e", "x1", "x2"))),
    _coeffs,
    max_size=5,
)
_laurent_dicts = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=5)
_fg_dicts = st.dictionaries(
    st.tuples(_small, _small).filter(lambda k: k != (0, 0)), _coeffs, max_size=5
)


def _assert_canonical(r, rebuilt):
    assert all(r.terms.values())
    assert r.terms == rebuilt.terms
    assert r == rebuilt


def test_accumulate_merges_and_drops():
    store = {}
    accumulate(store, "a", 0)
    assert store == {}
    accumulate(store, "a", A(1))
    accumulate(store, "a", A(2))
    assert store == {"a": A(1) + A(2)}
    accumulate(store, "a", -A(1) - A(2))
    assert store == {}


@given(_laurent_dicts, _laurent_dicts, st.integers(-3, 3))
@settings(max_examples=80)
def test_laurent_poly_results_are_canonical(d1, d2, n):
    p, q = LaurentPoly(d1), LaurentPoly(d2)
    results = (p + q, p - q, -p, p.scale(n), p * q, p ** 2, p.shift(n),
               p + n, n + p, p - n, n - p, n * p)
    for r in results:
        _assert_canonical(r, LaurentPoly(dict(r.terms)))
    # an int coerces to a constant on either side
    c = LaurentPoly.from_int(n)
    assert (p + n, n + p, p - n, n - p) == (p + c, c + p, p - c, c - p)
    assert (p == n) == (p == c) == (n == p)
    assert (p - p == 0) and (0 == p - p)


@given(_poly3_dicts, _poly3_dicts, _coeffs, st.tuples(*[st.integers(0, 2)] * 3))
@settings(max_examples=80)
def test_poly3_results_are_canonical(d1, d2, c, shift):
    p, q = Poly3(d1), Poly3(d2)
    for r in (p + q, p - q, -p, p.scale(c), c * p, p * q, p.monomial_shift(*shift)):
        _assert_canonical(r, Poly3(dict(r.terms)))


@given(_module_dicts, _module_dicts, _coeffs, st.tuples(_small, _small), st.sampled_from((1, 2)))
@settings(max_examples=80)
def test_module_element_results_are_canonical(d1, d2, c, pair, boundary):
    m, n = ModuleElement(d1), ModuleElement(d2)
    results = (m + n, m - n, -m, m.scale(c), m.scale(-2), m.scale(0),
               boundary_multiply(m, pair, boundary))
    for r in results:
        _assert_canonical(r, ModuleElement(dict(r.terms)))


@given(_fg_dicts, _fg_dicts, _coeffs, _coeffs, _coeffs)
@settings(max_examples=80)
def test_fg_element_results_are_canonical(d1, d2, u1, u2, c):
    x, y = FGElement(d1, u1), FGElement(d2, u2)
    for r in (x + y, x - y, -x, x.scale(c), 3 * x, fg_multiply(x, y), x * y):
        # the empty link () is passed as unit, not as a label
        rebuilt = FGElement({k: v for k, v in r.terms.items() if k}, r.unit)
        _assert_canonical(r, rebuilt)
        assert r.unit == rebuilt.unit


@given(laurent_polys(max_terms=3, max_exp=3, max_coeff=4).filter(bool),
       laurent_polys(max_terms=3, max_exp=3, max_coeff=4).filter(bool))
@settings(max_examples=60, deadline=None)
def test_cancelling_fraction_coefficients_drop_their_key(num, den):
    f = LaurentFraction(num, den)
    # the same fraction written over a multiplied-out denominator
    g = LaurentFraction(num * (A(1) + 2), den * (A(1) + 2))
    kept = ModuleElement.term((0, 1, 0, 0), "x1", f)
    m = ModuleElement({((1, 2, 0, 3), "e"): f, ((-1, -2, 0, -3), "e"): -g}) + kept
    assert m.terms.keys() == kept.terms.keys()
    gone = ModuleElement.term((1, 2, 0, 3), "e", f) - ModuleElement.term((1, 2, 0, 3), "e", g)
    assert gone.is_zero and not gone.terms
    assert (kept + ModuleElement.term((0, 1, 0, 0), "x1", -g)).terms == {}


def test_monomial_shift_into_a_negative_exponent_raises():
    one = LaurentPoly.one()
    y = Poly3({(0, 1, 0): one, (1, 0, 0): one})
    with pytest.raises(ValueError):
        y.monomial_shift(0, -1, 0)
    assert Poly3({(0, 1, 0): one}).monomial_shift(0, -1, 0) == Poly3({(0, 0, 0): one})


def test_map_coeffs_drops_a_term_that_vanishes_at_i():
    p = Poly3({(1, 0, 0): A(2) + 1, (0, 1, 0): A(1)})
    at_i = p.map_coeffs(lambda c: laurent_eval(c, 4))
    assert at_i.terms == {(0, 1, 0): GaussRat.i()}
    assert at_i == Poly3({(0, 1, 0): GaussRat.i()})
