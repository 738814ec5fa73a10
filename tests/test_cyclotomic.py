"""Cyclotomic number field arithmetic.

Two independent oracles: sympy's minimal polynomials for the field
definitions, and numeric embedding into the complex plane for the ring
operations (exact results must land within float error of the numeric
ones; the converse direction is what the exact code is for).
"""

import cmath
import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod import cli, cyclotomic
from skeinmod.cyclotomic import (
    MAX_ORDER,
    CycNum,
    cyclotomic_poly,
    laurent_eval,
    rational_sqrt_cyclotomic,
    root_of_unity,
    root_of_unity_with_trace,
    totient,
)
from skeinmod.laurent import LaurentPoly

from conftest import cyc_numbers, laurent_polys


@pytest.mark.parametrize("n", list(range(1, 61)))
def test_cyclotomic_poly_against_sympy(n):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
    ours = cyclotomic_poly(n)
    # ours is ascending, sympy descending
    assert list(reversed(expected)) == ours


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 20, 30])
def test_totient(n):
    assert totient(n) == int(sympy.totient(n))


def _embed(x):
    """Numeric value of a CycNum under zeta_n -> exp(2*pi*i/n)."""
    z = cmath.exp(2j * math.pi / x.order)
    return sum(float(c) * z ** k for k, c in enumerate(x.coords))


@given(cyc_numbers(), cyc_numbers())
@settings(max_examples=80)
def test_arithmetic_matches_numeric_embedding(x, y):
    assert abs(_embed(x + y) - (_embed(x) + _embed(y))) < 1e-8
    assert abs(_embed(x * y) - _embed(x) * _embed(y)) < 1e-7


@given(cyc_numbers())
def test_inverse(x):
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == CycNum.one()


@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
@settings(max_examples=60)
def test_ring_axioms_across_mixed_orders(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 24])
def test_root_of_unity_has_exact_order(n):
    z = root_of_unity(n)
    power = CycNum.one()
    for k in range(1, n):
        power = power * z
        assert power != CycNum.one(), f"zeta_{n}^{k} collapsed early"
    assert power * z == CycNum.one()


def test_lift_preserves_value():
    z = root_of_unity(3)
    assert z.lift(12) == z
    assert z.lift(12).order == 12
    with pytest.raises(ValueError):
        z.lift(8)  # 8 is not a multiple of 3


def test_pow_negative():
    z = root_of_unity(5)
    assert z ** -1 == z ** 4
    assert z ** -7 == z ** 3


def test_rational_recognition():
    x = CycNum.rational(Fraction(7, 3))
    assert x.is_rational
    assert x.as_fraction() == Fraction(7, 3)
    z = root_of_unity(8)
    assert not (z + z.inverse()).is_rational
    # zeta_6 + zeta_6^-1 = 1 is rational even though the order is 6
    w = root_of_unity(6)
    assert (w + w.inverse()).as_fraction() == 1


@pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 15, Fraction(1, 2), Fraction(9, 4), -1, -3, -Fraction(2, 5)])
def test_rational_sqrt(q):
    s = rational_sqrt_cyclotomic(q)
    assert s * s == CycNum.rational(Fraction(q))


def test_rational_sqrt_known_forms():
    assert rational_sqrt_cyclotomic(2) == root_of_unity(8, 1) + root_of_unity(8, 7)
    assert rational_sqrt_cyclotomic(4) == CycNum.rational(2)


@pytest.mark.parametrize("n,k", [(1, 0), (4, 1), (5, 2), (6, 1), (8, 3), (12, 1)])
def test_trace_recognition(n, k):
    tr = root_of_unity(n, k) + root_of_unity(n, (n - k) % n)
    hit = root_of_unity_with_trace(tr)
    assert hit is not None
    m, j = hit
    assert root_of_unity(m, j) + root_of_unity(m, (m - j) % m) == tr


def test_trace_recognition_rejects_non_traces():
    assert root_of_unity_with_trace(CycNum.rational(3)) is None
    assert root_of_unity_with_trace(CycNum.rational(Fraction(1, 2))) is None


@given(laurent_polys(), st.sampled_from([(4, 1), (3, 1), (8, 3), (12, 5)]))
@settings(max_examples=60)
def test_laurent_eval_is_a_homomorphism(p, nk):
    n, k = nk
    q = LaurentPoly.A(2) - 3
    assert laurent_eval(p * q, n, k) == laurent_eval(p, n, k) * laurent_eval(q, n, k)


def test_laurent_eval_at_i_anchor():
    p = LaurentPoly.A(2) + LaurentPoly.A(-2)
    assert laurent_eval(p, 4, 1) == CycNum.rational(-2)


@given(cyc_numbers(orders=(3, 4, 8)))
def test_serialization_round_trip(x):
    rebuilt = CycNum(x.order, list(x.coords))
    assert rebuilt == x


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction-coordinate reference

ORACLE_ORDERS = (1, 3, 4, 5, 8, 12, 60, 420)


def _ref_mul(order, xs, ys):
    """Reference product: Fraction schoolbook convolution, then fold mod Phi."""
    phi = len(xs)
    cyc = cyclotomic_poly(order)
    conv = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            conv[i + j] += x * y
    for k in range(len(conv) - 1, phi - 1, -1):
        t = conv[k]
        for j in range(phi + 1):
            conv[k - phi + j] -= t * cyc[j]
    return conv[:phi]


def _ref_inverse(order, xs):
    """Reference inverse: extended Euclid over Fraction coefficients."""

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    old_r, r = trim([Fraction(c) for c in cyclotomic_poly(order)]), trim(list(xs))
    old_t, t = [], [Fraction(1)]
    while r:
        q = [Fraction(0)] * max(len(old_r) - len(r) + 1, 0)
        rem = list(old_r)
        while len(rem) >= len(r):
            factor = rem[-1] / r[-1]
            shift = len(rem) - len(r)
            q[shift] = factor
            for i, rv in enumerate(r):
                rem[shift + i] -= factor * rv
            trim(rem)
        new_t = [Fraction(0)] * max(len(old_t), len(q) + len(t) - 1)
        for i, v in enumerate(old_t):
            new_t[i] += v
        for i, qv in enumerate(q):
            for j, tv in enumerate(t):
                new_t[i + j] -= qv * tv
        old_r, r = r, rem
        old_t, t = t, trim(new_t)
    assert len(old_r) == 1
    inv = [v / old_r[0] for v in old_t]
    return inv + [Fraction(0)] * (len(xs) - len(inv))


def _assert_canonical(x):
    assert isinstance(x.num, tuple) and len(x.num) == totient(x.order)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1


@st.composite
def oracle_numbers(draw, orders=ORACLE_ORDERS):
    """Sparse or dense elements, each coordinate with its own denominator."""
    order = draw(st.sampled_from(orders))
    density = draw(st.sampled_from((0.1, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    coords = [
        Fraction(rng.randint(-50, 50), rng.randint(1, 12)) if rng.random() < density else 0
        for _ in range(totient(order))
    ]
    return CycNum(order, coords)


@given(oracle_numbers(), oracle_numbers())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_fraction_reference(x, y):
    m = math.lcm(x.order, y.order)
    xl, yl = x.lift(m), y.lift(m)
    for value in (x, y, xl, yl, -x, x + y, x - y, y - x, x * Fraction(-3, 4), x / 7):
        _assert_canonical(value)
    assert (x + y).coords == tuple(a + b for a, b in zip(xl.coords, yl.coords))
    assert (x - y).coords == tuple(a - b for a, b in zip(xl.coords, yl.coords))
    prod = x * y
    _assert_canonical(prod)
    if m <= 420:  # the Fraction reference is slow at order 840
        assert list(prod.coords) == _ref_mul(m, list(xl.coords), list(yl.coords))
    if not x.is_zero:
        inv = x.inverse()
        _assert_canonical(inv)
        assert x * inv == CycNum.one()
        if x.order <= 60:
            assert list(inv.coords) == _ref_inverse(x.order, list(x.coords))


@pytest.mark.parametrize("size", [2, 3, 4, 8, 16, 96])
@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_convolution_both_sides_of_the_switch(size, density):
    # small or sparse operands take the term-by-term loop, larger dense ones
    # the packed product; both must agree with the plain double loop
    rng = random.Random(size * 1000 + int(density * 100))
    for bits in (2, 40, 200):
        u = [rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0 for _ in range(size)]
        v = [rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0 for _ in range(size)]
        want = [0] * (2 * size - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                want[i + j] += a * b
        assert cyclotomic._convolve(u, v) == want


@pytest.mark.parametrize("size", [8, 16])
def test_packed_product_at_its_coefficient_bound(size):
    # constant vectors make the middle coefficient equal the bound the
    # packing width is chosen from, for every bit length of that bound
    for bits in range(1, 80):
        top = 2**bits - 1
        u, v = [top] * size, [-top] * size
        want = [-top * top * min(k + 1, 2 * size - 1 - k) for k in range(2 * size - 1)]
        assert cyclotomic._convolve(u, v) == want


def test_dense_order_420_inverse():
    rng = random.Random(420)
    x = CycNum(420, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(totient(420))])
    inv = x.inverse()
    _assert_canonical(inv)
    assert x * inv == CycNum.one()


def test_zero_is_canonical():
    for z in (CycNum.zero(), CycNum(12, [0, 0, 0, 0]), root_of_unity(5) - root_of_unity(5)):
        _assert_canonical(z)
        assert z.den == 1 and not any(z.num)


# ---------------------------------------------------------------------------
# the order cap fires before any table is built


def test_order_cap_rejects_before_allocating():
    rows, polys = set(cyclotomic._ROW_CACHE), set(cyclotomic._CYCLO_CACHE)
    for huge in (MAX_ORDER + 1, 10**12):
        with pytest.raises(ValueError, match="exceeds the limit"):
            CycNum(huge, [])
        with pytest.raises(ValueError, match="exceeds the limit"):
            root_of_unity(huge, 1)
        with pytest.raises(ValueError, match="exceeds the limit"):
            laurent_eval(LaurentPoly.A(1), huge)
        gen = json.dumps([[{"order": huge, "coords": [[1, 1]]}, 0], [0, 1]])
        assert cli.main(["algebra-closure", "--gen", gen]) == 1
    assert set(cyclotomic._ROW_CACHE) == rows
    assert set(cyclotomic._CYCLO_CACHE) == polys


# ---------------------------------------------------------------------------
# text form: a power sum in the primitive root, as the shared grammar writes it


@pytest.mark.parametrize(
    "x, text",
    [
        (CycNum.zero(), "0"),
        (CycNum.rational(-5), "-5"),
        (CycNum.rational(Fraction(3, 2)), "3/2"),
        (CycNum(12, [1, -1, 0, 0]), "-z12 + 1"),
        (root_of_unity(5), "z5"),
        (CycNum(8, [0, 0, Fraction(-1, 2), Fraction(3, 4)]), "3/4*z8^3 - 1/2*z8^2"),
        (CycNum(60, [2] + [0] * 14 + [-1]), "-z60^15 + 2"),
    ],
)
def test_str_anchors(x, text):
    assert str(x) == text
