"""Cyclotomic number field arithmetic.

Two independent oracles: sympy's minimal polynomials for the field
definitions, and numeric embedding into the complex plane for the ring
operations (exact results must land within float error of the numeric
ones; the converse direction is what the exact code is for).
"""

import cmath
import hashlib
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
    dot2,
    laurent_eval,
    rational_sqrt_cyclotomic,
    root_of_unity,
    root_of_unity_with_trace,
    totient,
    trace_roots,
)
from skeinmod.laurent import LaurentPoly

from conftest import cyc_numbers, laurent_polys


@pytest.mark.parametrize("n", [*range(1, 201), 3960, 4095, 4096])
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


@given(
    st.sampled_from([1, 4, 12, 60, 420]),
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(1, 10**6),
)
def test_rational_inverse_is_the_euclid_inverse(order, n, d):
    x = CycNum.rational(Fraction(n, d)).lift(order)
    t, c = cyclotomic._inverse_mod(order, x.num)
    want = cyclotomic._canonical(order, [x.den * v for v in t] + [0] * (len(x.num) - len(t)), c)
    got = x.inverse()
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


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


@pytest.mark.parametrize("n", [1, 2, 5, 12, 15, 30, 42])
def test_power_rows_match_sympy_remainders(n):
    x = sympy.symbols("x")
    phi_n = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    for k in range(2 * n):
        rem = sympy.Poly(x**k, x).rem(phi_n).all_coeffs()[::-1]
        want = tuple(int(c) for c in rem) + (0,) * (totient(n) - len(rem))
        assert root_of_unity(n, k).num == want


def _power_recurrence(n):
    """x^k mod Phi_n for k = 0..n-1 by x^(k+1) = x * x^k: shift up one place
    and replace x^phi by -(c_0 + ... + c_(phi-1) x^(phi-1))."""
    poly = cyclotomic_poly(n)
    phi = len(poly) - 1
    row = [1] + [0] * (phi - 1)
    for _ in range(n):
        yield tuple(row)
        top = row[-1]
        row = [0, *row[:-1]]
        row = [r - top * c for r, c in zip(row, poly)]


@pytest.mark.parametrize("n", [12, 60, 420, 840])
def test_root_of_unity_matches_the_power_recurrence(n):
    for k, want in enumerate(_power_recurrence(n)):
        z = root_of_unity(n, k)
        assert (z.order, z.num, z.den) == (n, want, 1)


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


@given(cyc_numbers(orders=(1, 4, 8, 12, 60)))
@settings(max_examples=40, deadline=None)
def test_pow_matches_repeated_multiplication(x):
    one = CycNum.one().lift(x.order)
    assert (x ** 0).order == x.order and x ** 0 == one
    for n in range(-3, 10):
        if n < 0 and x.is_zero:
            continue
        base = x if n >= 0 else x.inverse()
        want = one
        for _ in range(abs(n)):
            want = want * base
        got = x ** n
        _assert_canonical(got)
        assert got == want and got.order == want.order


@st.composite
def dot_operands(draw, orders=(1, 4, 8, 12, 60)):
    """A CycNum of a mixed order, zero one time in five, with non-unit
    denominators among its coordinates."""
    order = draw(st.sampled_from(orders))
    if draw(st.integers(0, 4)) == 0:
        return CycNum.zero().lift(order)
    return draw(cyc_numbers(orders=(order,)))


@given(dot_operands(), dot_operands(), dot_operands(), dot_operands())
@settings(max_examples=120, deadline=None)
def test_dot2_is_the_sum_of_two_products(a, b, c, d):
    got, want = dot2(a, b, c, d), a * b + c * d
    _assert_canonical(got)
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
    assert got.order == math.lcm(a.order, b.order, c.order, d.order)


def test_rational_recognition():
    x = CycNum.rational(Fraction(7, 3))
    assert x.is_rational
    assert x.as_fraction() == Fraction(7, 3)
    z = root_of_unity(8)
    assert not (z + z.inverse()).is_rational
    # zeta_6 + zeta_6^-1 = 1 is rational even though the order is 6
    w = root_of_unity(6)
    assert (w + w.inverse()).as_fraction() == 1


def test_constructors_refuse_floats():
    # 0.1 would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="exact rationals"):
        CycNum.rational(0.1)
    with pytest.raises(TypeError, match="exact rationals"):
        CycNum(4, [1, 0.5])
    # exact inputs stay accepted: the CLI's JSON reader passes Fractions
    assert CycNum.rational("1/10").as_fraction() == Fraction(1, 10)
    assert CycNum.rational(Fraction(1, 10)) == CycNum.rational("0.1")
    assert CycNum(4, ["1/2", Fraction(3)]).coords == (Fraction(1, 2), Fraction(3))


@pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 15, Fraction(1, 2), Fraction(9, 4), -1, -3, -Fraction(2, 5)])
def test_rational_sqrt(q):
    s = rational_sqrt_cyclotomic(q)
    assert s * s == CycNum.rational(Fraction(q))


def test_rational_sqrt_rejects_a_field_above_the_limit():
    # 5005 = 5*7*11*13 and 7 = 3 mod 4, so its root lives at order 4*5005
    with pytest.raises(ValueError, match="sqrt\\(5005\\) needs cyclotomic order 20020"):
        rational_sqrt_cyclotomic(5005)
    assert rational_sqrt_cyclotomic(Fraction(455, 4)).order == 1820


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


def test_trace_roots_are_the_scan_hit_and_its_inverse():
    for n in range(1, 61):
        for k in range(n):
            x = root_of_unity(n, k) + root_of_unity(n, -k)
            zeta, zeta_inv = trace_roots(x)
            assert zeta + zeta_inv == x
            assert zeta * zeta_inv == 1
            m, j = root_of_unity_with_trace(x)
            want = (root_of_unity(m, j), root_of_unity(m, -j))
            assert [z.as_dict() for z in (zeta, zeta_inv)] == [z.as_dict() for z in want]
    assert trace_roots(CycNum.rational(3)) is None
    assert trace_roots(3) is None


def test_trace_scan_stops_at_the_order_cap():
    # order 1820 lifts to 5460 and 10920 for t = 12 and 24, above the cap,
    # so no table or polynomial of those orders is built
    caches = (cyclotomic._CYCLO_CACHE, cyclotomic._TRACE_TABLES)
    before = [set(cache) for cache in caches]
    assert root_of_unity_with_trace(root_of_unity(1820, 1) + 3) is None
    for cache, keys in zip(caches, before):
        assert all(n <= MAX_ORDER for n in set(cache) - keys)
    tr = root_of_unity(4004, 7) + root_of_unity(4004, 3997)
    assert root_of_unity_with_trace(tr) == (4004, 7)


def _reference_trace_scan(x):
    """root_of_unity_with_trace as a plain scan: the orders lcm(N, t)
    ascending up to MAX_ORDER, and in each the first k <= m/2 whose
    zeta_m^k + zeta_m^-k equals x."""
    if isinstance(x, (int, Fraction)):
        x = CycNum.rational(x)
    if x.den != 1:
        return None
    for m in sorted({math.lcm(x.order, t) for t in (1, 4, 8, 12, 24)}):
        if m > MAX_ORDER:
            break
        target = x.lift(m)
        for k in range(m // 2 + 1):
            trace = root_of_unity(m, k) + root_of_unity(m, -k)
            if trace.order == m and trace.num == target.num:
                return m, k
    return None


@st.composite
def trace_candidates(draw):
    """A trace zeta_n^k + zeta_n^-k, maybe lifted to lcm(n, t), maybe
    shifted by a small rational, which usually makes it a miss."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, n - 1))
    x = root_of_unity(n, k) + root_of_unity(n, -k)
    t = draw(st.sampled_from((1, 4, 8, 12, 24)))
    x = x.lift(math.lcm(x.order, t))
    return x + draw(st.sampled_from((0, 0, 1, -1, 2, 3, Fraction(1, 2))))


@given(trace_candidates())
@settings(max_examples=150, deadline=None)
def test_trace_table_matches_the_ascending_scan(x):
    assert root_of_unity_with_trace(x) == _reference_trace_scan(x)


def test_trace_table_survives_hash_collisions(monkeypatch):
    # with every trace of an order under one hash, a lookup confirms the
    # k ascending against their folded powers and still returns the scan's hit
    monkeypatch.setattr(cyclotomic, "_TRACE_TABLES", {})
    monkeypatch.setattr(cyclotomic, "hash", lambda v: 7, raising=False)
    for m, k in [(60, 7), (60, 30), (36, 0)]:
        x = root_of_unity(m, k) + root_of_unity(m, -k)
        assert root_of_unity_with_trace(x) == _reference_trace_scan(x) == (m, k)
    assert root_of_unity_with_trace(root_of_unity(60, 7) + 5) is None


@given(laurent_polys(), st.sampled_from([(4, 1), (3, 1), (8, 3), (12, 5)]))
@settings(max_examples=60)
def test_laurent_eval_is_a_homomorphism(p, nk):
    n, k = nk
    q = LaurentPoly.A(2) - 3
    assert laurent_eval(p * q, n, k) == laurent_eval(p, n, k) * laurent_eval(q, n, k)


def _sympy_remainder(terms, m):
    """The coordinates of sum c X^e mod Phi_m, for (e, c) in terms, by sympy."""
    X = sympy.symbols("X")
    poly = sympy.Poly(sum((sympy.Rational(c) * X**e for e, c in terms), sympy.Integer(0)), X, domain="QQ")
    rem = poly.rem(sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain="QQ")).all_coeffs()[::-1]
    return [Fraction(int(c.p), int(c.q)) for c in rem] + [Fraction(0)] * (totient(m) - len(rem))


# (n, step): 420 -> 840 and 12 -> 24 bring no new prime, so x(X^step) is
# already reduced; the others bring one, and x(X^step) reaches past
# phi(n * step), so it folds
@pytest.mark.parametrize("n, step", [(420, 2), (12, 2), (5, 12), (7, 12), (3, 20), (60, 7)])
def test_lift_matches_sympy_remainders(n, step):
    rng = random.Random(f"cyclotomic/lift/{n}/{step}")
    m = n * step
    for _ in range(4):
        x = CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(totient(n))])
        want = _sympy_remainder([(j * step, c) for j, c in enumerate(x.coords)], m)
        lifted = x.lift(m)
        assert lifted.order == m
        assert list(lifted.coords) == want


@given(laurent_polys(), st.sampled_from([(4, 1), (3, 1), (8, 3), (12, 5), (12, -5), (60, 7), (7, 0)]))
@settings(max_examples=60, deadline=None)
def test_laurent_eval_matches_sympy_remainders(p, nk):
    n, k = nk
    want = _sympy_remainder([((e * k) % n, c) for e, c in p.items()], n)
    assert list(laurent_eval(p, n, k).coords) == want


def test_laurent_eval_at_i_anchor():
    # A^2 + A^-2 evaluates to -2, the loop value at a 4th root of unity
    p = LaurentPoly.A(2) + LaurentPoly.A(-2)
    assert laurent_eval(p, 4, 1) == CycNum.rational(-2)


@given(laurent_polys())
def test_laurent_eval_at_i_matches_generic_eval(p):
    # same value through the generic substitution path
    i = root_of_unity(4)
    assert laurent_eval(p, 4) == p.eval_at(i, -i, CycNum.one())


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
    tables, polys = set(cyclotomic._TRACE_TABLES), set(cyclotomic._CYCLO_CACHE)
    for huge in (MAX_ORDER + 1, 10**12):
        with pytest.raises(ValueError, match="exceeds the limit"):
            CycNum(huge, [])
        with pytest.raises(ValueError, match="exceeds the limit"):
            root_of_unity(huge, 1)
        with pytest.raises(ValueError, match="exceeds the limit"):
            laurent_eval(LaurentPoly.A(1), huge)
        gen = json.dumps([[{"order": huge, "coords": [[1, 1]]}, 0], [0, 1]])
        assert cli.main(["algebra-closure", "--gen", gen]) == 1
    assert set(cyclotomic._TRACE_TABLES) == tables
    assert set(cyclotomic._CYCLO_CACHE) == polys


def test_cyclotomic_poly_is_capped():
    polys = set(cyclotomic._CYCLO_CACHE)
    for bad in (True, 6.0):
        with pytest.raises(ValueError, match="must be an integer"):
            cyclotomic_poly(bad)
    with pytest.raises(ValueError, match="exceeds the limit"):
        cyclotomic_poly(1009 * 1013)
    assert set(cyclotomic._CYCLO_CACHE) == polys
    # arithmetic that lifts past the cap still builds Phi_4620 and inverts there
    x = (root_of_unity(2310, 1) + 1) * root_of_unity(4, 1)
    assert x.order == 4620 > MAX_ORDER
    assert x * x.inverse() == 1


@pytest.mark.parametrize("k", [True, 1.5, 2.0, Fraction(1), "1", None])
def test_exponent_must_be_an_int(k):
    with pytest.raises(TypeError, match="exponent k"):
        root_of_unity(4, k)
    with pytest.raises(TypeError, match="exponent k"):
        laurent_eval(LaurentPoly.A(1), 8, k)


@pytest.mark.parametrize("q", [0.25, 0.1, 2.0])
def test_rational_sqrt_refuses_floats(q):
    with pytest.raises(TypeError, match="exact rationals"):
        rational_sqrt_cyclotomic(q)


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


# ---------------------------------------------------------------------------
# pins recorded before totient and rational_sqrt_cyclotomic shared one
# factorization, the Gauss sums became one evaluation, division by a rational
# became a product and the trace scan stopped at k <= m/2; each is the
# sha256 of the repr lines of the outputs below


def _sha256_of_lines(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


TOTIENT_SHA256 = "c5a36a45c40f43f570f10f5b10ffb53ac449d67b8d18907991ff13c8c7c5956b"
RATIONAL_SQRT_SHA256 = "dc94ab0211ca1175507317570b229f4e6f34919c6d10e97a1e930e67362819ed"
TRACE_SCAN_SHA256 = "54ffa3fd41703756869aecc3580f13f01bb8fb4b37bcfb0b1e5e5d8bc173e4cc"
RATIONAL_DIVISION_SHA256 = "87720da9bec2e76180c2a04788dd3b98c949826d92f3677fdca8a59b5240262b"


def test_totients_are_pinned():
    assert _sha256_of_lines(totient(n) for n in range(1, 5001)) == TOTIENT_SHA256


def _rational_sqrt_rows():
    for a in range(1, 31):
        for b in range(1, 31):
            if math.gcd(a, b) == 1:
                for q in (Fraction(a, b), Fraction(-a, b)):
                    try:
                        yield q, rational_sqrt_cyclotomic(q).as_dict()
                    except ValueError as err:
                        # the field is above MAX_ORDER: the message names it
                        yield q, str(err)


def test_rational_sqrts_are_pinned():
    assert _sha256_of_lines(_rational_sqrt_rows()) == RATIONAL_SQRT_SHA256


def _trace_scan_inputs():
    """Every zeta_m^k + zeta_m^-k for m <= 60 and m in 84, 120, 420, every
    a/b with |a| <= 5 and b <= 3, and zeta_m + zeta_m^-1 + s for s = 1, 2, 3
    over the same m (2676 inputs)."""
    orders = [*range(1, 61), 84, 120, 420]
    for m in orders:
        for k in range(m):
            yield root_of_unity(m, k) + root_of_unity(m, -k)
    for a in range(-5, 6):
        for b in range(1, 4):
            yield CycNum.rational(Fraction(a, b))
    for m in orders:
        x = root_of_unity(m, 1) + root_of_unity(m, -1)
        for s in (1, 2, 3):
            yield x + s


def test_trace_scan_hits_are_pinned():
    hits = [root_of_unity_with_trace(x) for x in _trace_scan_inputs()]
    assert len(hits) == 2676
    assert _sha256_of_lines(hits) == TRACE_SCAN_SHA256


# root_of_unity_with_trace over _trace_roots_groups(), hashed at the
# plain ascending scan, before the per-order trace tables
TRACE_ROOTS_SHA256 = "8ecfc63eafaf845c5e6312a11bad00e10c9de622178656764311aff677a3da30"


def _trace_roots_groups():
    """Inputs in groups that share their orders: for each n <= 120, every
    zeta_n^k + zeta_n^-k, each followed by its lifts to lcm(n, t) != n, t in
    4, 8, 12 and 24; then five seeded shifts by a small rational, usually
    misses, for each of 40 seeded n (32660 inputs)."""
    for n in range(1, 121):
        group = []
        for k in range(n):
            x = root_of_unity(n, k) + root_of_unity(n, -k)
            group.append(x)
            group += [x.lift(m) for t in (4, 8, 12, 24) if (m := math.lcm(x.order, t)) != x.order]
        yield group
    rng = random.Random("cyclotomic/trace-roots-misses")
    for n in sorted(rng.sample(range(1, 121), 40)):
        group = []
        for _ in range(5):
            k = rng.randrange(n)
            x = root_of_unity(n, k) + root_of_unity(n, -k)
            group.append(x + rng.choice((1, 2, 3, -3, Fraction(1, 2))))
        yield group


def test_trace_roots_are_pinned():
    # the cyclotomic polynomials and trace tables of the orders above 120
    # that a group scans are dropped after it, so the test holds only one
    # group's
    caches = (cyclotomic._CYCLO_CACHE, cyclotomic._TRACE_TABLES)
    kept = {n for cache in caches for n in cache}

    def drop_new_orders():
        for cache in caches:
            for n in set(cache) - kept:
                if n > 120:
                    del cache[n]

    hits = []
    try:
        for group in _trace_roots_groups():
            hits += [root_of_unity_with_trace(x) for x in group]
            drop_new_orders()
    finally:
        drop_new_orders()
    assert len(hits) == 32660
    assert _sha256_of_lines(hits) == TRACE_ROOTS_SHA256


_DIVISORS = (1, 2, Fraction(3, 7), Fraction(5, 4), -1, -2, Fraction(-3, 7), Fraction(-5, 4))


def _rational_division_rows():
    rng = random.Random("cyclotomic/rational-division")
    for order in (1, 4, 12, 60):
        for _ in range(4):
            x = CycNum(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(totient(order))])
            for q in _DIVISORS:
                yield order, q, (x / q).as_dict()


def test_division_by_a_rational_is_pinned():
    assert _sha256_of_lines(_rational_division_rows()) == RATIONAL_DIVISION_SHA256
    x = root_of_unity(12, 5) + Fraction(1, 3)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
