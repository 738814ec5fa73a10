"""2x2 matrices over cyclotomic-rational entries and their subalgebras."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import cyc_numbers, laurent_polys, rational_mat2, small_fractions
from skeinmod.cyclotomic import MAX_ORDER, CycNum, root_of_unity, totient
from skeinmod.gaussian import GaussRat
from skeinmod.linalg import FieldEchelon, field_nullspace
from skeinmod.mat2 import (
    _CANONICAL_BASIS,
    _classify,
    _eigenvalues_det1,
    Mat2,
    algebra_closure,
    algebra_dim,
    commutator,
    eigenvector,
    is_irreducible,
    separating_witness,
    sl2_sqrt,
    sqrt_of_trace_plus_two,
    standardize_pair,
    trace_of_product,
    trace_triple_realize,
)

E11 = Mat2(1, 0, 0, 0)
E12 = Mat2(0, 1, 0, 0)
E21 = Mat2(0, 0, 1, 0)
E22 = Mat2(0, 0, 0, 1)


def _elementary(kind, t):
    if kind == "u":
        return Mat2(1, t, 0, 1)
    if kind == "l":
        return Mat2(1, 0, t, 1)
    return Mat2(Fraction(t), 0, 0, Fraction(1, t))


@st.composite
def sl2_rationals(draw, factors=3):
    m = Mat2.identity()
    for _ in range(draw(st.integers(1, factors))):
        kind = draw(st.sampled_from(("u", "l", "d")))
        t = draw(st.integers(1, 3)) if kind == "d" else draw(st.integers(-3, 3))
        m = m * _elementary(kind, t)
    return m


# ---------------------------------------------------------------------------
# arithmetic


def test_entry_coercion():
    m = Mat2(1, Fraction(1, 2), 0, CycNum.rational(3))
    assert m.a == 1 and m.b == Fraction(1, 2)
    with pytest.raises(TypeError):
        Mat2(1.0, 0, 0, 1)


def test_matrix_anchors():
    m = Mat2(1, 2, 3, 4)
    assert m.det() == -2
    assert m.trace() == 5
    assert m * m.inverse() == Mat2.identity()
    assert m ** 3 == m * m * m
    assert m ** -2 == (m.inverse()) ** 2
    assert str(m) == "[[1, 2], [3, 4]]"
    with pytest.raises(ZeroDivisionError):
        Mat2(1, 2, 2, 4).inverse()


@given(rational_mat2(), rational_mat2())
@settings(max_examples=60)
def test_det_and_trace_identities(m, n):
    assert (m * n).det() == m.det() * n.det()
    assert (m * n).trace() == (n * m).trace()
    assert (m + n).trace() == m.trace() + n.trace()


@given(rational_mat2(), sl2_rationals())
@settings(max_examples=40)
def test_conjugation(m, p):
    conj = p.inverse() * m * p
    assert conj.trace() == m.trace()
    assert conj.det() == m.det()


@st.composite
def mixed_mat2(draw, orders=(1, 4, 8, 12, 60)):
    """Entries of mixed orders with non-unit denominators; about one entry
    in four is zero, at its own order."""
    entries = []
    for _ in range(4):
        x = draw(cyc_numbers(orders=orders))
        entries.append(CycNum.zero().lift(x.order) if draw(st.integers(0, 3)) == 0 else x)
    return Mat2(*entries)


def _same(x, y):
    return (x.order, x.num, x.den) == (y.order, y.num, y.den)


@given(mixed_mat2(), mixed_mat2())
@settings(max_examples=60, deadline=None)
def test_product_and_det_match_the_entrywise_formula(m, n):
    prod = m * n
    want = (
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )
    assert all(_same(x, y) for x, y in zip(prod.entries, want))
    assert _same(m.det(), m.a * m.d - m.b * m.c)


_ring_elements = st.one_of(
    mixed_mat2(orders=(1, 4, 12)),
    laurent_polys(max_terms=3, max_exp=3, max_coeff=3),
    st.builds(GaussRat, small_fractions(), small_fractions()),
)


@given(_ring_elements)
@settings(max_examples=90, deadline=None)
def test_pow_matches_repeated_multiplication(m):
    # Mat2, LaurentPoly and GaussRat share one binary power; LaurentPoly
    # takes no negative exponent
    if isinstance(m, Mat2):
        one, invertible = Mat2.identity(), not m.det().is_zero
    else:
        one, invertible = type(m).one(), isinstance(m, GaussRat) and bool(m)
    assert m ** 0 == one
    for n in range(-3, 10):
        if n < 0 and not invertible:
            continue
        base = m if n >= 0 else m.inverse()
        want = one
        for _ in range(abs(n)):
            want = want * base
        assert m ** n == want


def test_order_of_cyclotomic_entries():
    z8 = root_of_unity(8, 1)
    m = Mat2(z8, 0, 0, root_of_unity(3, 1))
    assert m.order == 24
    assert Mat2.identity().order == 1


def test_scalar_predicates():
    assert Mat2.diagonal(2, 2).is_scalar()
    assert not Mat2.diagonal(2, 3).is_scalar()
    assert (-Mat2.identity()).is_central_sl2()
    assert not Mat2.diagonal(2, 2).is_central_sl2()


# ---------------------------------------------------------------------------
# subalgebra closures


def test_closure_named_tags():
    assert algebra_closure([Mat2.diagonal(1, 2)]).tag == "D"
    assert algebra_closure([Mat2.diagonal(1, 2), E12]).tag == "U"
    assert algebra_closure([Mat2.diagonal(1, 2), E21]).tag == "L"
    assert algebra_closure([Mat2(1, 1, 0, 1)]).tag == "J"
    assert algebra_closure([Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1)]).tag == "M2"


def test_closure_dims():
    assert algebra_closure([Mat2.diagonal(1, 2)]).dim == 2
    assert algebra_closure([Mat2.diagonal(1, 2), E12]).dim == 3
    assert algebra_closure([E12, E21]).dim == 4
    assert algebra_closure([Mat2.identity()]).dim == 1


def test_closure_other_tags():
    # scalars only
    assert algebra_closure([Mat2.identity()]).tag == "OTHER"
    # symmetric involution: dim 2 but neither triangular nor equal-diagonal
    swap = Mat2(0, 1, 1, 0)
    cls = algebra_closure([swap])
    assert cls.tag == "OTHER" and cls.dim == 2
    # a conjugate of the upper triangulars is still 3-dimensional
    p = Mat2(1, 0, 1, 1)
    gens = [p.inverse() * m * p for m in (Mat2.diagonal(1, 2), E12)]
    cls = algebra_closure(gens)
    assert cls.tag == "OTHER" and cls.dim == 3


def test_closure_canonical_bases():
    cls = algebra_closure([Mat2(1, 5, 0, 1)])
    assert cls.basis == [Mat2.identity(), E12]
    assert algebra_closure([Mat2.diagonal(3, 7)]).basis == [E11, E22]


def test_closure_requires_generators():
    with pytest.raises(ValueError):
        algebra_closure([])


@given(st.lists(rational_mat2(bound=2), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_closure_is_multiplicatively_closed(gens):
    cls = algebra_closure(gens)
    again = algebra_closure(cls.basis)
    assert again.dim == cls.dim
    assert again.tag == cls.tag


def _fixpoint_closure(gens):
    """Reference closure: grow the span under products until it is closed."""
    ech = FieldEchelon(4)
    ech.insert(Mat2.identity().entries)
    fresh = [g for g in gens if ech.insert(g.entries)]
    while fresh and ech.rank < 4:
        basis_now = [Mat2(*row) for row in ech.rows()]
        new_fresh = []
        for x in fresh:
            for y in basis_now:
                for prod in (x * y, y * x):
                    if ech.insert(prod.entries):
                        new_fresh.append(prod)
            if ech.rank == 4:
                break
        fresh = new_fresh
    basis = [Mat2(*row) for row in ech.rows()]
    tag = _classify(len(basis), basis)
    if tag in _CANONICAL_BASIS:
        basis = [Mat2(*v) for v in _CANONICAL_BASIS[tag]]
    return tag, basis, ech.rank


def _seeded_generators(seed, order):
    """1-4 generators whose entries mix order 1 with the given order; the
    kinds reach closures of every dimension, not only M2."""
    rng = random.Random(seed)

    def entry():
        if rng.randrange(4) == 0:
            return 0
        if order == 1 or rng.randrange(3) == 0:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return CycNum(order, [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                              for _ in range(totient(order))])

    def generic():
        return Mat2(entry(), entry(), entry(), entry())

    kind = rng.choice(("scalar", "generic", "upper", "conjugated upper", "one matrix",
                       "two matrices"))
    count = rng.randint(1, 4)
    if kind == "scalar":
        return [Mat2.identity() * entry() for _ in range(count)]
    if kind == "generic":
        return [generic() for _ in range(count)]
    if kind in ("upper", "conjugated upper"):
        gens = [Mat2(entry(), entry(), 0, entry()) for _ in range(count)]
        if kind == "upper":
            return gens
        p = Mat2(1, rng.randint(-2, 2), rng.randint(-2, 2), 1)
        if p.det().is_zero:
            p = Mat2(1, 0, 1, 1)
        return [p.inverse() * g * p for g in gens]
    # polynomials in one or two matrices: later generators repeat the span
    a, b = generic(), generic()
    seeds = [a] if kind == "one matrix" else [a, b, a * b]
    gens = [a] if kind == "one matrix" else [a, b]
    while len(gens) < count:
        gens.append(Mat2.identity() * entry() + rng.choice(seeds) * entry())
    return gens


@pytest.mark.parametrize("order", (1, 4, 8, 12))
def test_closure_equals_the_fixpoint_reference(order):
    seen = set()
    for seed in range(40):
        gens = _seeded_generators(seed, order)
        tag, basis, dim = _fixpoint_closure(gens)
        got = algebra_closure(gens)
        assert (got.tag, got.dim) == (tag, dim)
        assert algebra_dim(gens) == dim
        assert [[e.as_dict() for e in m.entries] for m in got.basis] == [
            [e.as_dict() for e in m.entries] for m in basis
        ]
        seen.add((tag, dim))
    # the seeded lists reach the closures below M2, not only M2
    assert {d for _t, d in seen} == {1, 2, 3, 4}


def test_closure_makes_at_most_one_product(monkeypatch):
    counted = []
    mul = Mat2.__mul__

    def counting_mul(self, other):
        if isinstance(other, Mat2):
            counted.append(1)
        return mul(self, other)

    cases = [[E12, E21], [Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1)], [Mat2.diagonal(1, 2), E12],
             [E11, E12, E21], [Mat2(0, 1, 1, 0)], [Mat2.identity()]]
    cases += [_seeded_generators(seed, 8) for seed in range(10)]
    monkeypatch.setattr(Mat2, "__mul__", counting_mul)
    for gens in cases:
        counted.clear()
        algebra_closure(gens)
        assert len(counted) <= 1


def _order12(*coords):
    return CycNum(12, [Fraction(c) for c in coords])


@pytest.mark.parametrize(
    "gens, dim",
    [
        # no pair of the triple is irreducible, yet it generates M2
        ([Mat2.diagonal(1, 2), Mat2(1, 1, 0, 2), Mat2(2, 0, 1, 1)], 4),
        ([Mat2(0, 0, 0, 0)], 1),
        ([E12], 2),
        ([E11, E12], 3),
        ([E12, E21], 4),
        ([Mat2.diagonal(1, 2), E12, E12, Mat2.diagonal(1, 2)], 3),
        ([Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1)], 2),
        ([Mat2.identity() * 3, Mat2(0, 1, 1, 0), Mat2(0, 1, 1, 0)], 2),
        ([Mat2(_order12(1, 0, 1, 0), _order12(0, 1, 0, 0), 0, _order12(0, 0, 0, 1)),
          Mat2(_order12(0, 2, 0, 0), 1, 0, 3)], 3),
        ([Mat2(_order12(1, 0, 1, 0), _order12(0, 1, 0, 0), 0, _order12(0, 0, 0, 1)),
          Mat2(_order12(0, 2, 0, 0), 1, 0, 3), Mat2(1, 0, _order12(0, 0, 1, 0), 1)], 4),
    ],
)
def test_algebra_dim_cases(gens, dim):
    assert algebra_dim(gens) == dim
    assert algebra_closure(gens).dim == dim
    assert _fixpoint_closure(gens)[2] == dim


def test_no_pair_of_the_m2_triple_is_irreducible():
    triple = [Mat2.diagonal(1, 2), Mat2(1, 1, 0, 2), Mat2(2, 0, 1, 1)]
    assert not any(is_irreducible(a, b) for a in triple for b in triple)


@given(rational_mat2(bound=3), rational_mat2(bound=3))
@settings(max_examples=60, deadline=None)
def test_commutator_is_ab_minus_ba(a, b):
    assert commutator(a, b) == a * b - b * a


@st.composite
def _mixed_order_mat2(draw):
    # entries drawn at their own orders, so the products lift
    return Mat2(*(draw(cyc_numbers(orders=(1, 3, 4, 5, 12))) for _ in range(4)))


@given(_mixed_order_mat2(), _mixed_order_mat2())
@settings(max_examples=80, deadline=None)
def test_trace_of_product_is_the_product_trace(x, y):
    assert trace_of_product(x, y).as_dict() == (x * y).trace().as_dict()


def test_algebra_dim_makes_no_inverse_and_no_product(monkeypatch):
    counted = []
    mul, inverse = Mat2.__mul__, CycNum.inverse

    def counting_mul(self, other):
        if isinstance(other, Mat2):
            counted.append("mul")
        return mul(self, other)

    def counting_inverse(self):
        counted.append("inverse")
        return inverse(self)

    cases = [[E12, E21], [E11, E12], [Mat2(0, 1, 1, 0)], [Mat2.identity()],
             [Mat2.diagonal(1, 2), Mat2(1, 1, 0, 2), Mat2(2, 0, 1, 1)]]
    cases += [_seeded_generators(seed, 12) for seed in range(10)]
    monkeypatch.setattr(Mat2, "__mul__", counting_mul)
    monkeypatch.setattr(CycNum, "inverse", counting_inverse)
    for gens in cases:
        algebra_dim(gens)
    assert counted == []
    for gens in cases:
        algebra_closure(gens)
    assert "mul" not in counted


# ---------------------------------------------------------------------------
# trace separation


def test_witness_for_diagonal_torus():
    u = algebra_closure([Mat2.diagonal(1, 2), E12])
    low = algebra_closure([Mat2.diagonal(1, 2), E21])
    d = algebra_closure([Mat2.diagonal(1, 2)])
    wit = separating_witness(u, low, d)
    assert wit is not None
    assert (wit.trace_fwd, wit.trace_swapped) == (CycNum.one(), CycNum.zero())


def test_witness_for_jordan_torus():
    u = algebra_closure([Mat2.diagonal(1, 2), E12])
    low = algebra_closure([Mat2.diagonal(1, 2), E21])
    j = algebra_closure([Mat2(1, 1, 0, 1)])
    wit = separating_witness(u, low, j)
    assert wit is not None
    assert (wit.trace_fwd, wit.trace_swapped) == (CycNum.zero(), CycNum.one())


def test_no_witness_inside_commutative_data():
    d = algebra_closure([Mat2.diagonal(1, 2)])
    assert separating_witness(d, d, d) is None


# ---------------------------------------------------------------------------
# square roots in SL2


def test_sqrt_of_trace_plus_two():
    s = sqrt_of_trace_plus_two(CycNum.rational(2))
    assert s * s == 4
    one = root_of_unity(6, 1) + root_of_unity(6, 5)
    s = sqrt_of_trace_plus_two(one)
    assert s * s == one + CycNum.rational(2)


def test_sl2_sqrt_anchors():
    r = sl2_sqrt(Mat2.diagonal(4, Fraction(1, 4)))
    assert r == Mat2.diagonal(2, Fraction(1, 2))
    r = sl2_sqrt(-Mat2.identity())
    assert r == Mat2.diagonal(root_of_unity(4, 1), root_of_unity(4, 3))
    assert r * r == -Mat2.identity()


def test_sl2_sqrt_rejections():
    with pytest.raises(ValueError):
        sl2_sqrt(Mat2.diagonal(2, 2))  # det 4
    with pytest.raises(ValueError):
        sl2_sqrt(Mat2(-1, -1, 0, -1))  # negated unipotent


def test_sl2_sqrt_of_finite_order_element():
    zeta = root_of_unity(6, 1)
    m = Mat2(zeta, 1, 0, root_of_unity(6, 5))
    r = sl2_sqrt(m)
    assert r * r == m
    assert r.det() == 1


def _squarefree_part(n):
    n = abs(n)
    p, out = 2, 1
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            out *= p
            n //= p
        p += 1
    return out * n


@given(sl2_rationals())
@settings(max_examples=50, deadline=None)
def test_sl2_sqrt_squares_back(m):
    if m.trace() == -2 and not m.is_central_sl2():
        with pytest.raises(ValueError):
            sl2_sqrt(m)
        return
    f = (m.trace() + CycNum.rational(2)).as_fraction()
    # sqrt(f) lives in an order-4|f| field; keep that small enough to be fast
    assume(_squarefree_part(f.numerator * f.denominator) <= 35)
    r = sl2_sqrt(m)
    assert r * r == m
    assert r.det() == 1


# ---------------------------------------------------------------------------
# irreducibility and trace realization


def test_irreducibility_anchors():
    assert not is_irreducible(Mat2(1, 1, 0, 1), Mat2(2, 3, 0, Fraction(1, 2)))
    assert is_irreducible(Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1))


@given(sl2_rationals(), sl2_rationals())
@settings(max_examples=40)
def test_irreducibility_matches_commutator_trace(a, b):
    comm = a * b * a.inverse() * b.inverse()
    assert is_irreducible(a, b) == (not comm.trace() == 2)


def test_irreducibility_of_singular_pairs():
    # E12 and E21 span M2 with I and their product; E11 and E12 fix e1
    assert is_irreducible(E12, E21)
    assert not is_irreducible(E11, E12)
    for a, b in ((E12, E21), (E11, E12), (E11, E22), (E12, Mat2(1, 0, 1, 0))):
        assert is_irreducible(a, b) == (algebra_closure([a, b]).dim == 4)


@given(rational_mat2(bound=2), rational_mat2(bound=2))
@settings(max_examples=60, deadline=None)
def test_irreducibility_is_generating_m2(a, b):
    assert is_irreducible(a, b) == (algebra_closure([a, b]).dim == 4)


def test_trace_triple_realize_anchor():
    q1, q2 = trace_triple_realize(1, 1, CycNum.zero())
    assert q1.trace() == 1 and q2.trace() == 1
    assert q1.det() == 1 and q2.det() == 1
    assert (q1 * q2).trace() == -1

    # the off-diagonal slot shifts the product trace by exactly s
    q1, q2 = trace_triple_realize(0, 1, CycNum.one())
    assert q1.trace() == 0 and q2.trace() == 1
    q1b, q2b = trace_triple_realize(0, 1, CycNum.zero())
    assert (q1 * q2).trace() == (q1b * q2b).trace() + CycNum.one()


def _adjugate_over_det(m):
    inv = m.det().inverse()
    return Mat2(m.d * inv, -m.b * inv, -m.c * inv, m.a * inv)


@given(
    st.sampled_from([3, 4, 5, 8, 12]),
    st.integers(0, 23),
    st.sampled_from([1, 3, 4, 6, 10]),
    st.integers(0, 23),
    cyc_numbers(),
)
@settings(max_examples=60, deadline=None)
def test_unit_determinant_inverse_is_the_adjugate(m1, k1, m2, k2, s):
    x = root_of_unity(m1, k1) + root_of_unity(m1, -k1)
    y = root_of_unity(m2, k2) + root_of_unity(m2, -k2)
    q1, q2 = trace_triple_realize(x, y, s)
    # entries of mixed orders: 1 beside the eigenvalues, and s's own order
    for m in (q1, q2, q1 * q2, Mat2(2, 1, 1, 1), Mat2(root_of_unity(8, 1), 0, 0, root_of_unity(8, 7))):
        assert m.det() == 1
        got = m.inverse()
        assert [e.as_dict() for e in got.entries] == [e.as_dict() for e in _adjugate_over_det(m).entries]
        assert m * got == Mat2.identity()


def test_trace_triple_realize_rejects_large_traces():
    with pytest.raises(ValueError):
        trace_triple_realize(3, 1, CycNum.zero())


# ---------------------------------------------------------------------------
# standard position


def test_standardize_scalar_is_identity():
    assert standardize_pair(-Mat2.identity()) == Mat2.identity()


def test_standardize_semisimple():
    t = Mat2(2, 1, 0, Fraction(1, 2))
    p = standardize_pair(t)
    conj = p.inverse() * t * p
    assert conj.b.is_zero and conj.c.is_zero


def test_standardize_finite_order():
    t = Mat2(0, -1, 1, 1)  # trace 1, det 1, order 6
    p = standardize_pair(t)
    conj = p.inverse() * t * p
    assert conj.b.is_zero and conj.c.is_zero
    z, zbar = root_of_unity(6, 1), root_of_unity(6, 5)
    assert (conj.a == z and conj.d == zbar) or (conj.a == zbar and conj.d == z)


def test_standardize_defective():
    t = Mat2(1, 0, 3, 1)
    p = standardize_pair(t)
    conj = p.inverse() * t * p
    assert conj.c.is_zero
    assert conj.a == conj.d


def _sqrt_field_order(q):
    # sqrt(2) lies in Q(zeta_8), sqrt(+-p) in Q(zeta_p) for an odd prime p
    # (a Gauss sum, times i when p = 3 mod 4), and i in Q(zeta_4)
    r = _squarefree_part(q.numerator * q.denominator)
    odd = [p for p in sympy.primefactors(r) if p != 2]
    i_needed = q < 0 or any(p % 4 == 3 for p in odd)
    return math.lcm(8 if r % 2 == 0 else 1, 4 if i_needed else 1, *odd)


@example(Mat2(1, 3, 0, 1) * Mat2(1, 0, -3, 1) * _elementary("d", 3))  # trace -71/3
@given(sl2_rationals())
@settings(max_examples=50, deadline=None)
def test_standardize_triangularizes(m):
    # a rational trace t outside -2..2 has eigenvalues (t +- sqrt(t^2 - 4))/2;
    # when that root needs a field above MAX_ORDER (order 20020 at t = -71/3)
    # standardize_pair refuses by name instead of computing there
    t = m.trace().as_fraction()
    order = 1 if t in (-2, -1, 0, 1, 2) else _sqrt_field_order(t * t - 4)
    if order > MAX_ORDER:
        with pytest.raises(ValueError, match=f"cyclotomic order {order}, above the limit"):
            standardize_pair(m)
        return
    p = standardize_pair(m)
    assert not p.det().is_zero
    conj = p.inverse() * m * p
    assert conj.c.is_zero


@st.composite
def _eigen_cases(draw):
    # a matrix whose first eigenvalue lies in its entries' field: t = p d p^-1
    # for a triangular d, and sometimes a scalar or a matrix with a zero row
    kind = draw(st.sampled_from(("conjugated", "scalar", "triangular")))
    lam = draw(cyc_numbers(orders=(1, 4, 12)))
    if kind == "scalar":
        return Mat2(lam, 0, 0, lam), lam
    mu = draw(cyc_numbers(orders=(1, 4, 12)))
    x = draw(cyc_numbers(orders=(1, 4, 12)))
    if kind == "triangular":
        upper = draw(st.booleans())
        return (Mat2(lam, x, 0, mu) if upper else Mat2(mu, 0, x, lam)), lam
    p = draw(rational_mat2(bound=3))
    assume(not p.det().is_zero)
    return p * Mat2(lam, x, 0, mu) * p.inverse(), lam


@given(_eigen_cases())
@settings(max_examples=80, deadline=None)
def test_eigenvector_matches_the_elimination(case):
    t, lam = case
    v = eigenvector(t, lam)
    want = field_nullspace([[t.a - lam, t.b], [t.c, t.d - lam]])[0]
    assert all(isinstance(x, CycNum) for x in v)
    # equal by value; the stored orders may differ
    assert v[0] == want[0] and v[1] == want[1]
    assert t.a * v[0] + t.b * v[1] == lam * v[0]
    assert t.c * v[0] + t.d * v[1] == lam * v[1]


def test_eigenvector_rejects_a_non_eigenvalue():
    with pytest.raises(ValueError, match="no eigenvector"):
        eigenvector(Mat2(2, 1, 0, 3), CycNum.rational(5))


# sha256 of the repr lines (t, lam1.as_dict(), lam2.as_dict()) below,
# recorded while the second eigenvalue was still lam1.inverse()
EIGENVALUES_DET1_SHA256 = "fcb1a8e16faf76028bc0858b36a38e6041d3df60c0c049fb7d3551325f256fef"
_EIGEN_TRACES = (3, Fraction(5, 2), Fraction(7, 3), Fraction(-9, 4), Fraction(11, 5), Fraction(1, 3))


def test_rational_trace_eigenvalues_are_pinned():
    h = hashlib.sha256()
    for t in _EIGEN_TRACES:
        lam1, lam2 = _eigenvalues_det1(CycNum.rational(t))
        assert lam1 * lam2 == 1 and lam1 + lam2 == t
        h.update(repr((t, lam1.as_dict(), lam2.as_dict())).encode())
        h.update(b"\n")
    assert h.hexdigest() == EIGENVALUES_DET1_SHA256


def test_rational_trace_eigenvalues_make_no_inverse(monkeypatch):
    # the second eigenvalue of an SL2 matrix is t - lam1 (lam1 + lam2 = t)
    calls = []
    inverse = CycNum.inverse

    def counted(self):
        calls.append(self.order)
        return inverse(self)

    monkeypatch.setattr(CycNum, "inverse", counted)
    lam1, lam2 = _eigenvalues_det1(CycNum.rational(3))
    assert lam1.order == 5
    assert not calls
