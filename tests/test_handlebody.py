"""Genus-two handlebody curve polynomials and the lens space quotient
dimension counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod.chebyshev import chebyshev_T, poly_eval
from skeinmod.gaussian import GaussRat, laurent_at_i
from skeinmod import handlebody
from skeinmod.handlebody import (
    FAMILY_SELECTOR,
    MAX_DEGREE,
    Poly3,
    crosscheck_relation_cores,
    gamma,
    gamma_at_i_closed,
    gamma_prime,
    gamma_prime_at_i_closed,
    monomial_grading,
    monomials_leq,
    nested_truncation_dimension,
    parse_poly3,
    relation_core,
    relation_generators,
    specialize_at_i,
    truncated_quotient_dimension,
    v_restricted_cores,
    verify_Jprime_containment,
)
from skeinmod.laurent import LaurentPoly

from conftest import laurent_polys

A = LaurentPoly.A


@st.composite
def poly3s(draw, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = tuple(draw(st.integers(0, max_exp)) for _ in range(3))
        terms[key] = draw(laurent_polys(max_terms=2, max_exp=2, max_coeff=5))
    return Poly3({k: v for k, v in terms.items() if v})


def test_gamma_small_values():
    assert gamma(1) == Poly3({(0, 1, 0): LaurentPoly.one()})
    assert gamma(2) == Poly3({(0, 2, 0): A(1), (0, 0, 0): -A(1) - A(-3)})
    with pytest.raises(ValueError):
        gamma(0)
    with pytest.raises(ValueError):
        gamma_prime(0)


def test_gamma_prime_small_values():
    assert gamma_prime(1) == Poly3({(0, 0, 1): LaurentPoly.one()})
    assert gamma_prime(2) == Poly3({(0, 1, 1): A(1), (1, 0, 0): A(-1)})


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
def test_gamma_specializes_to_closed_form(p):
    assert specialize_at_i(gamma(p)) == gamma_at_i_closed(p)
    assert specialize_at_i(gamma_prime(p)) == gamma_prime_at_i_closed(p)


def test_closed_form_shape():
    # degree-p polynomial in y alone, leading coefficient i^(p-1)
    p = 5
    g = gamma_at_i_closed(p)
    assert set(k[0] for k in g.terms) == {0}
    assert set(k[2] for k in g.terms) == {0}
    assert g.terms[(0, p, 0)] == GaussRat.i() ** (p - 1)


@given(poly3s(), poly3s(), poly3s())
@settings(max_examples=50)
def test_poly3_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(poly3s())
@settings(max_examples=80)
def test_poly3_str_parse_round_trip(q):
    assert parse_poly3(str(q)) == q


def test_parse_poly3_rejects_junk():
    for bad in (
        "x + ",
        "(A)*w",
        "(A)x",
        "(A*(x",
        "(1)*x + ",
        "( )*x",
        "(A)*x +-(A)*y",
        "( + A)*x",
        "A*x",
        "(A)*1*x",
    ):
        with pytest.raises(ValueError):
            parse_poly3(bad)


def test_grading_is_multiplicative():
    a = (2, 1, 1)
    b = (0, 3, 1)
    ga = monomial_grading(a)
    gb = monomial_grading(b)
    prod = tuple(x + y for x, y in zip(a, b))
    assert monomial_grading(prod) == ((ga[0] + gb[0]) % 2, (ga[1] + gb[1]) % 2)


@pytest.mark.parametrize("p", [2, 4, 6])
def test_core_variants_are_graded(p):
    for family in range(1, 9):
        for parity in (0, 1):
            core = relation_core(family, p, parity)
            if core is not None:
                assert len(core.gradings()) == 1, (family, parity)


def test_family_crosscheck(p=4):
    """Families 1-3 regenerate from the curve recurrences; family 4's stated
    signs are the transposed pairing, which the regeneration flags."""
    report = crosscheck_relation_cores(p)
    for family in (1, 2, 3):
        assert report[family] == {"even": True, "odd": True}
    assert report[4] == {"even": False, "odd": False}


@pytest.mark.parametrize("p", [2, 4, 6])
def test_jprime_containment(p):
    ok, report = verify_Jprime_containment(p)
    assert ok
    for family, entry in report.items():
        assert entry["contained"], family
        assert entry["offending"] == []


def test_jprime_rejects_odd_p():
    with pytest.raises(ValueError):
        verify_Jprime_containment(3)


def test_v_restricted_cores_trivially_graded_multiples():
    # each selected variant times a suitable monomial lands in grading (0,0)
    for family, core in v_restricted_cores(4):
        (g,) = core.gradings()
        comp = {(0, 0): (0, 0, 0), (0, 1): (0, 1, 0), (1, 0): (1, 0, 0), (1, 1): (0, 0, 1)}[g]
        shifted = core.monomial_shift(*comp)
        assert shifted.gradings() == {(0, 0)}


def test_monomials_leq_counts():
    assert len(monomials_leq(0)) == 1
    # all triples with k+l+n <= 3: C(3+3,3) = 20
    assert len(monomials_leq(3)) == 20
    evens = monomials_leq(4, grading=(0, 0))
    assert (0, 0, 0) in evens
    assert all(monomial_grading(k) == (0, 0) for k in evens)


def test_truncated_dimension_anchors():
    dims = [truncated_quotient_dimension(2, d, (0, 0)) for d in (4, 8, 12)]
    assert dims[0] >= 3 and dims[1] >= 5 and dims[2] >= 7
    assert dims[0] < dims[1] < dims[2]


def test_nested_truncation_is_monotone():
    inner = nested_truncation_dimension(2, 4, 8, (0, 0))
    outer = truncated_quotient_dimension(2, 4, (0, 0))
    # quotienting by relations seen in a larger window can only cut further
    assert inner <= outer


def test_closed_form_agrees_with_chebyshev_evaluation():
    # sanity tie between the closed form and a raw Chebyshev value: at
    # y = t + 1/t the degree-p part must reproduce t^p + t^-p
    p = 6
    g = gamma_at_i_closed(p)
    coeffs = {k[1]: v for k, v in g.terms.items()}
    t = LaurentPoly.A(1) + LaurentPoly.A(-1)
    lhs = LaurentPoly.zero()
    for deg, c in coeffs.items():
        # i^(p-1) with p even is +-i; strip it before comparing
        scaled = c * (GaussRat.i() ** (p - 1)).inverse()
        assert scaled.im == 0
        lhs = lhs + int(scaled.re) * poly_eval({deg: 1}, t, LaurentPoly.one())
    assert lhs == LaurentPoly.A(p) + LaurentPoly.A(-p)


# ---------------------------------------------------------------------------
# quotient dimensions pinned at the dense-elimination implementation

GRADINGS = ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("p, degree, graded", [(4, 20, (12, 1, 2, 1)), (6, 12, (13, 2, 3, 2))])
def test_ungraded_dimension_is_the_sum_of_the_graded_ones(p, degree, graded):
    # even p: every relation is homogeneous, so the quotient splits by grading
    assert tuple(truncated_quotient_dimension(p, degree, g) for g in GRADINGS) == graded
    assert truncated_quotient_dimension(p, degree) == sum(graded)


@pytest.mark.parametrize("p, degree, expected", [(3, 6, 3), (3, 8, 3), (5, 8, 7), (3, 10, 3)])
def test_odd_p_ungraded_dimension(p, degree, expected):
    # odd p mixes real and imaginary coefficients, the realified path
    assert truncated_quotient_dimension(p, degree) == expected


@pytest.mark.parametrize(
    "p, window, relation, ungraded, graded",
    [
        (2, 2, 4, 5, (2, 1, 1, 1)),
        (2, 4, 8, 6, (3, 1, 1, 1)),
        (2, 6, 8, 7, (4, 1, 1, 1)),
        (4, 4, 6, 7, (4, 1, 1, 1)),
        (4, 6, 8, 8, (5, 1, 1, 1)),
        (6, 2, 4, 6, (3, 1, 1, 1)),
        (6, 4, 8, 10, (5, 2, 1, 2)),
        (6, 6, 8, 12, (7, 2, 1, 2)),
    ],
)
def test_nested_truncation_pins(p, window, relation, ungraded, graded):
    assert nested_truncation_dimension(p, window, relation) == ungraded
    assert tuple(nested_truncation_dimension(p, window, relation, g) for g in GRADINGS) == graded


@pytest.mark.parametrize(
    "p, window, relation, expected", [(3, 2, 4, 3), (3, 4, 6, 2), (3, 4, 8, 2), (5, 4, 6, 5), (5, 6, 8, 4)]
)
def test_nested_truncation_odd_p_pins(p, window, relation, expected):
    assert nested_truncation_dimension(p, window, relation) == expected


def _reference_generators(p, degree_bound):
    # the definition, one Poly3 per monomial multiple
    out = []
    for k, l, n in monomials_leq(degree_bound):
        for family in range(1, 9):
            parity = (l + n) % 2 if FAMILY_SELECTOR[family] == "ln" else (k + n) % 2
            core = relation_core(family, p, parity)
            if core is not None and k + l + n + core.degree() <= degree_bound:
                out.append(core.monomial_shift(k, l, n))
    return out


@pytest.mark.parametrize("p, degree", [(2, 5), (3, 6), (4, 7), (6, 8)])
def test_relation_generators_match_the_definition(p, degree):
    assert relation_generators(p, degree) == _reference_generators(p, degree)


def test_degree_cap_fires_before_any_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("monomials_leq ran above the degree cap")

    monkeypatch.setattr(handlebody, "monomials_leq", boom)
    for huge in (MAX_DEGREE + 1, 10**9):
        with pytest.raises(ValueError, match="exceeds the limit"):
            truncated_quotient_dimension(4, huge, (0, 0))
        with pytest.raises(ValueError, match="exceeds the limit"):
            truncated_quotient_dimension(5, huge)
        with pytest.raises(ValueError, match="exceeds the limit"):
            nested_truncation_dimension(4, 2, huge)
        with pytest.raises(ValueError, match="exceeds the limit"):
            relation_generators(4, huge)


def test_quotient_argument_errors():
    with pytest.raises(ValueError, match="needs p >= 2"):
        truncated_quotient_dimension(1, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        truncated_quotient_dimension(2, -1)
    with pytest.raises(ValueError, match="requires even p"):
        truncated_quotient_dimension(3, 4, (0, 0))
    with pytest.raises(ValueError, match="dominate"):
        nested_truncation_dimension(2, 6, 4)
