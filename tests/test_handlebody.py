"""Genus-two handlebody curve polynomials and the lens space quotient
dimension counts."""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod.chebyshev import chebyshev_S, chebyshev_T, poly_eval
from skeinmod.gaussian import GaussRat
from skeinmod import chebyshev, handlebody
from skeinmod.handlebody import (
    FAMILY_SELECTOR,
    MAX_DEGREE,
    MAX_P,
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
from skeinmod.linalg import bareiss_rank

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


def _in_y(int_poly, coeff, k=0, n=0):
    # coeff * x^k * int_poly(y) * z^n
    return Poly3({(k, e, n): coeff * v for e, v in int_poly.items()})


def _stated_core(family, p, parity):
    # families 1-4 as the paper lists them; the upper sign is the even variant
    i, one = GaussRat.i(), GaussRat.one()
    s = 1 if parity == 0 else -1
    if family == 1:
        # 2 -+ i^p T_p(y)
        core = Poly3({(0, 0, 0): 2 * one}) - _in_y(chebyshev_T(p), s * i**p)
    elif family == 2:
        # y +- i^p T_(p-1)(y)
        core = Poly3({(0, 1, 0): one}) + _in_y(chebyshev_T(p - 1), s * i**p)
    elif family == 3:
        # x -+ i^p (z S_(p-1)(y) - x S_(p-2)(y))
        c = s * i**p
        core = Poly3({(1, 0, 0): one}) - _in_y(chebyshev_S(p - 1), c, n=1) + _in_y(chebyshev_S(p - 2), c, k=1)
    else:
        # i z - i x y +- i^(p-1) (z S_(p-2)(y) - x S_(p-3)(y))
        c = s * i ** (p - 1)
        core = Poly3({(0, 0, 1): i, (1, 1, 0): -i})
        core = core + _in_y(chebyshev_S(p - 2), c, n=1) - _in_y(chebyshev_S(p - 3), c, k=1)
    return core or None


@pytest.mark.parametrize("p", range(2, 17))
def test_relation_cores_match_the_stated_families(p):
    for family in (1, 2, 3, 4):
        for parity in (0, 1):
            assert relation_core(family, p, parity) == _stated_core(family, p, parity), (family, parity)


def test_a_quotient_call_builds_each_family_once(monkeypatch):
    # families 1-4 need T_p, T_(p-1), S_(p-1), S_(p-2), S_(p-2), S_(p-3):
    # one closed form per family gives both parity variants
    calls = []
    for name in ("chebyshev_T", "chebyshev_S"):
        fn = getattr(handlebody, name)
        monkeypatch.setattr(handlebody, name, lambda n, fn=fn: calls.append(n) or fn(n))
    for call, args in (
        (truncated_quotient_dimension, (6, 10, (0, 0))),
        (truncated_quotient_dimension, (5, 8)),
        (verify_Jprime_containment, (6,)),
    ):
        calls.clear()
        call(*args)
        assert len(calls) <= 6, (call.__name__, args, calls)


def test_a_quotient_call_lists_and_grades_the_monomials_once(monkeypatch):
    # the columns come from the same pass that lists the relation multiples,
    # and that pass grades each monomial as it lists it
    listed, graded = [], []
    multipliers, grading_of = handlebody._multipliers, handlebody.monomial_grading

    def other_listing(*args):
        raise AssertionError("monomials listed outside _multipliers")

    monkeypatch.setattr(handlebody, "_multipliers", lambda *a: listed.append(multipliers(*a)) or listed[-1])
    monkeypatch.setattr(handlebody, "monomials_leq", other_listing)
    monkeypatch.setattr(handlebody, "monomial_grading", lambda m: graded.append(m) or grading_of(m))
    for call, args, (p, degree, grading) in (
        (truncated_quotient_dimension, (6, 10, (0, 0)), (6, 10, (0, 0))),
        (truncated_quotient_dimension, (5, 8), (5, 8, None)),
        (nested_truncation_dimension, (4, 4, 8, (1, 0)), (4, 8, (1, 0))),
    ):
        listed.clear()
        graded.clear()
        call(*args)
        assert len(listed) == 1, (call.__name__, args)
        B, columns, runs, fits = listed[0]
        width = handlebody._core_table(p, grading)[3]
        keys = [key for run in runs for key in run]
        assert len(keys) == len(set(keys)) == len(fits), (call.__name__, args)
        # every column once: the monomials of degree <= bound in the class
        expected = [m for m in monomials_leq(degree) if grading is None or grading_of(m) == grading]
        assert sorted(handlebody._unkey(key, B) for key in columns if key < B**3) == sorted(expected)
        assert len(columns) == width * len(expected), (call.__name__, args)
        # core homogeneity checks grade core monomials; nothing else is graded one at a time
        variants = [core for family in range(1, 9) for core in handlebody._variants(family, p) if core]
        assert set(graded) <= {m for core in variants for m in core.terms}, (call.__name__, args)


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


def test_multiples_columns_are_the_graded_monomials():
    for grading in ((0, 0), (1, 0)):
        cols, _width, _rows = handlebody._relation_rows(4, 4, grading)
        assert cols == [m for m in monomials_leq(4) if monomial_grading(m) == grading]
    assert (0, 0, 0) in handlebody._relation_rows(4, 4, (0, 0))[0]
    assert handlebody._relation_rows(4, 4, None)[0] == monomials_leq(4)
    # odd p: the realified columns come in (real, imaginary) pairs
    cols, width, _rows = handlebody._relation_rows(5, 4, None)
    assert (cols, width) == (monomials_leq(4), 2)


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
        assert scaled.is_rational
        lhs = lhs + int(scaled.as_fraction()) * poly_eval({deg: 1}, t, LaurentPoly.one())
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


# sha256 of the integer relation rows below, recorded when Q(i) had its own
# Fraction-based type; the order-4 CycNum path must give the same rows
RELATION_ROWS_SHA256 = "86d76300e7f10c28524b76cc9534afbd9f003efc437559e20c97f112812eb49c"


def test_relation_rows_are_pinned():
    h = hashlib.sha256()
    for p in range(2, 10):
        for degree in range(13):
            for grading in GRADINGS if p % 2 == 0 else (None,):
                cols, width, rows = handlebody._relation_rows(p, degree, grading)
                key = (p, degree, grading, cols, width, [sorted(r.items()) for r in rows])
                h.update(repr(key).encode())
    assert h.hexdigest() == RELATION_ROWS_SHA256


# sha256 of the quotient dimensions below, recorded when the rank step
# still stored every relation row and peeled one-term rows by re-passes
# that copied the rest; the worklist peel must give the same dimensions
TRUNCATED_DIMENSIONS_SHA256 = "c5dfb7e52f76cc419b3d9084d9f04658f98a1fe4cfaa2cff3d5c53f1517447c7"
NESTED_DIMENSIONS_SHA256 = "2f329bab5149414b5b9d61af99a8f052df7cbb3fbc5d1a7caa2068de735ab2e4"


def test_truncated_dimensions_are_pinned():
    h = hashlib.sha256()
    for p in range(2, 10):
        for degree in range(21):
            for grading in GRADINGS if p % 2 == 0 else (None,):
                dim = truncated_quotient_dimension(p, degree, grading)
                h.update(repr((p, degree, grading, dim)).encode())
    assert h.hexdigest() == TRUNCATED_DIMENSIONS_SHA256


def test_nested_dimensions_are_pinned():
    h = hashlib.sha256()
    for p in range(2, 8):
        for window in range(0, 9, 2):
            for relation in range(window, 11, 2):
                for grading in (None,) + (GRADINGS if p % 2 == 0 else ()):
                    dim = nested_truncation_dimension(p, window, relation, grading)
                    h.update(repr((p, window, relation, grading, dim)).encode())
    assert h.hexdigest() == NESTED_DIMENSIONS_SHA256


_NONZERO = st.integers(-4, 4).filter(bool)
_COLUMNS = st.integers(0, 9)


@st.composite
def peelable_rows(draw):
    """Sparse zero-free integer rows {column: int} in a drawn order, with the
    shapes the peel has to get right."""
    rows = []
    # a singleton chain: killing one column makes the next row a singleton
    chain = draw(st.lists(_COLUMNS, unique=True, max_size=5))
    rows += [{c: draw(_NONZERO)} for c in chain[:1]]
    rows += [{a: draw(_NONZERO), b: draw(_NONZERO)} for a, b in zip(chain, chain[1:])]
    # duplicate singletons
    for c in draw(st.lists(_COLUMNS, max_size=3)):
        rows += [{c: draw(_NONZERO)}, {c: draw(_NONZERO)}]
    # a row that empties out: each of its columns also comes as a singleton
    emptied = draw(st.lists(_COLUMNS, unique=True, max_size=4))
    if len(emptied) > 1:
        rows += [{c: draw(_NONZERO)} for c in emptied]
        rows.append({c: draw(_NONZERO) for c in emptied})
    # zero-free multi-term rows
    for _ in range(draw(st.integers(0, 6))):
        support = draw(st.lists(_COLUMNS, unique=True, min_size=2, max_size=5))
        rows.append({c: draw(_NONZERO) for c in support})
    return draw(st.permutations(rows))


@given(peelable_rows())
@settings(max_examples=300)
def test_peeled_rank_is_the_rank(rows):
    expected = bareiss_rank(rows)
    assert handlebody._rank_of_rows(rows) == expected
    assert handlebody._rank_of_rows(row for row in rows) == expected


def test_peeled_rank_anchor():
    # the chain arrives before its singleton x0 and falls column by column,
    # the row after it empties out, and the two rows on x4, x5 are dependent
    rows = [{1: 1, 2: -1}, {0: 1, 1: 1}, {2: 1, 3: -1}, {0: 3}, {0: 2, 1: 5}, {4: 1, 5: 2}, {4: 2, 5: 4}]
    assert handlebody._rank_of_rows(rows) == bareiss_rank(rows) == 5


@st.composite
def quotient_cases(draw):
    p = draw(st.integers(2, 12))
    grading = draw(st.sampled_from(GRADINGS)) if p % 2 == 0 else None
    degree = draw(st.integers(0, 28))
    return p, degree, grading, draw(st.integers(0, degree))


def _projected(rows, cut):
    return [proj for row in rows if (proj := {c: v for c, v in row.items() if c >= cut})]


@given(quotient_cases())
@settings(max_examples=25, deadline=None)
def test_quotient_dimension_is_the_rank_of_every_row(case):
    # beyond the pins (the nested ones stop at relation degree 10): the two
    # sweeps against bareiss_rank on the full rows and on their projections
    p, degree, grading, window = case
    cols, width, rows = handlebody._relation_rows(p, degree, grading)
    rank = bareiss_rank(rows)
    assert truncated_quotient_dimension(p, degree, grading) == len(cols) - rank // width
    inside = sum(1 for key in cols if sum(key) <= window)
    expected = inside - (rank - bareiss_rank(_projected(rows, width * inside))) // width
    assert nested_truncation_dimension(p, window, degree, grading) == expected


@pytest.mark.parametrize("p, degree, grading", [(6, 24, (0, 0)), (5, 16, None)])
def test_the_peel_gets_each_kill_once_and_no_row_the_kills_span(monkeypatch, p, degree, grading):
    cols, width, rows = handlebody._relation_rows(p, degree, grading)
    kills = {c for row in rows if len(row) == 1 for c in row}
    seen = []
    rank_of_rows = handlebody._rank_of_rows

    def spy(rows, killed=()):
        rows, killed = list(rows), list(killed)
        seen.append((rows, killed))
        return rank_of_rows(rows, killed)

    monkeypatch.setattr(handlebody, "_rank_of_rows", spy)
    window = degree // 2
    cut = width * sum(1 for key in cols if sum(key) <= window)
    truncated_quotient_dimension(p, degree, grading)
    nested_truncation_dimension(p, window, degree, grading)
    (truncated, nested, projected) = seen
    # the nested call's first rank reads the same kills and rows as the truncated one
    assert nested == truncated
    arrived, killed = truncated
    assert not [row for row in arrived if kills.issuperset(row)]
    arrivals = killed + [c for row in arrived if len(row) == 1 for c in row]
    assert len(arrivals) == len(set(arrivals)) == len(kills)
    # its second: each kill past the window once, and the projections of those same rows
    assert sorted(projected[1]) == sorted(c for c in kills if c >= cut)
    assert projected[0] == _projected(arrived, cut)


def test_a_relation_term_outside_the_columns_is_named(monkeypatch):
    # one dropped column that a one-term row hits, one that only multi-term rows hit
    p, degree, grading = 4, 6, (0, 0)
    cols, _width, rows = handlebody._relation_rows(p, degree, grading)
    kills = {c for row in rows if len(row) == 1 for c in row}
    multi_only = next(c for row in rows for c in row if c not in kills)
    multipliers = handlebody._multipliers
    for dropped in (cols[min(kills)], cols[multi_only]):

        def without(*args, dropped=dropped):
            B, columns, runs, fits = multipliers(*args)
            k, l, n = dropped
            del columns[(k * B + l) * B + n]
            return B, columns, runs, fits

        monkeypatch.setattr(handlebody, "_multipliers", without)
        message = re.escape(f"relation monomial {dropped} outside the column set")
        with pytest.raises(ValueError, match=message):
            truncated_quotient_dimension(p, degree, grading)
        with pytest.raises(ValueError, match=message):
            nested_truncation_dimension(p, degree // 2, degree, grading)
        with pytest.raises(ValueError, match=message):
            handlebody._relation_rows(p, degree, grading)


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
        raise AssertionError("monomials were listed above the degree cap")

    monkeypatch.setattr(handlebody, "_multipliers", boom)
    for huge in (MAX_DEGREE + 1, 10**9):
        with pytest.raises(ValueError, match="exceeds the limit"):
            truncated_quotient_dimension(4, huge, (0, 0))
        with pytest.raises(ValueError, match="exceeds the limit"):
            truncated_quotient_dimension(5, huge)
        with pytest.raises(ValueError, match="exceeds the limit"):
            nested_truncation_dimension(4, 2, huge)
        with pytest.raises(ValueError, match="exceeds the limit"):
            relation_generators(4, huge)


def test_p_cap_fires_before_any_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a recurrence ran above the p cap")

    monkeypatch.setattr(chebyshev, "_recurrence", boom)
    monkeypatch.setattr(Poly3, "monomial_shift", boom)
    for huge in (MAX_P + 1, 10**9):
        message = "p = %d exceeds the limit %d" % (huge, MAX_P)
        for fn in (gamma, gamma_prime, gamma_at_i_closed, gamma_prime_at_i_closed):
            with pytest.raises(ValueError, match=message):
                fn(huge)
        for family in (1, 3, 5):
            with pytest.raises(ValueError, match=message):
                relation_core(family, huge, 1)
        with pytest.raises(ValueError, match=message):
            truncated_quotient_dimension(huge, 4)
    monkeypatch.setattr(handlebody, "relation_core", boom)
    for huge in (MAX_P + 2, 10**9):
        with pytest.raises(ValueError, match="p = %d exceeds the limit %d" % (huge, MAX_P)):
            verify_Jprime_containment(huge)


@pytest.mark.parametrize("int_first", [False, True], ids=["fresh_cache", "after_p_4"])
def test_non_int_p_is_a_type_error_before_the_cache(int_first):
    # 4.0 == 4 and hash(4.0) == hash(4): a float p that reached _core_table
    # failed deep inside on a fresh cache and hit p = 4's entry after a p = 4
    # call; the type check fires first in either order
    handlebody._core_table.cache_clear()
    if int_first:
        truncated_quotient_dimension(4, 4)
    calls = [
        lambda: truncated_quotient_dimension(4.0, 4),
        lambda: verify_Jprime_containment(4.0),
        lambda: relation_core(1, 4.0, 0),
        lambda: relation_core(5, True, 0),
        lambda: gamma(3.0),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="p must be an int"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_Jprime_containment(4.5),
        lambda: v_restricted_cores(4.5),
        lambda: gamma(0.5),
        lambda: gamma_prime(0.5),
        lambda: gamma_at_i_closed(0.5),
        lambda: gamma_prime_at_i_closed(0.5),
        lambda: relation_core(1, True, 0),
        lambda: crosscheck_relation_cores(0.5),
        lambda: relation_generators(True, 2),
        lambda: truncated_quotient_dimension(True, 4),
        lambda: truncated_quotient_dimension(4.5, 4, (0, 0)),
        lambda: nested_truncation_dimension(True, 2, 4),
    ],
    ids=[
        "verify_Jprime_containment",
        "v_restricted_cores",
        "gamma",
        "gamma_prime",
        "gamma_at_i_closed",
        "gamma_prime_at_i_closed",
        "relation_core",
        "crosscheck_relation_cores",
        "relation_generators",
        "truncated_quotient_dimension",
        "truncated_quotient_dimension_graded",
        "nested_truncation_dimension",
    ],
)
def test_non_int_p_is_a_type_error_before_the_range(call):
    # each of these p is also out of range (below 1 or 2, or odd where even
    # p is needed); the type is checked first
    with pytest.raises(TypeError, match="p must be an int"):
        call()


def test_p_cap_admits_the_cap(monkeypatch):
    monkeypatch.setattr(handlebody, "chebyshev_T", lambda n: {0: 1})
    assert relation_core(1, MAX_P, 0) is not None


def test_quotient_argument_errors():
    with pytest.raises(ValueError, match="needs p >= 2"):
        truncated_quotient_dimension(1, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        truncated_quotient_dimension(2, -1)
    with pytest.raises(ValueError, match="requires even p"):
        truncated_quotient_dimension(3, 4, (0, 0))
    with pytest.raises(ValueError, match="dominate"):
        nested_truncation_dimension(2, 6, 4)
    # a grading outside Z/2 x Z/2 names the four classes; a list is one of them
    message = re.escape("grading must be (0, 0), (0, 1), (1, 0), (1, 1) or None")
    for grading in ((2, 0), (-1, 0), (0, 5), (0, 0, 0), "ab", 5, [0]):
        with pytest.raises(ValueError, match=message):
            truncated_quotient_dimension(4, 6, grading)
        with pytest.raises(ValueError, match=message):
            nested_truncation_dimension(4, 4, 6, grading)
    assert truncated_quotient_dimension(4, 6, [1, 0]) == truncated_quotient_dimension(4, 6, (1, 0))
    assert nested_truncation_dimension(4, 4, 6, [1, 0]) == nested_truncation_dimension(4, 4, 6, (1, 0))
