"""Integer and field linear algebra, checked against sympy; the sparse
integer echelon also against field elimination over Q and Q(i), and the
field echelon over Q(zeta_8) and Q(zeta_12) by its own laws."""

import math
import re
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod.cyclotomic import CycNum, totient
from skeinmod.gaussian import GaussRat
from skeinmod.handlebody import Poly3, _integer_forms
from skeinmod.linalg import (
    FieldEchelon,
    bareiss_rank,
    field_nullspace,
    field_rank,
    smith_normal_form,
)


def int_matrices(max_dim=5, bound=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def test_snf_anchors():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[4]]) == [4]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


@given(int_matrices())
@settings(max_examples=100)
def test_snf_against_sympy(m):
    ours = smith_normal_form(m)
    sm = sympy_snf(sympy.Matrix(m))
    theirs = [abs(int(sm[i, i])) for i in range(min(sm.shape))]
    # sympy may or may not keep trailing zero columns; compare nonzero parts
    # plus the shared length contract min(rows, cols)
    assert len(ours) == min(len(m), len(m[0]))
    nz_ours = [d for d in ours if d]
    nz_theirs = [d for d in theirs if d]
    assert nz_ours == nz_theirs


@given(int_matrices())
@settings(max_examples=100)
def test_snf_divisibility_chain(m):
    d = smith_normal_form(m)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


@given(int_matrices(max_dim=4, bound=6))
@settings(max_examples=60)
def test_first_factor_is_gcd_of_entries(m):
    d = smith_normal_form(m)
    g = 0
    for row in m:
        for v in row:
            g = math.gcd(g, v)
    assert d[0] == g


@given(int_matrices())
@settings(max_examples=100)
def test_rank_against_sympy(m):
    expected = sympy.Matrix(m).rank()
    assert bareiss_rank(m) == expected
    assert field_rank([[Fraction(v) for v in row] for row in m]) == expected


@given(int_matrices())
@settings(max_examples=60)
def test_rank_equals_transpose_rank(m):
    t = [list(col) for col in zip(*m)]
    assert bareiss_rank(m) == bareiss_rank(t)


@given(int_matrices(max_dim=4))
@settings(max_examples=60)
def test_nullspace_vectors_annihilate(m):
    rows = [[Fraction(v) for v in row] for row in m]
    basis = field_nullspace(rows)
    ncols = len(m[0])
    assert len(basis) == ncols - field_rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_snf_count_matches_smaller_dimension():
    assert len(smith_normal_form([[1, 2, 3]])) == 1
    assert len(smith_normal_form([[1], [2], [3]])) == 1


@pytest.mark.parametrize(
    "matrix, where, entry",
    [
        ([[2.5, 1], [1, 3]], (0, 0), 2.5),
        ([[True, 2]], (0, 0), True),
        ([[1, 2], [3, Fraction(4)]], (1, 1), Fraction(4)),
        ([[1, 2, 3], [4, 5, 6.0]], (1, 2), 6.0),
    ],
)
def test_snf_rejects_an_entry_that_is_not_an_int(matrix, where, entry):
    with pytest.raises(TypeError, match=re.escape(f"entry {where} must be an int, got {entry!r}")):
        smith_normal_form(matrix)


@pytest.mark.parametrize("solve", [field_rank, field_nullspace], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "matrix, where, entry",
    [
        ([[0.1, 0.2]], (0, 0), 0.1),
        ([[True, 2]], (0, 0), True),
        ([[1, 2], [Fraction(1, 3), 1j]], (1, 1), 1j),
        ([[1, Fraction(1, 2)], [3, False]], (1, 1), False),
    ],
)
def test_field_solvers_reject_inexact_entries(solve, matrix, where, entry):
    # field_nullspace([[0.1, 0.2]]) returned [[-2.0, 1]], and field_rank read
    # True as 1
    name = solve.__name__
    with pytest.raises(TypeError, match=re.escape(f"{name} entry {where} must be exact, got {entry!r}")):
        solve(matrix)


# ---------------------------------------------------------------------------
# bareiss_rank on sparse {column: int} rows


@st.composite
def sparse_rows(draw, max_rows=7, bound=6):
    """Sparse rows over a few widely spaced columns, with repeats: copies
    and scalar multiples of earlier rows, zero rows and empty rows."""
    cols = draw(st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("fresh", "fresh", "copy", "multiple", "zero", "empty")))
        if kind in ("copy", "multiple") and rows:
            base = draw(st.sampled_from(rows))
            k = 1 if kind == "copy" else draw(st.integers(-4, 4).filter(bool))
            rows.append({c: k * v for c, v in base.items()})
        elif kind == "zero":
            rows.append({c: 0 for c in draw(st.lists(st.sampled_from(cols), max_size=3))})
        elif kind == "empty":
            rows.append({})
        else:
            picked = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=len(cols), unique=True))
            rows.append({c: draw(st.integers(-bound, bound)) for c in picked})
    return cols, rows


@given(sparse_rows())
@settings(max_examples=200)
def test_sparse_rank_against_sympy_and_fractions(case):
    cols, rows = case
    dense = [[row.get(c, 0) for c in cols] for row in rows]
    expected = sympy.Matrix(len(rows), len(cols), [v for r in dense for v in r]).rank()
    assert bareiss_rank(rows) == expected
    assert field_rank([[Fraction(v) for v in r] for r in dense]) == expected
    # a dense row is read as enumerate(row), the same rank
    assert bareiss_rank(dense) == expected


def test_sparse_rank_anchors():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([{}, {3: 0}]) == 0
    assert bareiss_rank([{5: 2, 90: 4}, {5: -3, 90: -6}, {90: 1}]) == 2
    assert bareiss_rank([{0: 6, 1: 4}, {0: 9, 1: 6}, {0: 2, 1: 3}]) == 2


# ---------------------------------------------------------------------------
# Gaussian rows through realification, against field elimination over Q(i)

gauss_entries = st.builds(
    GaussRat,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@given(
    st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(gauss_entries, min_size=c, max_size=c), min_size=1, max_size=5)
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150)
def test_realified_rank_matches_gaussian_field_rank(dense, rng):
    # mix in a multiple of a row by a Gaussian scalar, often dependent over
    # Q(i) but not over Q
    if rng.random() < 0.5:
        u = GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))
        dense = dense + [[u * v for v in rng.choice(dense)]]
    cores = [Poly3({(j, 0, 0): v for j, v in enumerate(row) if v}) for row in dense]
    cores = [core for core in cores if not core.is_zero]
    width, forms = _integer_forms(cores)
    rows = [{width * m[0] + off: v for m, off, v in form} for templates in forms for form in templates]
    ours = bareiss_rank(rows)
    assert ours % width == 0
    assert ours // width == field_rank(dense)


def test_realified_rank_anchor():
    i = GaussRat.i()
    # (1, i) and (i, -1) = i*(1, i) are dependent over Q(i) only
    cores = [Poly3({(0, 0, 0): GaussRat(1), (1, 0, 0): i}), Poly3({(0, 0, 0): i, (1, 0, 0): GaussRat(-1)})]
    width, forms = _integer_forms(cores)
    rows = [{width * m[0] + off: v for m, off, v in form} for templates in forms for form in templates]
    assert width == 2
    assert bareiss_rank(rows) == 2


# ---------------------------------------------------------------------------
# FieldEchelon: the reduced row echelon form of a span


@st.composite
def spans(draw, max_dim=5, bound=6):
    """Integer rows, then a few integer combinations of them."""
    m = draw(int_matrices(max_dim, bound))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
        m.append([sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(len(m[0]))])
    return m


def _fractions(m):
    return [[Fraction(v) for v in row] for row in m]


def _check_kernel(rows, ech):
    kernel = ech.kernel()
    assert len(kernel) == ech.ncols - ech.rank
    for vec in kernel:
        assert any(vec)
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(spans(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_echelon_rows_are_sympy_rref(m, rng):
    ref, pivots = sympy.Matrix(m).rref()
    expected = [[Fraction(int(v.p), int(v.q)) for v in ref.row(i)] for i in range(len(pivots))]
    rows = _fractions(m)
    ech = FieldEchelon.of(rows)
    assert ech.rows() == expected
    assert ech.rank == len(pivots) == field_rank(rows)
    _check_kernel(rows, ech)
    rng.shuffle(rows)
    assert FieldEchelon.of(rows).rows() == expected


def test_echelon_anchors():
    ech = FieldEchelon(3)
    assert ech.rank == 0 and ech.rows() == []
    assert ech.kernel() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert ech.insert([0, Fraction(2), Fraction(4)])
    assert not ech.insert([0, Fraction(-1), Fraction(-2)])
    assert not ech.insert([0, 0, 0])
    assert ech.insert([Fraction(3), Fraction(1), 0])
    assert ech.rows() == [[1, 0, Fraction(-2, 3)], [0, 1, 2]]
    assert ech.kernel() == [[Fraction(2, 3), -2, 1]]
    assert FieldEchelon.of([]).kernel() == []


def test_int_entries_stay_exact():
    basis = field_nullspace([[2, 3], [4, 6]])
    assert basis == [[Fraction(-3, 2), 1]]
    assert not any(isinstance(v, float) for v in basis[0])


def _cyc_entries(order):
    phi = totient(order)
    return st.one_of(
        st.just(CycNum.zero()),
        st.lists(st.integers(-2, 2), min_size=phi, max_size=phi).map(lambda c: CycNum(order, c)),
    )


@st.composite
def cyclotomic_spans(draw):
    """Rows over Q(zeta_8) or Q(zeta_12), then a few combinations of them
    with cyclotomic coefficients; returns (order, base rows, all rows)."""
    order = draw(st.sampled_from((8, 12)))
    entries = _cyc_entries(order)
    ncols = draw(st.integers(1, 4))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    rows = list(base)
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(entries, min_size=len(base), max_size=len(base)))
        rows.append([sum((c * row[j] for c, row in zip(coeffs, base)), CycNum.zero()) for j in range(ncols)])
    return order, base, rows


@given(cyclotomic_spans(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_echelon_laws_over_cyclotomic_fields(case, rng):
    order, base, rows = case
    ech = FieldEchelon.of(rows)
    assert ech.rank == FieldEchelon.of(base).rank <= min(len(base), ech.ncols)
    # reduced: 1 at the row's own pivot, 0 at every other pivot column
    echelon = ech.rows()
    pivots = [next(c for c, v in enumerate(row) if v) for row in echelon]
    assert pivots == sorted(pivots)
    for row, col in zip(echelon, pivots):
        assert [row[c] for c in pivots] == [int(c == col) for c in pivots]
    _check_kernel(rows, ech)
    rng.shuffle(rows)
    assert FieldEchelon.of(rows).rows() == echelon


@pytest.mark.parametrize("order", [8, 12])
@given(spans(max_dim=4, bound=4))
@settings(max_examples=40, deadline=None)
def test_cyclotomic_rank_of_rational_rows_is_fraction_rank(order, m):
    lifted = [[CycNum.rational(v).lift(order) for v in row] for row in m]
    ech = FieldEchelon.of(lifted)
    assert ech.rank == field_rank(_fractions(m))
    _check_kernel(lifted, ech)
