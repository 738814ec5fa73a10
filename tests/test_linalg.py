"""Integer and field linear algebra, checked against sympy; the sparse
integer echelon also against field elimination over Q and Q(i)."""

import math
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod.gaussian import GaussRat
from skeinmod.handlebody import Poly3, _integer_forms
from skeinmod.linalg import bareiss_rank, field_nullspace, field_rank, smith_normal_form


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
