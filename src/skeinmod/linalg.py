"""Exact linear algebra: ranks over Z and over exact fields, kernels, Smith
normal form.

There are two eliminations, one per kind of entry:

- over the integers, `bareiss_rank`: fraction-free, pivoting on each row's
  highest column and dividing out the content. Its only divisions are
  exact, by gcds, so entries stay integers, and on the sparse rows of the
  handle-slide quotients (see `handlebody`, which sends its rows over Q(i)
  as integer rows) the highest-column pivot keeps the rows short;
- over a field, `FieldEchelon`: the reduced row echelon form, pivoting on
  each row's lowest column and scaling it by one inverse. The reduced form
  of a span is unique, so its rows and its kernel basis do not depend on
  the order of the rows. It serves `field_rank`, `field_nullspace` and
  `mat2.algebra_closure`, for the bases of OTHER subalgebras only.

One loop for both would have to branch on its entry type at every step.
Field entries are CycNum or Fraction, or ints mixed in with them;
the type only has to support -, *, Fraction(1) / x and bool, and coerce
Python ints.
"""

from __future__ import annotations

import math
from fractions import Fraction


def bareiss_rank(rows):
    """Rank of an integer matrix, exact and fraction-free.

    Each row is a {column: int} mapping or a dense sequence, read as
    enumerate(row). The rows feed an online echelon that keeps one primitive
    row per pivot column, the row's highest nonzero column. A new row is
    reduced at every column that has a pivot row, highest first: at column
    c, with (a, b) = (pivot[c], row[c]) / gcd, it becomes a*row - b*pivot,
    divided by the gcd of its entries. A row that reaches zero depended on
    the rows before it (duplicates and scalar multiples included); otherwise
    it becomes the pivot of its highest column, with nonzeros only there and
    at columns that had no pivot yet, which keeps later reductions short.
    This is the fraction-free step of Bareiss (Math. Comp. 1968) with the
    content taken out, so the entries stay small.
    """
    pivots = {}
    for row in rows:
        items = row.items() if hasattr(row, "items") else enumerate(row)
        r = {c: v for c, v in items if v}
        while hit := [c for c in r if c in pivots]:
            col = max(hit)
            pivot = pivots[col]
            a, b = pivot[col], r[col]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                r = {c: a * v for c, v in r.items()}
            for c, v in pivot.items():
                v = r.get(c, 0) - b * v
                if v:
                    r[c] = v
                else:
                    del r[c]
            if r and a != 1:
                g = math.gcd(*r.values())
                if g != 1:
                    r = {c: v // g for c, v in r.items()}
        if r:
            g = math.gcd(*r.values())
            pivots[max(r)] = {c: v // g for c, v in r.items()}
    return len(pivots)


class FieldEchelon:
    """Reduced row echelon form of the span of the rows inserted so far.

    Each pivot row is 1 at its pivot column, the row's lowest nonzero
    column, and 0 at every other pivot column.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._pivots = {}  # pivot column -> row

    @classmethod
    def of(cls, matrix):
        rows = list(matrix)
        ech = cls(len(rows[0]) if rows else 0)
        for row in rows:
            ech.insert(row)
        return ech

    @property
    def rank(self):
        return len(self._pivots)

    def insert(self, vec):
        """Add a row to the span; True if it was not in the span already."""
        vec = list(vec)
        for col in sorted(self._pivots):
            factor = vec[col]
            if factor:
                vec = [v - factor * r for v, r in zip(vec, self._pivots[col])]
        col = next((c for c, v in enumerate(vec) if v), None)
        if col is None:
            return False
        inv = Fraction(1) / vec[col]  # exact for an int pivot too
        row = [v * inv for v in vec]
        for c, other in self._pivots.items():
            f = other[col]
            if f:
                self._pivots[c] = [o - f * r for o, r in zip(other, row)]
        self._pivots[col] = row
        return True

    def rows(self):
        """The pivot rows, by pivot column."""
        return [self._pivots[c] for c in sorted(self._pivots)]

    def kernel(self):
        """Basis of the right kernel, one vector per free column: 1 there,
        0 at the other free columns, and minus the pivot rows' entries in
        that column at the pivot columns. The 0/1 fill is Python ints, which
        every entry type here coerces on contact."""
        basis = []
        for free in range(self.ncols):
            if free not in self._pivots:
                vec = [0] * self.ncols
                vec[free] = 1
                for c, row in self._pivots.items():
                    vec[c] = -row[free]
                basis.append(vec)
        return basis


def _exact_rows(name, matrix):
    """The rows as lists; TypeError naming the row and column of a float,
    complex or bool entry, none of which is an exact field element."""
    rows = [list(row) for row in matrix]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, (bool, float, complex)):
                raise TypeError(f"{name} entry ({i}, {j}) must be exact, got {v!r}")
    return rows


def field_rank(matrix):
    """Exact rank; integer matrices take the Bareiss path automatically.
    Raises TypeError on a float, complex or bool entry (_exact_rows)."""
    rows = _exact_rows("field_rank", matrix)
    if all(isinstance(v, int) for row in rows for v in row):
        return bareiss_rank(rows)
    return FieldEchelon.of(rows).rank


def field_nullspace(matrix):
    """Basis of the right kernel over the entry field (FieldEchelon.kernel).
    Raises TypeError on a float, complex or bool entry (_exact_rows)."""
    return FieldEchelon.of(_exact_rows("field_nullspace", matrix)).kernel()


def smith_normal_form(matrix):
    """Invariant factors of an integer matrix.

    Returns min(rows, cols) nonnegative integers d_1 | d_2 | ... with zeros
    trailing once the rank runs out. Step t moves the smallest nonzero entry
    of the working block to (t, t) and subtracts floor multiples of row and
    column t from the rows and columns beyond it. That leaves each entry of
    row and column t smaller than the pivot p; if one is nonzero, the
    smallest becomes the pivot and the step repeats, so |p| strictly falls.
    Subtracting floor multiples alone keeps the entries of seifert's
    relator matrices small, up to 64 fibers (README, "Seifert input
    limits"). The diagonal left need not be a divisibility chain; one pass
    of (d_i, d_j) -> (gcd, lcm) over i < j makes it one, because diag(a, b)
    is equivalent to diag(gcd, lcm) (M. Newman, Integral Matrices, ch. II;
    H. Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    Raises TypeError naming the row and column of an entry that is not
    exactly an int (a float or a bool is not).
    """
    a = [list(row) for row in matrix]
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if type(v) is not int:
                raise TypeError(f"smith_normal_form entry ({i}, {j}) must be an int, got {v!r}")
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    size = min(nrows, ncols)
    diag = []
    for t in range(size):
        # best is (|v|, i, j) for the least nonzero entry of the working block
        best = None
        for i in range(t, nrows):
            for j, v in enumerate(a[i][t:], t):
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        while best:
            _, bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a[t:]:
                    row[t], row[bj] = row[bj], row[t]
            pivot_row = a[t]
            p = pivot_row[t]
            # relator rows are sparse: a row step only touches the pivot
            # row's nonzero columns, a column step only the rows with a
            # nonzero in column t. Rows from t on are zero left of column t,
            # so nonzero[0] is (t, p).
            nonzero = [(j, y) for j, y in enumerate(pivot_row) if y]
            live = [pivot_row]
            # then best becomes the least remainder left in row or column t
            best = None
            for i in range(t + 1, nrows):
                row = a[i]
                if row[t]:
                    f = row[t] // p
                    if f:
                        for j, y in nonzero:
                            row[j] -= f * y
                    r = row[t]
                    if r:
                        live.append(row)
                        if best is None or abs(r) < best[0]:
                            best = (abs(r), i, t)
            for j, y in nonzero[1:]:
                f = y // p
                if f:
                    for row in live:
                        row[j] -= f * row[t]
                r = pivot_row[j]
                if r and (best is None or abs(r) < best[0]):
                    best = (abs(r), t, j)
        diag.append(abs(a[t][t]))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag + [0] * (size - len(diag))
