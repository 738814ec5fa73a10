"""Exact linear algebra: ranks over Z and over exact fields, Smith normal form.

Integer matrices go through fraction-free Bareiss elimination. Field entries
(GaussRat rows from the handle-slide quotients, CycNum rows from the 2x2
algebra closures, or plain Fractions) go through plain field elimination;
the entry type only has to support -, *, /, bool and coerce Python ints.
LaurentFraction would qualify, but no computation eliminates over Q(A).
"""

from __future__ import annotations


def bareiss_rank(matrix):
    """Rank of an integer matrix, fraction-free."""
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nrows):
            head = m[i][col]
            for j in range(col + 1, ncols):
                m[i][j] = (pivot * m[i][j] - head * m[rank][j]) // prev
            m[i][col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def _field_rank(matrix):
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nrows):
            if m[i][col]:
                factor = m[i][col] / pivot
                for j in range(col, ncols):
                    m[i][j] = m[i][j] - factor * m[rank][j]
        rank += 1
        if rank == nrows:
            break
    return rank


def field_rank(matrix):
    """Exact rank; integer matrices take the Bareiss path automatically."""
    rows = list(matrix)
    if not rows or not rows[0]:
        return 0
    if all(isinstance(v, int) for row in rows for v in row):
        return bareiss_rank(rows)
    return _field_rank(rows)


def field_nullspace(matrix):
    """Basis of the right kernel over the entry field.

    Fill-in values are Python ints 0/1, which every coefficient type here
    coerces on contact.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        m[rank] = [v / pivot for v in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][free]
        basis.append(vec)
    return basis


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def smith_normal_form(matrix):
    """Invariant factors of an integer matrix.

    Returns min(rows, cols) nonnegative integers d_1 | d_2 | ... with zeros
    trailing once the rank runs out.
    """
    a = [[int(v) for v in row] for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    size = min(nrows, ncols)
    diag = []
    t = 0
    while t < size:
        # locate the entry of smallest absolute value in the working block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        # clear row and column t; restart whenever a remainder appears
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t] % a[t][t]:
                g, x, y = _xgcd(a[t][t], a[i][t])
                p, q = a[t][t] // g, a[i][t] // g
                for j in range(t, ncols):
                    rt, ri = a[t][j], a[i][j]
                    a[t][j] = x * rt + y * ri
                    a[i][j] = -q * rt + p * ri
                dirty = True
            if a[i][t]:
                f = a[i][t] // a[t][t]
                for j in range(t, ncols):
                    a[i][j] -= f * a[t][j]
        for j in range(t + 1, ncols):
            if a[t][j] % a[t][t]:
                g, x, y = _xgcd(a[t][t], a[t][j])
                p, q = a[t][t] // g, a[t][j] // g
                for i in range(t, nrows):
                    ct, cj = a[i][t], a[i][j]
                    a[i][t] = x * ct + y * cj
                    a[i][j] = -q * ct + p * cj
                dirty = True
            if a[t][j]:
                f = a[t][j] // a[t][t]
                for i in range(t, nrows):
                    a[i][j] -= f * a[i][t]
        if dirty:
            continue
        # divisibility sweep over the remaining block
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
            continue
        diag.append(abs(a[t][t]))
        t += 1
    return diag + [0] * (size - len(diag))
