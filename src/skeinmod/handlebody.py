"""Skein relations from sliding handles over a genus-2 handlebody.

The ambient module is C[x,y,z] (three core curves) with a Z/2 x Z/2 grading.
Generic-A data lives in Poly3 with LaurentPoly coefficients; the quotient
computations happen after specializing A to i, where coefficients become
Gaussian rationals. Eight relation families span the quotient ideal; each is
a fixed core polynomial times an arbitrary monomial, with the core variant
selected by a parity of the monomial. The quotient dimensions turn each core
into integer rows once and take ranks with the sparse linalg.bareiss_rank.
"""

from __future__ import annotations

import math
import re

from .chebyshev import chebyshev_S, chebyshev_T
from .gaussian import GaussRat, laurent_at_i
from .laurent import LaurentPoly, parse_laurent
from .linalg import bareiss_rank
from .sparse import SparseSum, accumulate
from .text import power, split_coeff, split_terms


class Poly3(SparseSum):
    """Polynomial in commuting x, y, z with coefficients in an exact domain.

    Keys are exponent triples (k, l, n); zero coefficients are dropped on
    construction. Coefficient types only need +, *, unary -, bool.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if len(key) != 3 or any(e < 0 for e in key):
                    raise ValueError(f"bad monomial key {key!r}")
                accumulate(self.terms, key, c)

    def __mul__(self, other):
        if not isinstance(other, Poly3):
            return self.scale(other)
        t = {}
        for (k1, l1, n1), v1 in self.terms.items():
            for (k2, l2, n2), v2 in other.terms.items():
                accumulate(t, (k1 + k2, l1 + l2, n1 + n2), v1 * v2)
        return Poly3._wrap(t)

    def __rmul__(self, other):
        return self.scale(other)

    def monomial_shift(self, k, l, n):
        """Multiply by x^k y^l z^n."""
        t = {(a + k, b + l, c + n): v for (a, b, c), v in self.terms.items()}
        # a negative shift goes through the key check
        return Poly3._wrap(t) if min(k, l, n) >= 0 else Poly3(t)

    def map_coeffs(self, fn):
        # evaluation can cancel a term (A^2 + 1 at A = i), so zeros are dropped
        return Poly3._wrap({k: c for k, v in self.terms.items() if (c := fn(v))})

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def gradings(self):
        return {monomial_grading(k) for k in self.terms}

    def is_homogeneous(self):
        return len(self.gradings()) <= 1

    def __str__(self):
        parts = []
        for key in sorted(self.terms, key=lambda k: (sum(k), [-e for e in k])):
            mono = "*".join(p for p in map(power, "xyz", key) if p) or "1"
            parts.append(f"({self.terms[key]})*{mono}")
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"Poly3({self.terms!r})"


def monomial_grading(key):
    """Z/2 x Z/2 class of x^k y^l z^n: ((k+n) mod 2, (l+n) mod 2)."""
    k, l, n = key
    return ((k + n) % 2, (l + n) % 2)


_MONOMIAL = re.compile(r"(?:1|[xyz](?:\^\d+)?(?:\s*\*\s*[xyz](?:\^\d+)?)*)\s*$")
_FACTOR = re.compile(r"([xyz])(?:\^(\d+))?")


def parse_poly3(text):
    """Inverse of Poly3.__str__.

    Reads a sum of `(coeff)*monomial` summands (see skeinmod.text): the
    coefficient is a Laurent polynomial in A, always in parentheses, and the
    monomial is 1 or a product of powers of x, y and z such as x^2*y. "" and
    "0" read as zero. Raises ValueError on anything else.
    """
    terms = {}
    for sign, chunk in split_terms(text):
        coeff, m = split_coeff(chunk, _MONOMIAL)
        if m is None or not chunk.startswith("("):
            raise ValueError(f"cannot parse polynomial term {chunk!r}")
        key = [0, 0, 0]
        for var, exp in _FACTOR.findall(m.group()):
            key["xyz".index(var)] += int(exp or 1)
        c = parse_laurent(coeff)
        accumulate(terms, tuple(key), -c if sign < 0 else c)
    return Poly3._wrap(terms)


def _y_poly(int_poly, scalar=1):
    """Lift a degree->int dict in y to a Poly3, scaled by a coefficient."""
    return Poly3({(0, e, 0): scalar * v for e, v in int_poly.items()})


def gamma(p):
    """Curve winding p times around one handle, generic A, via the recurrence."""
    if p < 1:
        raise ValueError("gamma needs p >= 1")
    A = LaurentPoly.A
    g1 = Poly3({(0, 1, 0): LaurentPoly.one()})
    if p == 1:
        return g1
    g2 = Poly3({(0, 2, 0): A(1), (0, 0, 0): -A(1) - A(-3)})
    prev, cur = g1, g2
    for _ in range(p - 2):
        step = cur.monomial_shift(0, 1, 0).scale(A(1)) - prev.scale(A(2))
        prev, cur = cur, step
    return cur


def gamma_prime(p):
    """Companion curve crossing the z-handle once, generic A."""
    if p < 1:
        raise ValueError("gamma_prime needs p >= 1")
    A = LaurentPoly.A
    g1 = Poly3({(0, 0, 1): LaurentPoly.one()})
    if p == 1:
        return g1
    g2 = Poly3({(0, 1, 1): A(1), (1, 0, 0): A(-1)})
    prev, cur = g1, g2
    for _ in range(p - 2):
        step = cur.monomial_shift(0, 1, 0).scale(A(1)) - prev.scale(A(2))
        prev, cur = cur, step
    return cur


def specialize_at_i(poly):
    """Evaluate LaurentPoly coefficients at A = i, yielding GaussRat coefficients."""
    return poly.map_coeffs(laurent_at_i)


def gamma_at_i_closed(p):
    """Closed form i^(p-1) * T_p(y)."""
    if p < 1:
        raise ValueError("needs p >= 1")
    return _y_poly(chebyshev_T(p), GaussRat.i() ** (p - 1))


def gamma_prime_at_i_closed(p):
    """Closed form i^(p-1) z S_{p-1}(y) + i^(p+1) x S_{p-2}(y)."""
    if p < 1:
        raise ValueError("needs p >= 1")
    zpart = _y_poly(chebyshev_S(p - 1), GaussRat.i() ** (p - 1)).monomial_shift(0, 0, 1)
    xpart = _y_poly(chebyshev_S(p - 2), GaussRat.i() ** (p + 1)).monomial_shift(1, 0, 0)
    return zpart + xpart


# family index -> which monomial parity picks the core variant
FAMILY_SELECTOR = {1: "ln", 2: "ln", 3: "ln", 4: "ln", 5: "kn", 6: "kn", 7: "kn", 8: "ln"}


def relation_core(family, p, parity):
    """Core polynomial of one relation family, parity in {0,1}.

    Returns None when the family has no variant for that parity (family 6
    exists only for odd k+n) or when the variant collapses to zero.
    """
    if family not in FAMILY_SELECTOR:
        raise ValueError(f"family must be 1..8, got {family}")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if family <= 4 and p < 2:
        raise ValueError("families 1-4 need p >= 2")
    one = GaussRat.one()
    i = GaussRat.i()
    sign = 1 if parity == 0 else -1
    if family == 1:
        # 2 -+ i^p T_p(y)
        core = Poly3({(0, 0, 0): 2 * one}) - _y_poly(chebyshev_T(p), sign * i**p)
    elif family == 2:
        # y +- i^p T_{p-1}(y)
        core = Poly3({(0, 1, 0): one}) + _y_poly(chebyshev_T(p - 1), sign * i**p)
    elif family == 3:
        # x -+ i^p (z S_{p-1}(y) - x S_{p-2}(y))
        inner = _y_poly(chebyshev_S(p - 1)).monomial_shift(0, 0, 1) - _y_poly(
            chebyshev_S(p - 2)
        ).monomial_shift(1, 0, 0)
        core = Poly3({(1, 0, 0): one}) - inner.scale(sign * i**p)
    elif family == 4:
        # i z - i x y +- i^(p-1) (z S_{p-2}(y) - x S_{p-3}(y))
        inner = _y_poly(chebyshev_S(p - 2)).monomial_shift(0, 0, 1) - _y_poly(
            chebyshev_S(p - 3)
        ).monomial_shift(1, 0, 0)
        core = Poly3({(0, 0, 1): i, (1, 1, 0): -i}) + inner.scale(sign * i ** (p - 1))
    elif family == 5:
        if parity == 0:
            core = Poly3({(2, 0, 0): one})
        else:
            core = Poly3({(0, 0, 0): 4 * one, (2, 0, 0): -one})
    elif family == 6:
        if parity == 0:
            return None
        core = Poly3({(1, 0, 0): 2 * one})
    elif family == 7:
        if parity == 0:
            core = Poly3({(1, 0, 1): one})
        else:
            core = Poly3({(0, 1, 0): 2 * one, (1, 0, 1): -one})
    else:
        if parity == 0:
            core = Poly3({(0, 0, 1): 2 * i, (1, 1, 0): -i})
        else:
            core = Poly3({(1, 1, 0): i})
    return None if core.is_zero else core


def crosscheck_relation_cores(p):
    """Regenerate the parameter-dependent cores from the curve recurrences and
    compare with the stated list.

    The uniform bookkeeping rule that reproduces families 1-3 assigns the
    recurrence term the sign -(-1)^parity. Family 4 as stated carries the
    opposite pairing (which is also the one its own ideal-membership proof
    needs), so this check is expected to flag family 4.
    """
    if p < 2:
        raise ValueError("needs p >= 2")
    g_p = specialize_at_i(gamma(p))
    g_p1 = specialize_at_i(gamma(p - 1)) if p >= 2 else None
    gp_p = specialize_at_i(gamma_prime(p))
    gp_p1 = specialize_at_i(gamma_prime(p - 1))
    i = GaussRat.i()
    one = GaussRat.one()
    y = Poly3({(0, 1, 0): one})
    two = Poly3({(0, 0, 0): 2 * one})
    x = Poly3({(1, 0, 0): one})
    izxy = Poly3({(0, 0, 1): i, (1, 1, 0): -i})
    report = {}
    for family in (1, 2, 3, 4):
        fam = {}
        for parity in (0, 1):
            s = 1 if parity == 0 else -1
            if family == 1:
                regen = two - g_p.scale(s * i)
            elif family == 2:
                regen = y - g_p1.scale(s)
            elif family == 3:
                regen = x - gp_p.scale(s * i)
            else:
                regen = izxy - gp_p1.scale(s * i)
            stated = relation_core(family, p, parity)
            stated = stated if stated is not None else Poly3.zero()
            fam["even" if parity == 0 else "odd"] = stated == regen
        report[family] = fam
    return report


def _core_variant_grading(family, p):
    # both variants of a family share one grading class (checked for even p)
    for parity in (0, 1):
        core = relation_core(family, p, parity)
        if core is not None:
            gs = core.gradings()
            if len(gs) == 1:
                return next(iter(gs))
    return None


def v_restricted_cores(p):
    """The one variant of each family whose monomial multiples can land in
    the trivially graded part, as (family, core) pairs."""
    if p % 2 or p < 2:
        raise ValueError("needs even p >= 2")
    out = []
    for family in range(1, 9):
        g_core = _core_variant_grading(family, p)
        if g_core is None:
            continue
        parity = g_core[1] if FAMILY_SELECTOR[family] == "ln" else g_core[0]
        core = relation_core(family, p, parity)
        if core is not None:
            out.append((family, core))
    return out


def verify_Jprime_containment(p):
    """Check that every trivially-graded relation core has all monomials
    divisible by x or y.

    For even p the constant terms cancel arithmetically, so the quotient by
    these relations keeps all powers z^(2n) independent; that is the engine
    of the infinite-dimensionality argument. Returns (ok, report).
    """
    if p % 2 or p < 2:
        raise ValueError("needs even p >= 2")
    report = {}
    ok = True
    for family, core in v_restricted_cores(p):
        offending = [key for key in core.terms if key[0] == 0 and key[1] == 0]
        contained = not offending
        ok = ok and contained
        report[family] = {
            "contained": contained,
            "monomials": len(core.terms),
            "offending": offending,
        }
    return ok, report


def monomials_leq(degree_bound, grading=None):
    """Exponent triples of total degree <= bound, graded-lex ordered (x>y>z)."""
    out = []
    for d in range(degree_bound + 1):
        level = []
        for k in range(d, -1, -1):
            for l in range(d - k, -1, -1):
                n = d - k - l
                if grading is None or monomial_grading((k, l, n)) == tuple(grading):
                    level.append((k, l, n))
        out.extend(level)
    return out


# Largest degree bound the relation and quotient functions accept. The
# measurements behind it are in README.md ("lens-quotient degree limits").
MAX_DEGREE = 64


def _check_degree(degree_bound):
    if degree_bound > MAX_DEGREE:
        raise ValueError(f"degree bound {degree_bound} exceeds the limit {MAX_DEGREE}")


def _multiples(p, degree_bound, grading=None):
    """The relation generators x^k y^l z^n * core of degree <= degree_bound,
    as (cores, [(monomial, index into cores)]), monomials in graded-lex
    order and families 1..8 within one monomial.

    The core variant for a monomial is picked by the parity of l+n (families
    1-4, 8) or k+n (families 5-7), that is, by the monomial's grading. The
    grading of a shifted core is the core's grading plus the monomial's, mod
    2, so under a grading filter each core is checked once for homogeneity
    and only the multiples in the requested class are listed.
    """
    if p < 2:
        raise ValueError("needs p >= 2")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    cores = []
    by_class = {(a, b): [] for a in (0, 1) for b in (0, 1)}
    for family in range(1, 9):
        bit = 1 if FAMILY_SELECTOR[family] == "ln" else 0
        for parity in (0, 1):
            core = relation_core(family, p, parity)
            if core is None:
                continue
            classes = [g for g in by_class if g[bit] == parity]
            if grading is not None:
                core_classes = core.gradings()
                if len(core_classes) != 1:
                    raise ValueError("inhomogeneous relation under a grading filter")
                (a, b) = core_classes.pop()
                classes = [g for g in classes if ((g[0] + a) % 2, (g[1] + b) % 2) == grading]
            if classes:
                for g in classes:
                    by_class[g].append((core.degree(), len(cores)))
                cores.append(core)
    pairs = []
    for mono in monomials_leq(degree_bound):
        room = degree_bound - sum(mono)
        pairs.extend((mono, j) for degree, j in by_class[monomial_grading(mono)] if degree <= room)
    return cores, pairs


def relation_generators(p, degree_bound):
    """All monomial multiples of relation cores up to the degree bound.

    The core variant for a monomial x^k y^l z^n is picked by the parity of
    l+n (families 1-4, 8) or k+n (families 5-7).
    """
    _check_degree(degree_bound)
    cores, pairs = _multiples(p, degree_bound)
    return [cores[j].monomial_shift(*mono) for mono, j in pairs]


def _integer_forms(cores):
    """Integer row templates of GaussRat cores: (width, one list of
    [(monomial, column offset, int)] rows per core).

    A core whose coefficients are all real or all imaginary spans the same
    line as one integer row, so if every core is like that (every even p)
    each gives one row and width is 1. Otherwise each core R + iS, with its
    denominators cleared, is realified into the integer rows [R | -S] and
    [S | R]: monomial column j splits into 2j (real part) and 2j + 1
    (imaginary part), width is 2, and the rank over Q of the realified rows
    is twice the rank over Q(i) of the Gaussian ones.
    """
    forms = []
    for core in cores:
        den = math.lcm(*(v.re.denominator * v.im.denominator for v in core.terms.values()))
        forms.append([(m, int(v.re * den), int(v.im * den)) for m, v in core.terms.items()])
    if all(not any(re for _m, re, _im in f) or not any(im for _m, _re, im in f) for f in forms):
        return 1, [[[(m, 0, re or im) for m, re, im in f]] for f in forms]
    return 2, [
        [
            [(m, off, v) for m, re, im in f for off, v in ((0, re), (1, -im)) if v],
            [(m, off, v) for m, re, im in f for off, v in ((0, im), (1, re)) if v],
        ]
        for f in forms
    ]


def _relation_rows(p, degree_bound, grading, cols):
    """Integer relation rows {column: int} over the monomial columns `cols`,
    with the width of `_integer_forms`; no Poly3 is built per multiple."""
    cores, pairs = _multiples(p, degree_bound, grading)
    width, forms = _integer_forms(cores)
    col_index = {key: width * idx for idx, key in enumerate(cols)}
    rows = []
    for (k, l, n), j in pairs:
        for form in forms[j]:
            row = {}
            for (a, b, c), off, v in form:
                idx = col_index.get((a + k, b + l, c + n))
                if idx is None:
                    raise ValueError(f"relation monomial {(a + k, b + l, c + n)} outside the column set")
                row[idx + off] = v
            rows.append(row)
    return width, rows


def _eliminate_singletons(rows):
    """Columns hit by a one-term relation are directly in the span; peel them
    off and shrink the remaining rows. Returns (killed column set, rows)."""
    killed = set()
    changed = True
    while changed:
        changed = False
        remaining = []
        for row in rows:
            live = {c: v for c, v in row.items() if c not in killed}
            if not live:
                continue
            if len(live) == 1:
                killed.add(next(iter(live)))
                changed = True
            else:
                remaining.append(live)
        rows = remaining
    return killed, rows


def _rank_of_rows(rows):
    """Exact rank of sparse integer rows: the singleton columns, plus the
    rank bareiss_rank finds for what is left of the other rows."""
    killed, rows = _eliminate_singletons(rows)
    return len(killed) + bareiss_rank(rows)


def _check_grading(p, grading):
    if grading is None:
        return None
    if p % 2:
        raise ValueError("grading filter requires even p (homogeneous relations)")
    return tuple(grading)


def truncated_quotient_dimension(p, degree_bound, grading=None):
    """Dimension of (monomials of degree <= bound, optionally one grading
    class) modulo the degree-truncated relation span."""
    grading = _check_grading(p, grading)
    _check_degree(degree_bound)
    cols = monomials_leq(degree_bound, grading)
    width, rows = _relation_rows(p, degree_bound, grading, cols)
    return len(cols) - _rank_of_rows(rows) // width


def nested_truncation_dimension(p, window_degree, relation_degree, grading=None):
    """Dimension of the image of the degree <= window_degree monomial span in
    the quotient by relations truncated at relation_degree >= window_degree.

    dim = #window monomials - (rank of all rows - rank of rows projected to
    the columns outside the window); increasing relation_degree can only
    shrink it. Columns are ordered by degree, so the window is a prefix.
    """
    if relation_degree < window_degree:
        raise ValueError("relation degree must dominate the window")
    grading = _check_grading(p, grading)
    _check_degree(relation_degree)
    cols = monomials_leq(relation_degree, grading)
    inside = sum(1 for key in cols if sum(key) <= window_degree)
    width, rows = _relation_rows(p, relation_degree, grading, cols)
    cut = width * inside
    outside_rows = [proj for row in rows if (proj := {c: v for c, v in row.items() if c >= cut})]
    return inside - (_rank_of_rows(rows) - _rank_of_rows(outside_rows)) // width
