"""Skein relations from sliding handles over a genus-2 handlebody.

The ambient module is C[x,y,z] (three core curves) with a Z/2 x Z/2 grading.
Generic-A data lives in Poly3 with LaurentPoly coefficients; the quotient
computations happen after specializing A to i, where coefficients become
CycNum values in Q(i) = Q(zeta_4). Eight relation families span the
quotient ideal; each is a fixed core polynomial times an arbitrary
monomial, with the core variant selected by a parity of the monomial.
Families 1-4 are a base polynomial plus or minus a multiple of the closed
forms gamma_at_i_closed and gamma_prime_at_i_closed, so one closed form
gives both variants of a family. Both quotient dimensions share one path:
it builds the cores and their integer row templates once per (p,
grading), collects the columns that one-term relations put in the span
before building any row, builds only the rows those columns do not
already span, peels further columns off those, and takes the rank of
what is left with the sparse linalg.bareiss_rank.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import re

from .chebyshev import chebyshev_S, chebyshev_T
from .cyclotomic import CycNum, laurent_eval, root_of_unity
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


# Largest p that gamma, gamma_prime, their closed forms at i, relation_core
# and verify_Jprime_containment accept; their Chebyshev polynomials of
# degree p cost about p^2 steps. The measurements behind it are in README.md
# ("p and n limits").
MAX_P = 1024


def _check_p(p):
    # before any cache: 4.0 == 4 would hit p = 4's _core_table entry
    if isinstance(p, bool) or not isinstance(p, int):
        raise TypeError(f"p must be an int, got {p!r}")
    if p > MAX_P:
        raise ValueError(f"p = {p} exceeds the limit {MAX_P}")


def _handle_recurrence(g1, g2, p):
    """Term p of g_(k+1) = A*y*g_k - A^2*g_(k-1), started at g1, g2 (p >= 2)."""
    A = LaurentPoly.A
    prev, cur = g1, g2
    for _ in range(p - 2):
        prev, cur = cur, cur.monomial_shift(0, 1, 0).scale(A(1)) - prev.scale(A(2))
    return cur


def gamma(p):
    """Curve winding p times around one handle, generic A, via the recurrence."""
    _check_p(p)
    if p < 1:
        raise ValueError("gamma needs p >= 1")
    A = LaurentPoly.A
    g1 = Poly3({(0, 1, 0): LaurentPoly.one()})
    if p == 1:
        return g1
    g2 = Poly3({(0, 2, 0): A(1), (0, 0, 0): -A(1) - A(-3)})
    return _handle_recurrence(g1, g2, p)


def gamma_prime(p):
    """Companion curve crossing the z-handle once, generic A."""
    _check_p(p)
    if p < 1:
        raise ValueError("gamma_prime needs p >= 1")
    A = LaurentPoly.A
    g1 = Poly3({(0, 0, 1): LaurentPoly.one()})
    if p == 1:
        return g1
    g2 = Poly3({(0, 1, 1): A(1), (1, 0, 0): A(-1)})
    return _handle_recurrence(g1, g2, p)


def specialize_at_i(poly):
    """Evaluate LaurentPoly coefficients at A = i, yielding order-4 CycNum
    coefficients."""
    return poly.map_coeffs(lambda c: laurent_eval(c, 4))


def gamma_at_i_closed(p):
    """Closed form i^(p-1) * T_p(y)."""
    _check_p(p)
    if p < 1:
        raise ValueError("needs p >= 1")
    return _y_poly(chebyshev_T(p), root_of_unity(4, p - 1))


def gamma_prime_at_i_closed(p):
    """Closed form i^(p-1) z S_{p-1}(y) + i^(p+1) x S_{p-2}(y)."""
    _check_p(p)
    if p < 1:
        raise ValueError("needs p >= 1")
    zpart = _y_poly(chebyshev_S(p - 1), root_of_unity(4, p - 1)).monomial_shift(0, 0, 1)
    xpart = _y_poly(chebyshev_S(p - 2), root_of_unity(4, p + 1)).monomial_shift(1, 0, 0)
    return zpart + xpart


# family index -> which monomial parity picks the core variant
FAMILY_SELECTOR = {1: "ln", 2: "ln", 3: "ln", 4: "ln", 5: "kn", 6: "kn", 7: "kn", 8: "ln"}


def _variants(family, p):
    """(even, odd) cores of one family, None where a variant is absent or zero.

    Families 1-4 are base -+ inner, with inner a multiple of a closed form:
    2 -+ i*gamma_p, y -+ gamma_(p-1), x -+ i*gamma'_p and
    (i z - i x y) -+ (-i)*gamma'_(p-1). Families 5-8 do not depend on p.
    """
    one, i = CycNum.one(), root_of_unity(4)
    if family >= 5:
        return tuple(Poly3(terms) or None for terms in {
            5: ({(2, 0, 0): one}, {(0, 0, 0): 4 * one, (2, 0, 0): -one}),
            6: ({}, {(1, 0, 0): 2 * one}),
            7: ({(1, 0, 1): one}, {(0, 1, 0): 2 * one, (1, 0, 1): -one}),
            8: ({(0, 0, 1): 2 * i, (1, 1, 0): -i}, {(1, 1, 0): i}),
        }[family])
    if family == 1:
        base, inner = {(0, 0, 0): 2 * one}, gamma_at_i_closed(p).scale(i)
    elif family == 2:
        base, inner = {(0, 1, 0): one}, gamma_at_i_closed(p - 1)
    elif family == 3:
        base, inner = {(1, 0, 0): one}, gamma_prime_at_i_closed(p).scale(i)
    else:
        base, inner = {(0, 0, 1): i, (1, 1, 0): -i}, gamma_prime_at_i_closed(p - 1).scale(-i)
    base = Poly3(base)
    return tuple(core or None for core in (base - inner, base + inner))


def relation_core(family, p, parity):
    """Core polynomial of one relation family, parity in {0,1}.

    Returns None when the family has no variant for that parity (family 6
    exists only for odd k+n) or when the variant collapses to zero.
    """
    if family not in FAMILY_SELECTOR:
        raise ValueError(f"family must be 1..8, got {family}")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    _check_p(p)
    if family <= 4 and p < 2:
        raise ValueError("families 1-4 need p >= 2")
    return _variants(family, p)[parity]


def crosscheck_relation_cores(p):
    """Regenerate the parameter-dependent cores from the curve recurrences and
    compare with the stated list.

    The uniform bookkeeping rule that reproduces families 1-3 assigns the
    recurrence term the sign -(-1)^parity. Family 4 as stated carries the
    opposite pairing (which is also the one its own ideal-membership proof
    needs), so this check is expected to flag family 4.
    """
    _check_p(p)
    if p < 2:
        raise ValueError("needs p >= 2")
    g_p = specialize_at_i(gamma(p))
    g_p1 = specialize_at_i(gamma(p - 1))
    gp_p = specialize_at_i(gamma_prime(p))
    gp_p1 = specialize_at_i(gamma_prime(p - 1))
    i = root_of_unity(4)
    one = CycNum.one()
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


def v_restricted_cores(p):
    """The one variant of each family whose monomial multiples can land in
    the trivially graded part, as (family, core) pairs."""
    _check_p(p)
    if p % 2 or p < 2:
        raise ValueError("needs even p >= 2")
    return list(_core_table(p, (0, 0))[0])


def verify_Jprime_containment(p):
    """Check that every trivially-graded relation core has all monomials
    divisible by x or y.

    For even p the constant terms cancel arithmetically, so the quotient by
    these relations keeps all powers z^(2n) independent; that is the engine
    of the infinite-dimensionality argument. Returns (ok, report).
    """
    _check_p(p)
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


def monomials_leq(degree_bound):
    """Exponent triples of total degree <= bound, graded-lex ordered (x>y>z)."""
    out = []
    for d in range(degree_bound + 1):
        for k in range(d, -1, -1):
            for l in range(d - k, -1, -1):
                out.append((k, l, d - k - l))
    return out


# Largest degree bound the relation and quotient functions accept. The
# measurements behind it are in README.md ("lens-quotient degree limits").
MAX_DEGREE = 64


def _check_degree(degree_bound):
    if degree_bound > MAX_DEGREE:
        raise ValueError(f"degree bound {degree_bound} exceeds the limit {MAX_DEGREE}")


@functools.lru_cache(maxsize=32)
def _core_table(p, grading):
    """The degree-independent part of the relation rows for one (p, grading),
    as (cores, groups, fits, width, forms).

    cores is the tuple of (family, core) pairs whose multiples can land in
    the grading class (all of them for None), families 1..8 in order.
    groups lists the distinct tuples of indices into cores, in that order,
    that a monomial can multiply; group 0 is the empty one. fits[2a + b][room]
    is the group a monomial of class (a, b) multiplies when it leaves room
    degrees below the bound, for room up to the largest core degree or
    MAX_DEGREE, whichever is less; a larger room fits what that one fits.
    width and forms are `_integer_forms` of the cores, as tuples.

    The core variant for a monomial is picked by the parity of l+n (families
    1-4, 8) or k+n (families 5-7), that is, by the monomial's grading. The
    grading of a shifted core is the core's grading plus the monomial's, mod
    2, so under a grading filter each core is checked once for homogeneity
    and only the multiples in the requested class are kept.
    """
    cores = []
    by_class = {(a, b): [] for a in (0, 1) for b in (0, 1)}
    for family in range(1, 9):
        bit = 1 if FAMILY_SELECTOR[family] == "ln" else 0
        for parity, core in enumerate(_variants(family, p)):
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
                cores.append((family, core))
    top = min(max((core.degree() for _family, core in cores), default=0), MAX_DEGREE)
    groups = {(): 0}
    fits = tuple(
        tuple(
            groups.setdefault(tuple(j for degree, j in listed if degree <= room), len(groups))
            for room in range(top + 1)
        )
        for listed in by_class.values()
    )
    width, forms = _integer_forms(core for _family, core in cores)
    return tuple(cores), tuple(groups), fits, width, tuple(tuple(map(tuple, form)) for form in forms)


def _unkey(key, B):
    """The exponent triple (k, l, n) of the key off*B^3 + (k*B + l)*B + n."""
    k, rest = divmod(key % B**3, B * B)
    return (k, *divmod(rest, B))


def _multipliers(p, degree_bound, grading):
    """The relation generators x^k y^l z^n * core of degree <= degree_bound,
    from one graded-lex listing of the monomials, as (B, columns, runs, fits).

    A monomial x^k y^l z^n is keyed by the integer (k*B + l)*B + n with
    B = degree_bound + 2 > every exponent, so a shifted core term's key is
    the monomial's key plus the term's own key. Column j * width + off of
    the `_integer_forms` rows is keyed by off*B^3 plus the key of monomial
    j, so a row term's column is one lookup: columns maps each such key, for
    the monomials in the requested grading class (all of them for None), to
    its column, with the monomials in graded-lex order.

    The listing goes a run at a time: x^k y^l z^(d-k-l) for l = d-k down to
    0. Along a run the key falls by B - 1 per step, l+n = d-k is fixed and
    k+n = d-l alternates in parity, so the class ((k+n) mod 2, (l+n) mod 2)
    alternates between two values, starting at (k mod 2, (d-k) mod 2), and
    so does the `_core_table` group of the cores a monomial multiplies.
    runs holds a range of keys per run, with the monomials that multiply no
    core left out, and fits the group of each monomial in those ranges, in
    order; `_pairs` reads them out together. No key is kept per monomial,
    and the entries of fits refer to the group numbers of `_core_table`, so
    fits allocates no object per monomial either.
    """
    _check_p(p)
    if p < 2:
        raise ValueError("needs p >= 2")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    _cores, _groups, fits_by_class, width, _forms = _core_table(p, grading)
    B = degree_bound + 2
    columns, runs, fits = {}, [], []
    for d in range(degree_bound + 1):
        room = degree_bound - d
        by_class = [fit[min(room, len(fit) - 1)] for fit in fits_by_class]
        for k in range(d, -1, -1):
            run = range((k * B + d - k) * B, k * B * B + d - k - 1, 1 - B)
            a, b = k & 1, (d - k) & 1
            if grading is None or b == grading[1]:
                in_class = run if grading is None else run[a != grading[0] :: 2]
                start = len(columns)
                for off in range(width):
                    shift = off * B**3
                    columns.update(zip(range(in_class.start + shift, in_class.stop + shift, in_class.step),
                                       itertools.count(start + off, width)))
            # the groups at the even and at the odd places of the run
            first, second = by_class[2 * a + b], by_class[2 * (1 - a) + b]
            if first and second:
                runs.append(run)
                fits += [first, second] * (len(run) // 2)
                if len(run) % 2:
                    fits.append(first)
            elif first or second:
                runs.append(run[0 if first else 1 :: 2])
                fits += [first or second] * len(runs[-1])
    return B, columns, runs, fits


def _pairs(runs, fits):
    """(key, group) of each monomial of `_multipliers`, in order."""
    return zip(itertools.chain.from_iterable(runs), fits)


def relation_generators(p, degree_bound):
    """All monomial multiples of relation cores up to the degree bound.

    The core variant for a monomial x^k y^l z^n is picked by the parity of
    l+n (families 1-4, 8) or k+n (families 5-7).
    """
    _check_degree(degree_bound)
    B, _columns, runs, fits = _multipliers(p, degree_bound, None)
    cores, groups = _core_table(p, None)[:2]
    return [cores[j][1].monomial_shift(*_unkey(key, B)) for key, g in _pairs(runs, fits) for j in groups[g]]


def _integer_forms(cores):
    """Integer row templates of cores over Q(i): (width, one list of
    [(monomial, column offset, int)] rows per core).

    Each coefficient is read at order 4, as integer coordinates (re, im)
    over a denominator. A core whose coefficients are all real or all
    imaginary spans the same line as one integer row, so if every core is
    like that (every even p) each gives one row and width is 1. Otherwise
    each core R + iS, with its denominators cleared, is realified into the
    integer rows [R | -S] and [S | R]: monomial column j splits into 2j
    (real part) and 2j + 1 (imaginary part), width is 2, and the rank over
    Q of the realified rows is twice the rank over Q(i) of the Gaussian ones.
    """
    forms = []
    for core in cores:
        coeffs = [(m, v.lift(4)) for m, v in core.terms.items()]
        den = math.lcm(*(v.den for _m, v in coeffs))
        forms.append([(m, *(c * (den // v.den) for c in v.num)) for m, v in coeffs])
    if all(not any(re for _m, re, _im in f) or not any(im for _m, _re, im in f) for f in forms):
        return 1, [[[(m, 0, re or im) for m, re, im in f]] for f in forms]
    return 2, [
        [
            [(m, off, v) for m, re, im in f for off, v in ((0, re), (1, -im)) if v],
            [(m, off, v) for m, re, im in f for off, v in ((0, im), (1, re)) if v],
        ]
        for f in forms
    ]


def _keyed_forms(p, degree_bound, grading):
    """(B, columns, runs, fits) of `_multipliers`, with width and the rows
    of `_integer_forms` keyed as `columns` is, ([term key, ...], [value, ...]),
    listed per `_core_table` group: the rows of its cores in order.

    Lists, not tuples, for what each call builds and drops: tuples of many
    sizes raised the peak memory of repeated calls (by about 1 MB over 30
    passes of the benchmark's quotient tasks), where lists leave it flat.
    """
    B, columns, runs, fits = _multipliers(p, degree_bound, grading)
    _cores, groups, _fits, width, forms = _core_table(p, grading)
    keyed = [
        [([off * B**3 + (a * B + b) * B + c for (a, b, c), off, _v in form], [v for _m, _off, v in form])
         for form in core_forms]
        for core_forms in forms
    ]
    return B, columns, runs, fits, width, [[form for j in group for form in keyed[j]] for group in groups]


def _outside(err, B):
    """The ValueError for a relation term whose key `columns` lacks."""
    return ValueError(f"relation monomial {_unkey(err.args[0], B)} outside the column set")


def _rows(B, columns, runs, fits, group_forms, killed):
    """One-shot generator of the integer relation rows {column: int}, in
    the order of the multiples, each core's rows in `_integer_forms` order;
    each term of a row costs one lookup in columns. A row whose columns all
    lie in the set killed is in the span of those unit vectors, and is
    skipped before its dict is built.
    """
    try:
        for key, g in _pairs(runs, fits):
            for terms, values in group_forms[g]:
                cols = [columns[key + term] for term in terms]
                if not killed.issuperset(cols):
                    yield dict(zip(cols, values))
    except KeyError as err:
        raise _outside(err, B) from None


def _relation_rows(p, degree_bound, grading):
    """(cols, width, rows): the monomial columns as exponent triples, and a
    list of every integer relation row over them, with the width of
    `_integer_forms`. This is the reference listing of the rows, which the
    tests pin and rank in full to check the quotient dimensions.
    """
    B, columns, runs, fits, width, group_forms = _keyed_forms(p, degree_bound, grading)
    cols = [_unkey(key, B) for key in columns if key < B**3]
    return cols, width, list(_rows(B, columns, runs, fits, group_forms, set()))


def _rank_of_rows(rows, killed=()):
    """Exact rank of the unit vectors at the columns in killed together with
    sparse integer rows {column: nonzero int}, from any iterable of them,
    read once.

    A column hit by a one-term row is in the span as a unit vector, and so is
    the last live column of a row whose other columns are all in the span.
    Peeling those columns off first is structured Gaussian elimination
    (LaMacchia and Odlyzko, CRYPTO '90): the killed set starts as the given
    columns, a one-term row only adds its column to it and is never stored;
    a row with two or more live columns is stored with its count of live
    columns, and each live column lists the rows that hold it. Killing a
    column lowers the count of each of those rows, and a row that falls to
    one live column kills that column in turn, off one worklist. The rank is
    the number of killed columns plus the bareiss_rank of the rows left with
    two or more live columns, projected off the killed ones. The killed set
    this ends with, and so those rows, do not depend on the order in which
    the unit vectors and rows arrive.
    """
    killed, kept, live, holders = set(killed), [], [], collections.defaultdict(list)

    def kill(col):
        killed.add(col)
        stack = [col]
        while stack:
            for i in holders.pop(stack.pop(), ()):
                live[i] -= 1
                if live[i] == 1:
                    # None when that column is killed but still on the stack
                    last = next((c for c in kept[i] if c not in killed), None)
                    if last is not None:
                        killed.add(last)
                        stack.append(last)

    for row in rows:
        if len(row) == 1:
            for col in row:
                if col not in killed:
                    kill(col)
            continue
        dead = killed.intersection(row)
        n = len(row) - len(dead)
        if n > 1:
            for c in row:
                if c not in dead:
                    holders[c].append(len(kept))
            kept.append(row)
            live.append(n)
        elif n:
            kill(next(c for c in row if c not in dead))
    rest = [
        row if killed.isdisjoint(row) else {c: v for c, v in row.items() if c not in killed}
        for row, n in zip(kept, live)
        if n > 1
    ]
    return len(killed) + bareiss_rank(rest)


def _check_grading(p, grading):
    if grading is None:
        return None
    if p % 2:
        raise ValueError("grading filter requires even p (homogeneous relations)")
    if not isinstance(grading, (tuple, list)) or tuple(grading) not in ((0, 0), (0, 1), (1, 0), (1, 1)):
        raise ValueError(f"grading must be (0, 0), (0, 1), (1, 0), (1, 1) or None, got {grading!r}")
    return tuple(grading)


def _quotient_ranks(p, degree_bound, grading, window=None):
    """(inside, width, rank, outside): rank is that of every relation row of
    degree <= degree_bound. With a window, inside counts the monomials of
    degree <= window and outside is the rank of the rows projected to the
    columns past them, a prefix as columns are ordered by degree; without
    one, inside counts every monomial and outside is 0.

    The first sweep collects the columns that one-term rows hit, building
    no row; each is a unit vector of the span. The second builds, once, the
    multi-term rows with a column outside that set: the others lie in the
    span of those unit vectors, and so do their projections past a window.
    `_rank_of_rows` peels the built rows after the set.
    """
    _check_p(p)
    grading = _check_grading(p, grading)
    _check_degree(degree_bound)
    B, columns, runs, fits, width, group_forms = _keyed_forms(p, degree_bound, grading)
    ones = [[terms[0] for terms, _values in forms if len(terms) == 1] for forms in group_forms]
    try:
        killed = {columns[key + term] for key, g in _pairs(runs, fits) for term in ones[g]}
    except KeyError as err:
        raise _outside(err, B) from None
    several = [[form for form in forms if len(form[0]) > 1] for forms in group_forms]
    rows = _rows(B, columns, runs, fits, several, killed)
    if window is None:
        return len(columns) // width, width, _rank_of_rows(rows, killed), 0
    rows = list(rows)
    rank = _rank_of_rows(rows, killed)
    cut = sum(1 for key in columns if sum(_unkey(key, B)) <= window)
    outside_rows = (proj for row in rows if (proj := {c: v for c, v in row.items() if c >= cut}))
    return cut // width, width, rank, _rank_of_rows(outside_rows, [c for c in killed if c >= cut])


def truncated_quotient_dimension(p, degree_bound, grading=None):
    """Dimension of (monomials of degree <= bound, optionally one grading
    class) modulo the degree-truncated relation span."""
    monomials, width, rank, _ = _quotient_ranks(p, degree_bound, grading)
    return monomials - rank // width


def nested_truncation_dimension(p, window_degree, relation_degree, grading=None):
    """Dimension of the image of the degree <= window_degree monomial span in
    the quotient by relations truncated at relation_degree >= window_degree:
    #window monomials - (rank of all rows - rank of their projections past
    the window); a larger relation_degree can only shrink it.
    """
    if relation_degree < window_degree:
        raise ValueError("relation degree must dominate the window")
    inside, width, rank, outside = _quotient_ranks(p, relation_degree, grading, window_degree)
    return inside - (rank - outside) // width
