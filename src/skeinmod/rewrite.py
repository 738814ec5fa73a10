"""Boundary-driven rewriting for a skein module with two torus boundary
components and three module generators.

Elements are finite sums c * (a,b,c,d) * g where (a,b) and (c,d) are curve
classes on the first and second boundary torus and g is one of the module
generators 'e' (empty), 'x1', 'x2'. Labels multiply by the two-term
product-to-sum rule applied blindly per component; the pair (0,0) is kept
as an ordinary label and never collapsed to a scalar, which keeps every
rewriting identity an exact statement about the underlying module.

Reduction is driven by a two-part complexity measure attached to a choice
of slopes (a1,b1), (a2,b2). Every rewrite strictly decreases the measure,
so normal forms exist and the labels that survive live in a box bounded by
the slopes, which is the finite-generation statement in computational form.

The rewrite formulas are written once, in the rule table `_rules`. Each
rule's coefficient is +-A^k or A^k - A^(k-2), so `reduce_step` reads the
table with LaurentPoly coefficients, while `normalize` applies it to plain
{exp: int} coefficient dicts as signed exponent shifts. Coefficients in
Q(A) go through the same loop as integer numerators over one common
denominator.

`_oriented` is the one orientation rule: it flips each pair of a label, as
given, by the sign of its complexity form and returns the two forms with
it. The rule table branches on those forms, and it orients and
canonicalizes in place: two sign tests give each output row's two pairs
their canonical sign.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd

from .laurent import (
    LaurentFraction,
    LaurentPoly,
    divexact,
    parse_laurent,
    parse_laurent_fraction,
)
from .sparse import SparseSum, accumulate
from .text import coeff_term, join_signed, split_coeff, split_terms
from .torus import canon, check_label

GENS = ("e", "x1", "x2")
_GEN_RANK = {g: i for i, g in enumerate(GENS)}


def normalize_label(label):
    """Canonical form of (a,b,c,d): each pair taken up to simultaneous sign flip."""
    a, b, c, d = label
    return canon(a, b) + canon(c, d)


class SlopeData:
    """A pair of boundary slopes under which reduction terminates.

    Requires a1 > 0, b1 < 0, both pairs coprime, and the strict gap
    1 - b1/a1 > max(|1 + b2/a2|, |1 - b2/a2|). The gap is what makes the
    mixed rewrite outputs lose more on the first boundary than they can
    gain on the second.
    """

    __slots__ = ("a1", "b1", "a2", "b2")

    def __init__(self, a1, b1, a2, b2):
        for name, val in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2)):
            if isinstance(val, bool) or not isinstance(val, int):
                raise TypeError(f"{name} must be an integer")
        if a1 <= 0 or b1 >= 0:
            raise ValueError("first slope needs a1 > 0 and b1 < 0")
        if a2 <= 0:
            raise ValueError("second slope needs a2 > 0")
        if gcd(a1, b1) != 1 or gcd(a2, b2) != 1:
            raise ValueError("slope pairs must be coprime")
        gap = 1 - Fraction(b1, a1)
        ratio = Fraction(b2, a2)
        if not gap > max(abs(1 + ratio), abs(1 - ratio)):
            raise ValueError(
                f"slopes ({a1},{b1}),({a2},{b2}) violate the strict reduction inequality"
            )
        self.a1, self.b1, self.a2, self.b2 = a1, b1, a2, b2

    def __repr__(self):
        return f"SlopeData(({self.a1},{self.b1}),({self.a2},{self.b2}))"

    def __eq__(self, other):
        if not isinstance(other, SlopeData):
            return NotImplemented
        return (self.a1, self.b1, self.a2, self.b2) == (other.a1, other.b1, other.a2, other.b2)

    __hash__ = None


Complexity = namedtuple("Complexity", "c neg_c1")


def _forms(label, slopes):
    a, b, c, d = label
    return abs(slopes.a1 * b - slopes.b1 * a), abs(slopes.a2 * d - slopes.b2 * c)


def complexity(label, slopes):
    """Lexicographic measure (c1/a1 + c2/a2, -c1) with c_i = |a_i q - b_i p|."""
    c1, c2 = _forms(label, slopes)
    a1, a2 = slopes.a1, slopes.a2
    return Complexity(Fraction(c1 * a2 + c2 * a1, a1 * a2), Fraction(-c1))


def is_reduced_label(label, slopes):
    """True when neither rewrite applies: c1 <= 2(a1-b1) and c2 <= 2a2."""
    c1, c2 = _forms(label, slopes)
    return c1 <= 2 * (slopes.a1 - slopes.b1) and c2 <= 2 * slopes.a2


class NotReducible(Exception):
    """Raised when a label sits inside the irreducible box."""


class StepBudgetExceeded(Exception):
    """Raised when normalize runs out of steps; carries the partial element."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class ModuleElement(SparseSum):
    """Finite sum of labelled generator terms with coefficients in Q(A).

    Coefficients are LaurentPoly values when integral and LaurentFraction
    otherwise; both mix freely. Keys are ((a,b,c,d), gen) with the label
    stored in canonical form; a label entry that is not an int (a bool
    included) is a TypeError.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (label, gen), coeff in terms.items():
                if gen not in _GEN_RANK:
                    raise ValueError(f"unknown generator {gen!r}")
                label = tuple(label)
                check_label(label)
                if isinstance(coeff, int):
                    coeff = LaurentPoly.from_int(coeff)
                accumulate(self.terms, (normalize_label(label), gen), coeff)

    @classmethod
    def term(cls, label, gen, coeff=1):
        return cls({(tuple(label), gen): coeff})

    def items(self):
        """Terms in a deterministic order: by generator, then label."""
        return sorted(self.terms.items(), key=lambda kv: (_GEN_RANK[kv[0][1]], kv[0][0]))

    def __str__(self):
        return format_module_element(self)

    def __repr__(self):
        return f"ModuleElement({format_module_element(self)!r})"


def format_module_element(e):
    """Text form like '- (0,0,0,1)*e + 2*(0,1,0,2)*e', terms in items() order."""
    return join_signed(
        (
            coeff_term(str(coeff), f"({label[0]},{label[1]},{label[2]},{label[3]})*{gen}")
            for (label, gen), coeff in e.items()
        ),
        lead="- ",
    )


_TERM_TAIL = re.compile(
    r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*\*\s*(e|x1|x2)\s*$"
)


def parse_module_element(text):
    """Inverse of format_module_element.

    Reads a sum of `coeff*(a,b,c,d)*gen` summands with gen one of e, x1, x2
    (see skeinmod.text). A coefficient is a Laurent polynomial in A or a
    quotient `(num)/(den)` of two, may be wrapped in one pair of
    parentheses, and is 1 when left out. "" and "0" read as zero. Raises
    ValueError on anything else, including a zero denominator.
    """
    terms = {}
    for sign, chunk in split_terms(text):
        coeff, m = split_coeff(chunk, _TERM_TAIL)
        if m is None:
            raise ValueError(f"cannot parse module term {chunk!r}")
        if coeff is None:
            c = LaurentPoly.one()
        else:
            try:
                c = parse_laurent(coeff)
            except ValueError:
                c = parse_laurent_fraction(coeff)
        label = normalize_label(tuple(int(v) for v in m.group(1, 2, 3, 4)))
        accumulate(terms, (label, m.group(5)), -c if sign < 0 else c)
    return ModuleElement._wrap(terms)


Relation = namedtuple("Relation", "index lhs rhs")


def f12_relations():
    """The six module identities, as left/right hand ModuleElements.

    (1) the second-boundary fiber equals the first-boundary fiber on 'e';
    (2) a four-term mixed-boundary identity on 'e';
    (3),(4) the fiber identity of (1) on x1 and on x2;
    (5),(6) the cross identities trading x1 against x2.
    """
    A = LaurentPoly.A
    rels = [
        Relation(1, ModuleElement.term((0, 0, 0, 1), "e"), ModuleElement.term((0, 1, 0, 0), "e")),
        Relation(
            2,
            ModuleElement(
                {
                    ((1, 1, 0, 0), "e"): A(1),
                    ((0, 0, 1, -1), "e"): A(-1),
                    ((0, 0, 1, 1), "e"): -A(1),
                    ((1, -1, 0, 0), "e"): -A(-1),
                }
            ),
            ModuleElement.zero(),
        ),
        Relation(3, ModuleElement.term((0, 1, 0, 0), "x1"), ModuleElement.term((0, 0, 0, 1), "x1")),
        Relation(4, ModuleElement.term((0, 1, 0, 0), "x2"), ModuleElement.term((0, 0, 0, 1), "x2")),
        Relation(
            5,
            ModuleElement({((1, 1, 0, 0), "x1"): A(2), ((1, -1, 0, 0), "x1"): -A(-2)}),
            ModuleElement.term((0, 0, 0, 1), "x2", A(1) - A(-1)),
        ),
        Relation(
            6,
            ModuleElement({((1, 1, 0, 0), "x2"): A(2), ((1, -1, 0, 0), "x2"): -A(-2)}),
            ModuleElement.term((0, 0, 0, 1), "x1", A(1) - A(-1)),
        ),
    ]
    return rels


def boundary_multiply(e, pair, boundary):
    """Multiply every term of e by the curve (p,q) on the given boundary (1 or 2).

    Blind two-term product-to-sum per label; (0,0) stays a label, so the
    result is exact in the same formal basis the rewrites use. Raises
    TypeError when p or q is not an int (a bool is not), as for a label.
    """
    check_label(pair, "curve")
    p, q = pair
    if boundary not in (1, 2):
        raise ValueError("boundary must be 1 or 2")
    acc = {}
    for (label, gen), coeff in e.terms.items():
        a, b, c, d = label
        if boundary == 1:
            det = a * q - b * p
            outs = [(det, (a + p, b + q, c, d)), (-det, (a - p, b - q, c, d))]
        else:
            det = c * q - d * p
            outs = [(det, (a, b, c + p, d + q)), (-det, (a, b, c - p, d - q))]
        for exp, lab in outs:
            accumulate(acc, (normalize_label(lab), gen), coeff.shift(exp))
    return ModuleElement._wrap(acc)


def _oriented(label, slopes):
    """(u, v, w, z, c1, c2): label with each pair flipped to make its complexity
    form c_i nonnegative, and the two forms.

    This is the one orientation rule. A pair whose form is 0 is a multiple
    of its slope, and a_i > 0, so it takes its canonical sign, first entry
    >= 0. The label's own sign does not matter.
    """
    a, b, c, d = label
    c1 = slopes.a1 * b - slopes.b1 * a
    if c1 < 0 or c1 == 0 and a < 0:
        a, b, c1 = -a, -b, -c1
    c2 = slopes.a2 * d - slopes.b2 * c
    if c2 < 0 or c2 == 0 and c < 0:
        c, d, c2 = -c, -d, -c2
    return a, b, c, d, c1, c2


def _rules(label, gen, slopes):
    """The rewrite of label*gen as rows ((label, gen), sign, exp, cross).

    This table is the one copy of the rewrite formulas: three fiber trades
    on the second boundary, seven rules on 'e' and five on 'x1'/'x2'. A
    row's coefficient is sign * A^exp, times (1 - A^-2) when cross is set,
    so it is +-A^k or A^k - A^(k-2), and multiplying by it is a signed
    exponent shift. The rows are built on the oriented label and each pair
    is put in canonical form here, as torus.canon does; rows are not
    merged, so two of them can share a key. Raises NotReducible inside the
    c1 <= 2(a1-b1), c2 <= 2a2 box.
    """
    u, v, w, z, c1, c2 = _oriented(label, slopes)
    t = v - u
    if c2 > 2 * slopes.a2:
        # fiber trade on the second boundary; works uniformly on all generators
        rows = (
            (u, v + 1, w, z - 1, gen, 1, u - w, False),
            (u, v - 1, w, z - 1, gen, 1, -u - w, False),
            (u, v, w, z - 2, gen, -1, -2 * w, False),
        )
    elif c1 > 2 * (slopes.a1 - slopes.b1):
        if gen == "e":
            rows = (
                (u - 2, v - 2, w, z, gen, -1, 2 * t, False),
                (u - 1, v - 1, w + 1, z - 1, gen, -1, t - w - z - 2, False),
                (u - 1, v - 1, w - 1, z + 1, gen, -1, t + w + z - 2, False),
                (u - 1, v - 1, w + 1, z + 1, gen, 1, t + w - z, False),
                (u - 1, v - 1, w - 1, z - 1, gen, 1, t - w + z, False),
                (u, v - 2, w, z, gen, 1, -2 * u, False),
                (u - 2, v, w, z, gen, 1, 2 * v - 4, False),
            )
        else:
            other = "x2" if gen == "x1" else "x1"
            rows = (
                (u - 2, v - 2, w, z, gen, -1, 2 * t, False),
                (u, v - 2, w, z, gen, 1, -2 * u - 2, False),
                (u - 2, v, w, z, gen, 1, 2 * v - 6, False),
                (u - 1, v - 1, w, z + 1, other, 1, t + w - 1, True),
                (u - 1, v - 1, w, z - 1, other, 1, t - w - 1, True),
            )
    else:
        raise NotReducible(f"label {tuple(label)} is inside the irreducible box")
    out = []
    for p, q, r, s, g, sign, exp, cross in rows:
        if p < 0 or p == 0 and q < 0:
            p, q = -p, -q
        if r < 0 or r == 0 and s < 0:
            r, s = -r, -s
        out.append((((p, q, r, s), g), sign, exp, cross))
    return out


def reduce_step(label, gen, slopes):
    """One rewrite of label*gen into strictly smaller terms.

    Returns a list of (coefficient, label, gen) triples with labels in
    canonical form and like terms merged: the rows of the rule table
    `_rules` with LaurentPoly coefficients. Raises NotReducible inside the
    c1 <= 2(a1-b1), c2 <= 2a2 box. Raises TypeError for a label entry that
    is not an int.
    """
    check_label(label)
    if gen not in _GEN_RANK:
        raise ValueError(f"unknown generator {gen!r}")
    acc = {}
    for key, sign, exp, cross in _rules(label, gen, slopes):
        accumulate(acc, key, LaurentPoly._wrap({exp: sign, exp - 2: -sign} if cross else {exp: sign}))
    return [(acc[k], k[0], k[1]) for k in sorted(acc, key=lambda k: (_GEN_RANK[k[1]], k[0]))]


def _times_cross(coeff):
    """(1 - A^-2) * c for c given as {exp: int} items, as items."""
    out = dict(coeff)
    for exp, c in coeff:
        s = out.get(exp - 2, 0) - c
        if s:
            out[exp - 2] = s
        else:
            del out[exp - 2]
    return out.items()


def _common_denominator(coeffs):
    """The lcm in Z[A] of the denominators of the LaurentFraction coefficients;
    1 when there are none."""
    den = LaurentPoly.one()
    for c in coeffs:
        if isinstance(c, LaurentFraction):
            # den/c.den in lowest terms has denominator c.den/gcd(den, c.den)
            den = den * LaurentFraction(den, c.den).den
    return den


def normalize(e, slopes, max_steps=100000, log=None):
    """Rewrite e until every label is inside the irreducible box.

    The term of maximal complexity goes first; ties choose the
    lexicographically smallest label, then the generator order e, x1, x2.
    Reducible terms wait in a min-heap on the integer key
    (-(c1*a2 + c2*a1), c1, label, generator rank): scaling the measure
    (c1/a1 + c2/a2, -c1) by a1*a2 > 0 keeps its order, so the heap pops
    the same terms in the same order as a scan for the maximum would.
    Each entry carries its (label, gen) key after the heap key. A term is
    pushed when it appears in the sum; an entry whose term has since
    cancelled is skipped when popped. Every rewrite output is
    strictly below the term it replaces, so a popped key never returns.

    Each live coefficient is a plain {exp: int} dict, and a step applies
    the rows of the rule table `_rules` as signed adds at shifted
    exponents; the two cross rows of an x1/x2 step share one product
    (1 - A^-2) * c. LaurentPoly values are built only for the returned
    element.
    Coefficients in Q(A) are first multiplied by D, the lcm of their
    denominators, and the same loop runs on the integer numerators. A key's
    sum is zero exactly when its numerator sum is, so the steps and the log
    do not depend on D, and each output coefficient is LaurentFraction(num, D).

    A step log (label, gen, term count) is appended to `log` if given.
    Raises StepBudgetExceeded carrying the partial element if max_steps
    rewrites do not finish, which the descent argument rules out for any
    honest budget.
    """
    e = ModuleElement(e.terms)
    den = _common_denominator(e.terms.values())
    integral = den == 1
    terms = {}  # key -> {exp: int}, the numerator over den; changed in place
    for key, c in e.terms.items():
        if isinstance(c, LaurentFraction):
            c = c.num * divexact(den, c.den)
        elif not integral:
            c = c * den
        terms[key] = dict(c.terms)

    def element():
        if integral:
            return ModuleElement._wrap({k: LaurentPoly._wrap(c) for k, c in terms.items()})
        return ModuleElement._wrap(
            {k: LaurentFraction(LaurentPoly._wrap(c), den) for k, c in terms.items()}
        )

    a1, b1, a2, b2 = slopes.a1, slopes.b1, slopes.a2, slopes.b2
    box1, box2 = 2 * (a1 - b1), 2 * a2
    heap = []

    def push(key):
        # the is_reduced_label box test and the scaled complexity, on ints
        label = key[0]
        a, b, c, d = label
        c1 = abs(a1 * b - b1 * a)
        c2 = abs(a2 * d - b2 * c)
        if c1 > box1 or c2 > box2:
            heappush(heap, (-(c1 * a2 + c2 * a1), c1, label, _GEN_RANK[key[1]], key))

    for key in terms:
        push(key)
    steps = 0
    while heap:
        pick = heappop(heap)[4]
        if pick not in terms:
            continue
        if steps >= max_steps:
            raise StepBudgetExceeded(f"no normal form within {max_steps} steps", element())
        steps += 1
        label, gen = pick
        coeff = terms.pop(pick).items()
        crossed = None  # (1 - A^-2) * coeff, shared by the step's two cross rows
        for key, sign, shift, cross in _rules(label, gen, slopes):
            target = terms.get(key)
            if target is None:
                # a nonzero coefficient times a nonzero row is nonzero
                target = terms[key] = {}
                push(key)
            source = coeff
            if cross:
                if crossed is None:
                    crossed = _times_cross(coeff)
                source = crossed
            for exp, c in source:
                exp += shift
                s = target.get(exp, 0) + sign * c
                if s:
                    target[exp] = s
                else:
                    del target[exp]
            if not target:
                del terms[key]
        if log is not None:
            log.append((label, gen, len(terms)))
    return element()


def dehn_fill_quotient(e, boundary, slope, slopes):
    """Quotient by filling one boundary along its distinguished slope.

    Any label whose pair on that boundary is an m-fold multiple of the
    slope loses the multiple and picks up the factor (-1)^m (A^{2m} +
    A^{-2m}), the closed-form value of the m-th power-sum of the filled
    curve. Other labels pass through unchanged. Slopes other than the
    distinguished one on that boundary are rejected.
    """
    if boundary not in (1, 2):
        raise ValueError("boundary must be 1 or 2")
    want = (slopes.a1, slopes.b1) if boundary == 1 else (slopes.a2, slopes.b2)
    if canon(*slope) != canon(*want):
        raise ValueError(f"slope {slope} is not the distinguished slope {want} of boundary {boundary}")
    sa, sb = canon(*want)
    acc = {}
    for (label, gen), coeff in e.terms.items():
        a, b, c, d = label
        pair = (a, b) if boundary == 1 else (c, d)
        m = _multiple_of(pair, (sa, sb))
        if m is None or m == 0:
            accumulate(acc, (label, gen), coeff)
            continue
        factor = LaurentPoly({2 * m: 1, -2 * m: 1})
        if m % 2:
            factor = -factor
        # the labels of e are canonical, so the filled label is too
        new_label = (0, 0) + (c, d) if boundary == 1 else (a, b) + (0, 0)
        accumulate(acc, (new_label, gen), coeff * factor)
    return ModuleElement._wrap(acc)


def _multiple_of(pair, slope):
    # m >= 1 with pair ~ m*slope up to sign, else None; (0,0) maps to m=0.
    # The slope is canonical and primitive, so m can only be gcd(p, q) of
    # the canonical pair (0 for (0,0)).
    p, q = canon(*pair)
    m = gcd(p, q)
    return m if (p, q) == (m * slope[0], m * slope[1]) else None


def affine_class(label, slopes):
    """Invariant of the affine translate a label lives on.

    Translating a pair by its slope fixes the complexity form and moves the
    first coordinate by a full period, so (form value, first coordinate mod
    period) pins the line. Labels of equal class differ by slope translates.
    """
    a, _b, c, _d, c1, c2 = _oriented(label, slopes)
    return (c1, a % slopes.a1, c2, c % slopes.a2)


def irreducible_classes(slopes, radius):
    """Affine classes met by irreducible labels with entries in [-radius, radius].

    The count is bounded by (2(a1-b1)+1)(2a2+1) independently of the radius;
    saturation of this set as the radius grows is the finite generation
    witness.
    """
    seen = set()
    rng = range(-radius, radius + 1)
    for a in rng:
        for b in rng:
            c1 = abs(slopes.a1 * b - slopes.b1 * a)
            if c1 > 2 * (slopes.a1 - slopes.b1):
                continue
            for c in rng:
                for d in rng:
                    c2 = abs(slopes.a2 * d - slopes.b2 * c)
                    if c2 <= 2 * slopes.a2:
                        seen.add(affine_class((a, b, c, d), slopes))
    return seen
