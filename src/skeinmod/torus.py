"""Skein algebra of the thickened torus in the symmetrized curve basis.

Basis labels are pairs (p,q) of integers up to simultaneous sign flip. The
empty link is the key (), and the class (0,0) is not a basis key but twice
the empty link. An element is a sparse.SparseSum over these keys with
Laurent coefficients. The product of two basis curves is a two-term sum
with monomial coefficients, and it is genuinely noncommutative until A is
specialized to a value with A^2 = A^-2.
"""

from __future__ import annotations

import re

from .laurent import LaurentPoly, format_laurent, parse_laurent
from .sparse import SparseSum, accumulate
from .text import coeff_term, join_signed, split_coeff, split_terms


def check_label(label, what="label"):
    """Raise TypeError naming the label when an entry is not an int (a bool
    is not): a float entry would flow through products into float exponents."""
    for v in label:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"{what} entries must be ints, got {label!r}")


def canon(p, q):
    """Representative of (p,q) up to sign: p > 0, or p == 0 and q >= 0."""
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q)
    return (p, q)


def fg_normalize(p, q):
    """Canonical label for (p,q) under (p,q) ~ (-p,-q).

    Returns (label, trivial_scalar). The scalar is None except for (0,0),
    whose curve class is not a basis key but the constant 2. Raises
    TypeError naming the label when p or q is not an int (a bool is not).
    """
    check_label((p, q))
    if (p, q) == (0, 0):
        return (0, 0), LaurentPoly.from_int(2)
    return canon(p, q), None


def _as_poly(c):
    if isinstance(c, int):
        return LaurentPoly.from_int(c)
    if isinstance(c, LaurentPoly):
        return c
    raise TypeError(f"coefficient must be int or LaurentPoly, got {type(c).__name__}")


class FGElement(SparseSum):
    """Finite linear combination of curve classes with Laurent coefficients.
    The empty link is the key (); the constructor takes it apart as `unit`.
    A label entry that is not an int (a bool included) is a TypeError."""

    __slots__ = ()

    def __init__(self, terms=None, unit=None):
        self.terms = {}
        if unit is not None:
            accumulate(self.terms, (), _as_poly(unit))
        if terms:
            for (p, q), c in terms.items():
                check_label((p, q))
                c = _as_poly(c)
                if c and (p, q) == (0, 0):
                    raise ValueError("(0,0) is not a basis key; pass it as unit")
                accumulate(self.terms, canon(p, q), c)

    @classmethod
    def one(cls):
        return cls(unit=1)

    @classmethod
    def basis(cls, p, q):
        """The curve class (p,q); (0,0) collapses to the scalar 2."""
        check_label((p, q))
        if (p, q) == (0, 0):
            return cls(unit=2)
        return cls({canon(p, q): 1})

    @property
    def unit(self):
        """The coefficient of the empty link."""
        return self.terms.get((), LaurentPoly.zero())

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, FGElement):
            return NotImplemented
        return fg_multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def specialize_unit(self, u):
        """Coefficients at A = u for u in {1,-1}: (unit value, {label: int})."""
        t = {k: n for k, v in self.terms.items() if k and (n := v.eval_unit(u))}
        return self.unit.eval_unit(u), t

    def __str__(self):
        return format_fg(self)

    def __repr__(self):
        labels = {k: v for k, v in self.terms.items() if k}
        return f"FGElement({labels!r}, unit={self.unit!r})"


def fg_multiply(x, y):
    """Product in the torus skein algebra.

    Each pair of curve classes contributes two terms, a sum label and a
    difference label, with opposite monomial twists; a difference (0,0) is
    twice the empty link (), and () times a label keeps the label. The
    order of the factors matters: swapping x and y flips every twist exponent.
    """
    out = {}
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            c = cx * cy
            if not (kx and ky):
                accumulate(out, kx or ky, c)
                continue
            (p, q), (r, s) = kx, ky
            det = p * s - q * r
            accumulate(out, canon(p + r, q + s), c.shift(det))
            minus = canon(p - r, q - s)
            if minus == (0, 0):
                accumulate(out, (), 2 * c.shift(-det))
            else:
                accumulate(out, minus, c.shift(-det))
    return FGElement._wrap(out)


def fg_chebyshev_basis(p, q, d):
    """Image of the curve (p,q) under the degree-d first-kind recurrence.

    For gcd(p,q) = 1 this equals the basis class (d*p, d*q); that identity
    is what makes the curve basis multiplicative.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    # T(0) = 2 means the constant term is the empty link with weight 2
    prev = FGElement(unit=2)
    if d == 0:
        return prev
    cur = FGElement.basis(p, q)
    for _ in range(d - 1):
        prev, cur = cur, fg_multiply(FGElement.basis(p, q), cur) - prev
    return cur


_BASIS_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


def format_fg(el):
    """Text form like 'A*(1,1) + A^-1*(1,-1)', labels in descending order,
    scalar part last (the key () sorts below every label)."""
    return join_signed(
        coeff_term(format_laurent(el.terms[key]), "(%d,%d)" % key if key else "")
        for key in sorted(el.terms, reverse=True)
    )


def parse_fg(text):
    """Inverse of format_fg.

    Reads a sum of `coeff*(p,q)` and scalar summands (see skeinmod.text).
    Each coefficient is a Laurent polynomial in A, in one pair of
    parentheses when it has more than one term, and is 1 when left out.
    Scalars and the class (0,0), which is the scalar 2, go to the empty
    link (). "" and "0" read as zero. Raises ValueError on anything else.
    """
    terms = {}
    for sign, chunk in split_terms(text):
        coeff, m = split_coeff(chunk, _BASIS_RE)
        poly = LaurentPoly.one() if coeff is None else parse_laurent(coeff)
        poly = -poly if sign < 0 else poly
        if m is None:
            key = ()
        elif (key := canon(int(m.group(1)), int(m.group(2)))) == (0, 0):
            key, poly = (), 2 * poly
        accumulate(terms, key, poly)
    return FGElement._wrap(terms)
