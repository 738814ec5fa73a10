"""Skein algebra of the thickened torus in the symmetrized curve basis.

Basis labels are pairs (p,q) of integers up to simultaneous sign flip; the
label (0,0) is not stored as a basis key but folded into a scalar `unit`
slot, twice the empty link. The product of two basis curves is a two-term
sum with monomial coefficients, and it is genuinely noncommutative until A
is specialized to a value with A^2 = A^-2.
"""

from __future__ import annotations

import re

from .laurent import LaurentPoly, format_laurent, parse_laurent
from .sparse import accumulate
from .text import coeff_term, join_signed, split_coeff, split_terms


def canon(p, q):
    """Representative of (p,q) up to sign: p > 0, or p == 0 and q >= 0."""
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q)
    return (p, q)


def fg_normalize(p, q):
    """Canonical label for (p,q) under (p,q) ~ (-p,-q).

    Returns (label, trivial_scalar). The scalar slot is None except for
    (0,0), whose curve class is not a basis key but the constant 2.
    """
    if (p, q) == (0, 0):
        return (0, 0), LaurentPoly.from_int(2)
    return canon(p, q), None


def _as_poly(c):
    if isinstance(c, int):
        return LaurentPoly.from_int(c)
    if isinstance(c, LaurentPoly):
        return c
    raise TypeError(f"coefficient must be int or LaurentPoly, got {type(c).__name__}")


class FGElement:
    """Finite linear combination of curve classes with Laurent coefficients."""

    __slots__ = ("terms", "unit")

    def __init__(self, terms=None, unit=None):
        self.unit = _as_poly(unit) if unit is not None else LaurentPoly.zero()
        self.terms = {}
        if terms:
            for (p, q), c in terms.items():
                c = _as_poly(c)
                if c and (p, q) == (0, 0):
                    raise ValueError("(0,0) is not a basis key; use the unit slot")
                accumulate(self.terms, canon(p, q), c)

    @classmethod
    def _wrap(cls, terms, unit):
        """Adopt canonical parts: canonical nonzero labels, no zero values."""
        out = object.__new__(cls)
        out.terms = terms
        out.unit = unit
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls(unit=1)

    @classmethod
    def basis(cls, p, q):
        """The curve class (p,q); (0,0) collapses to the scalar 2."""
        if (p, q) == (0, 0):
            return cls(unit=2)
        return cls({canon(p, q): 1})

    @property
    def is_zero(self):
        return not self.terms and self.unit.is_zero

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, FGElement):
            return NotImplemented
        return self.unit == other.unit and self.terms == other.terms

    __hash__ = None

    def __neg__(self):
        return FGElement._wrap({k: -v for k, v in self.terms.items()}, -self.unit)

    def __add__(self, other):
        if not isinstance(other, FGElement):
            return NotImplemented
        t = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(t, k, v)
        return FGElement._wrap(t, self.unit + other.unit)

    def __sub__(self, other):
        if not isinstance(other, FGElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = _as_poly(c)
        if not c:
            return FGElement.zero()
        return FGElement._wrap({k: v * c for k, v in self.terms.items()}, self.unit * c)

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
        t = {}
        for k, v in self.terms.items():
            n = v.eval_unit(u)
            if n:
                t[k] = n
        return self.unit.eval_unit(u), t

    def __str__(self):
        return format_fg(self)

    def __repr__(self):
        return f"FGElement({self.terms!r}, unit={self.unit!r})"


def fg_multiply(x, y):
    """Product in the torus skein algebra.

    Each pair of curve classes contributes two terms, a sum label and a
    difference label, with opposite monomial twists. The order of the
    factors matters: swapping x and y flips every twist exponent.
    """
    out_terms = {}
    out_unit = x.unit * y.unit
    if x.unit:
        for k, v in y.terms.items():
            accumulate(out_terms, k, x.unit * v)
    if y.unit:
        for k, v in x.terms.items():
            accumulate(out_terms, k, v * y.unit)
    for (p, q), cx in x.terms.items():
        for (r, s), cy in y.terms.items():
            c = cx * cy
            det = p * s - q * r
            plus = canon(p + r, q + s)
            minus = canon(p - r, q - s)
            accumulate(out_terms, plus, c.shift(det))
            if minus == (0, 0):
                out_unit = out_unit + 2 * c.shift(-det)
            else:
                accumulate(out_terms, minus, c.shift(-det))
    return FGElement._wrap(out_terms, out_unit)


def fg_chebyshev_basis(p, q, d):
    """Image of the curve (p,q) under the degree-d first-kind recurrence.

    For gcd(p,q) = 1 this equals the basis class (d*p, d*q); that identity
    is what makes the curve basis multiplicative.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    # T(0) = 2 means the constant term lands on the unit slot with weight 2
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
    scalar part last."""
    summands = [
        coeff_term(format_laurent(el.terms[key]), f"({key[0]},{key[1]})")
        for key in sorted(el.terms, reverse=True)
    ]
    if el.unit:
        summands.append(coeff_term(format_laurent(el.unit), ""))
    return join_signed(summands)


def parse_fg(text):
    """Inverse of format_fg.

    Reads a sum of `coeff*(p,q)` and scalar summands (see skeinmod.text).
    Each coefficient is a Laurent polynomial in A, in one pair of
    parentheses when it has more than one term, and is 1 when left out.
    Scalars and the class (0,0), which is the scalar 2, go to the unit slot.
    "" and "0" read as zero. Raises ValueError on anything else.
    """
    terms, unit = {}, LaurentPoly.zero()
    for sign, chunk in split_terms(text):
        coeff, m = split_coeff(chunk, _BASIS_RE)
        poly = LaurentPoly.one() if coeff is None else parse_laurent(coeff)
        poly = -poly if sign < 0 else poly
        if m is None:
            unit = unit + poly
        elif (key := canon(int(m.group(1)), int(m.group(2)))) != (0, 0):
            accumulate(terms, key, poly)
        else:
            unit = unit + 2 * poly
    return FGElement._wrap(terms, unit)
