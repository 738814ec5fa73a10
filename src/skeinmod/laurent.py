"""Laurent polynomials in one variable A over Z, and their fraction field.

LaurentPoly is the coefficient ring for skein algebra computations: exact
integer coefficients, arbitrary positive and negative exponents, stored as
a sparse.SparseSum over exponent keys, so it shares its merge, negation
and equality code with the other linear combinations of the package.
LaurentFraction is Q(A) in canonical reduced form. No elimination uses it;
it holds the fractional coefficients that parse_module_element reads for
f12-reduce, and it stays as the one Q(A) path of the package. Its gcd
(laurent_gcd) and exact division (divexact) run on pseudo_divmod, the one
integer polynomial division, which CycNum.inverse and cyclotomic_poly in
skeinmod.cyclotomic share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mul, sub

from .chebyshev import poly_eval, positive_power
from .sparse import SparseSum
from .text import format_power_sum, parse_power_sum, strip_parens


class LaurentPoly(SparseSum):
    """Integer Laurent polynomial: `terms` maps exponents to nonzero ints.
    Immutable; ints coerce to constants on either side of +, -, * and ==."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for exp, coeff in items:
                if not isinstance(exp, int) or not isinstance(coeff, int):
                    raise TypeError("exponents and coefficients must be int")
                if coeff:
                    c[exp] = c.get(exp, 0) + coeff
                    if not c[exp]:
                        del c[exp]
        self.terms = c

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.from_int(other)
        return other if isinstance(other, LaurentPoly) else None

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def from_int(cls, n):
        return cls({0: n})

    @classmethod
    def monomial(cls, coeff, exp):
        return cls({exp: coeff})

    @classmethod
    def A(cls, exp=1):
        """The monomial A^exp."""
        if not isinstance(exp, int):
            raise TypeError("exponents and coefficients must be int")
        return cls._wrap({exp: 1})

    def items(self):
        return self.terms.items()

    @property
    def min_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no degree span")
        return min(self.terms)

    @property
    def max_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no degree span")
        return max(self.terms)

    def coeff(self, exp):
        return self.terms.get(exp, 0)

    # bound here too: perfbench/tracer.py wraps them from this class's __dict__
    __add__ = __radd__ = SparseSum.__add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in o.terms.items():
                e = e1 + e2
                s = c.get(e, 0) + v1 * v2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        return LaurentPoly._wrap(c)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer powers only")
        return positive_power(self, n) if n else LaurentPoly.one()

    def shift(self, k):
        """Multiply by A^k."""
        # distinct exponents stay distinct and no value changes
        return LaurentPoly._wrap({e + k: v for e, v in self.terms.items()})

    def eval_unit(self, u):
        """Evaluate at A = u for u in {1, -1}."""
        if u not in (1, -1):
            raise ValueError("eval_unit expects 1 or -1")
        total = 0
        for e, v in self.terms.items():
            total += v if (u == 1 or e % 2 == 0) else -v
        return total

    def eval_at(self, x, xinv, one):
        """Evaluate as a ring homomorphism, A -> x, A^-1 -> xinv."""
        pos = {e: c for e, c in self.terms.items() if e >= 0}
        neg = {-e: c for e, c in self.terms.items() if e < 0}
        return poly_eval(pos, x, one) + poly_eval(neg, xinv, one)

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


def format_laurent(p):
    """Render as a sum of +-c*A^k terms, exponents descending; "0" for zero."""
    return format_power_sum(p.terms, "A")


def parse_laurent(text):
    """Inverse of format_laurent: a power sum in A (see skeinmod.text).

    "" and "0" read as zero. Raises ValueError on anything else that is not
    a sum of `c*A^k`, `A^k` and `c` terms, such as "A +", "+A" or "2**A".
    """
    return LaurentPoly(parse_power_sum(text, "A"))


def trim(poly):
    """Drop the trailing zeros of a constant-first list in place; returns it."""
    while poly and not poly[-1]:
        poly.pop()
    return poly


def pseudo_divmod(a, b):
    """(mult, q, rem) with mult * a == q * b + rem and len(rem) < len(b).

    a and b are constant-first integer lists, b trimmed and nonzero; q and
    rem are lists, rem trimmed. Each step scales by the least positive
    factor that cancels the leading terms, so mult > 0, and mult == 1
    exactly when b divides a over Z. This is the one integer polynomial
    division in the package: Laurent gcds and exact quotients, cyclotomic
    polynomials and CycNum inverses all run through it.
    """
    lc = b[-1]
    sign = -1 if lc < 0 else 1
    size = len(b)
    rem = trim(list(a))
    q = [0] * max(len(rem) - size + 1, 0)
    mult = 1
    while len(rem) >= size:
        g = sign * math.gcd(rem[-1], lc)  # the sign of lc, so s > 0
        s, f = lc // g, rem[-1] // g
        if s != 1:
            rem = list(map(mul, rem, repeat(s)))
            q = list(map(mul, q, repeat(s)))
            mult *= s
        shift = len(rem) - size
        q[shift] += f
        rem[shift:] = map(sub, rem[shift:], map(mul, b, repeat(f)))
        rem.pop()
        trim(rem)
    return mult, q, rem


def _dense(p):
    # (A^-min_exp * p) as a constant-first list; [] for zero
    low = min(p.terms, default=0)
    out = [0] * (max(p.terms, default=-1) - low + 1)
    for e, v in p.terms.items():
        out[e - low] = v
    return out


def _primitive(vec):
    return list(map(floordiv, vec, repeat(math.gcd(*vec)))) if any(vec) else []


def laurent_gcd(p, q):
    """Primitive gcd in Z[A^(+-1)], normalized to min_exp 0, positive lowest coefficient.

    Euclid on primitive pseudo-remainders. With a zero argument the other
    one is returned primitive and normalized the same way; the gcd of two
    zeros is zero.
    """
    if p and q:
        a, b = _primitive(_dense(p)), _primitive(_dense(q))
        while b:
            a, b = b, _primitive(pseudo_divmod(a, b)[2])
    else:
        a = _primitive(_dense(p or q))
    # a divides a polynomial with a nonzero constant term, so a[0] != 0
    sign = -1 if a and a[0] < 0 else 1
    return LaurentPoly._wrap({e: sign * v for e, v in enumerate(a) if v})


def divexact(p, q):
    """Exact division in Z[A^(+-1)]; raises ValueError if q does not divide p."""
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return LaurentPoly.zero()
    mult, quo, rem = pseudo_divmod(_dense(p), _dense(q))
    if mult != 1 or rem:
        raise ValueError("not an exact division")
    low = p.min_exp - q.min_exp
    return LaurentPoly._wrap({e + low: v for e, v in enumerate(quo) if v})


class LaurentFraction:
    """Element of Q(A) as a canonical ratio of integer Laurent polynomials.

    Canonical form: numerator and denominator share no polynomial factor,
    their integer contents are coprime, and the denominator has lowest
    exponent 0 with positive lowest coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.from_int(num)
        if isinstance(num, Fraction):
            den2 = LaurentPoly.from_int(num.denominator)
            num = LaurentPoly.from_int(num.numerator)
            den = den2 if den is None else den * den2
        if den is None:
            den = LaurentPoly.one()
        if isinstance(den, int):
            den = LaurentPoly.from_int(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        # cancel the gcd on the dense forms; the gcd is primitive, so both
        # quotients are exact over Z, and den's constant term stays nonzero
        g = _dense(laurent_gcd(num, den))
        n = pseudo_divmod(_dense(num), g)[1]
        d = pseudo_divmod(_dense(den), g)[1]
        # the common content, signed to make den's lowest coefficient positive
        c = math.gcd(*n, *d) if d[0] > 0 else -math.gcd(*n, *d)
        # den gets lowest exponent 0; num carries the shift
        shift = num.min_exp - den.min_exp
        self.num = LaurentPoly._wrap({e + shift: v // c for e, v in enumerate(n) if v})
        self.den = LaurentPoly._wrap({e: v // c for e, v in enumerate(d) if v})

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls):
        return cls(LaurentPoly.one())

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return LaurentFraction(other)
        if isinstance(other, LaurentFraction):
            return other
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    def __neg__(self):
        f = LaurentFraction.__new__(LaurentFraction)
        f.num = -self.num
        f.den = self.den
        return f

    def shift(self, k):
        """Multiply by A^k. A is a unit, so the shifted numerator over the
        same denominator is still canonical and no gcd runs."""
        f = LaurentFraction.__new__(LaurentFraction)
        f.num = self.num.shift(k)
        f.den = self.den
        return f

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero in Q(A)")
        return LaurentFraction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __str__(self):
        if self.den == LaurentPoly.one():
            return format_laurent(self.num)
        return f"({format_laurent(self.num)})/({format_laurent(self.den)})"

    def __repr__(self):
        return f"LaurentFraction({self.num!r}, {self.den!r})"


def parse_laurent_fraction(text):
    """Inverse of str(LaurentFraction): `(num)/(den)` or a Laurent polynomial.

    num and den are Laurent polynomials, each in its own parentheses with
    nothing between them and "/"; a plain polynomial may be wrapped in one
    pair of parentheses. Raises ValueError on junk and on a zero denominator.
    """
    s = text.strip()
    num, slash, den = s.partition("/")
    if not slash:
        return LaurentFraction(parse_laurent(strip_parens(s)))
    n, d = strip_parens(num), strip_parens(den)
    if n == num or d == den:
        raise ValueError(f"expected (num)/(den), got {text!r}")
    num, den = parse_laurent(n), parse_laurent(d)
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return LaurentFraction(num, den)
