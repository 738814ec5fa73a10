"""Laurent polynomials in one variable A over Z, and their fraction field.

LaurentPoly is the coefficient ring for skein algebra computations: exact
integer coefficients, arbitrary positive and negative exponents.
LaurentFraction is Q(A) in canonical reduced form. No elimination uses it;
it holds the fractional coefficients that parse_module_element reads for
f12-reduce.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chebyshev import poly_eval
from .text import format_power_sum, parse_power_sum, strip_parens


class LaurentPoly:
    """Integer Laurent polynomial. Immutable; zero coefficients never stored."""

    __slots__ = ("_c",)

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
        self._c = c

    @classmethod
    def _wrap(cls, c):
        """Adopt a dict that is already canonical: int keys, nonzero int values."""
        p = object.__new__(cls)
        p._c = c
        return p

    @classmethod
    def zero(cls):
        return cls()

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
        return self._c.items()

    @property
    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    __hash__ = None

    @property
    def min_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no degree span")
        return min(self._c)

    @property
    def max_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no degree span")
        return max(self._c)

    def coeff(self, exp):
        return self._c.get(exp, 0)

    def content(self):
        """gcd of the coefficients, 0 for the zero polynomial."""
        g = 0
        for v in self._c.values():
            g = math.gcd(g, v)
        return g

    def __neg__(self):
        return LaurentPoly._wrap({e: -v for e, v in self._c.items()})

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.from_int(other)
        if isinstance(other, LaurentPoly):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in o._c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return LaurentPoly._wrap(c)

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
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in o._c.items():
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
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by A^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    def eval_unit(self, u):
        """Evaluate at A = u for u in {1, -1}."""
        if u not in (1, -1):
            raise ValueError("eval_unit expects 1 or -1")
        total = 0
        for e, v in self._c.items():
            total += v if (u == 1 or e % 2 == 0) else -v
        return total

    def eval_at(self, x, xinv, one):
        """Evaluate as a ring homomorphism, A -> x, A^-1 -> xinv."""
        pos = {e: c for e, c in self._c.items() if e >= 0}
        neg = {-e: c for e, c in self._c.items() if e < 0}
        return poly_eval(pos, x, one) + poly_eval(neg, xinv, one)

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return f"LaurentPoly({self._c!r})"


def format_laurent(p):
    """Render as a sum of +-c*A^k terms, exponents descending; "0" for zero."""
    return format_power_sum(p._c, "A")


def parse_laurent(text):
    """Inverse of format_laurent: a power sum in A (see skeinmod.text).

    "" and "0" read as zero. Raises ValueError on anything else that is not
    a sum of `c*A^k`, `A^k` and `c` terms, such as "A +", "+A" or "2**A".
    """
    return LaurentPoly(parse_power_sum(text, "A"))


def _to_dense(p):
    # ordinary integer polynomial as a list, constant first; p must have min_exp >= 0
    if p.is_zero:
        return []
    out = [0] * (p.max_exp + 1)
    for e, v in p.items():
        out[e] = v
    return out


def _primitive(vec):
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    if g == 0:
        return []
    return [v // g for v in vec]


def _poly_gcd_dense(a, b):
    # primitive gcd of integer polynomial coefficient lists via Fraction Euclid
    a = _primitive(a)
    b = _primitive(b)
    while b:
        fa = [Fraction(x) for x in a]
        fb = [Fraction(x) for x in b]
        # remainder of fa by fb
        while len(fa) >= len(fb) and any(fa):
            while fa and fa[-1] == 0:
                fa.pop()
            if len(fa) < len(fb):
                break
            factor = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, coef in enumerate(fb):
                fa[i + shift] -= factor * coef
            while fa and fa[-1] == 0:
                fa.pop()
        den = math.lcm(*[f.denominator for f in fa]) if fa else 1
        r = [int(f * den) for f in fa]
        a, b = b, _primitive(r)
    return a


def laurent_gcd(p, q):
    """Primitive gcd in Z[A^(+-1)], normalized to min_exp 0, positive lowest coefficient."""
    if p.is_zero:
        base = q
    elif q.is_zero:
        base = p
    else:
        a = _to_dense(p.shift(-p.min_exp))
        b = _to_dense(q.shift(-q.min_exp))
        g = _poly_gcd_dense(a, b)
        base = LaurentPoly({i: v for i, v in enumerate(g)})
    if base.is_zero:
        return base
    base = base.shift(-base.min_exp)
    if base.coeff(base.min_exp) < 0:
        base = -base
    return base


def divexact(p, q):
    """Exact division in Z[A^(+-1)]; raises if q does not divide p."""
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return LaurentPoly.zero()
    rem = dict(p._c)
    qlow = q.min_exp
    qlead = q.coeff(qlow)
    # an exact quotient cannot have exponents above this
    top = p.max_exp - q.max_exp
    out = {}
    while rem:
        e = min(rem)
        v = rem[e]
        if v % qlead or e - qlow > top:
            raise ValueError("not an exact division")
        factor = v // qlead
        shift = e - qlow
        out[shift] = factor
        for qe, qv in q.items():
            key = qe + shift
            s = rem.get(key, 0) - factor * qv
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return LaurentPoly(out)


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
        g = laurent_gcd(num, den)
        if not (g == LaurentPoly.one()):
            num = divexact(num, g)
            den = divexact(den, g)
        # shift denominator to lowest exponent 0, fold the shift into num
        num = num.shift(-den.min_exp)
        den = den.shift(-den.min_exp)
        if den.coeff(0) < 0:
            num, den = -num, -den
        cg = math.gcd(num.content(), den.content())
        if cg > 1:
            num = LaurentPoly({e: v // cg for e, v in num.items()})
            den = LaurentPoly({e: v // cg for e, v in den.items()})
        self.num = num
        self.den = den

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
