"""Gaussian rationals Q(i), used for coefficient work at A = sqrt(-1)."""

from __future__ import annotations

from fractions import Fraction

from .chebyshev import positive_power
from .text import coeff_term, join_signed


class GaussRat:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def i(cls):
        return cls(0, 1)

    @classmethod
    def one(cls):
        return cls(1, 0)

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self):
        return not self.re and not self.im

    def __bool__(self):
        return not self.is_zero

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussRat(other)
        if isinstance(other, GaussRat):
            return other
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self):
        return GaussRat(self.re, -self.im)

    def norm(self):
        """re^2 + im^2, a nonnegative Fraction."""
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        return positive_power(self, n) if n else GaussRat.one()

    def __str__(self):
        return join_signed(coeff_term(str(c), label) for c, label in ((self.re, ""), (self.im, "i")) if c)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


def laurent_at_i(p):
    """Evaluate an integer Laurent polynomial at A = i."""
    # i^k cycles with period 4; bucket the exponents instead of powering
    re = Fraction(0)
    im = Fraction(0)
    for e, v in p.items():
        r = e % 4
        if r == 0:
            re += v
        elif r == 1:
            im += v
        elif r == 2:
            re -= v
        else:
            im -= v
    return GaussRat(re, im)
