"""Gaussian rationals Q(i) = Q(zeta_4), the coefficient field at A = sqrt(-1).

GaussRat is a constructor, not a separate arithmetic: GaussRat(re, im) is
the order-4 CycNum with power-basis coordinates (re, im), because zeta_4 = i.
Every operation is CycNum's, so sums, products and inverses are CycNum
values and mix freely with the other cyclotomic orders.
"""

from __future__ import annotations

from .cyclotomic import CycNum


class GaussRat(CycNum):
    """re + im*i with exact rational re, im, as a CycNum of order 4."""

    __slots__ = ()

    def __init__(self, re=0, im=0):
        super().__init__(4, (re, im))

    @classmethod
    def i(cls):
        return cls(0, 1)

    # bound here too: perfbench/tracer.py wraps them from this class's __dict__
    __mul__ = __rmul__ = CycNum.__mul__
    inverse = CycNum.inverse
