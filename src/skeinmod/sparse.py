"""Finite linear combinations stored as sparse dicts {key: coefficient}.

`accumulate` is the one merge rule: add into a key, drop the key when the
sum vanishes. `SparseSum` carries the arithmetic that every such
combination shares; a subclass adds its own key check, coefficient
coercion, products and text form. Coefficients come from an integral
domain (Laurent polynomials, Q(A), Gaussian rationals), so a product of
nonzero coefficients is never zero and scaled terms need no filtering.
"""

from __future__ import annotations


def accumulate(store, key, coeff):
    """store[key] += coeff, dropping the key when the sum is zero."""
    if key in store:
        s = store[key] + coeff
        if s:
            store[key] = s
        else:
            del store[key]
    elif coeff:
        store[key] = coeff


class SparseSum:
    """Base for combinations whose `terms` dict never stores a zero."""

    __slots__ = ("terms",)

    @classmethod
    def _wrap(cls, terms):
        """Adopt a dict that is already canonical: valid keys, no zero values."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __neg__(self):
        return self._wrap({k: -v for k, v in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        t = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(t, k, v)
        return self._wrap(t)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        if not c:
            return self._wrap({})
        return self._wrap({k: v * c for k, v in self.terms.items()})
