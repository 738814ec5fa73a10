"""Finite linear combinations stored as sparse dicts {key: coefficient}.

`accumulate` is the one merge rule: add into a key, drop the key when the
sum vanishes. `SparseSum` carries the arithmetic that every such
combination shares: Laurent polynomials (exponent keys, int coefficients),
torus skein elements (curve labels, with the empty-link scalar under the
key ()), handlebody polynomials and boundary-module elements. A subclass
adds its own key check, coefficient coercion (`_coerce`), products and
text form. Coefficients come from an integral domain (Z, Laurent
polynomials, Q(A), cyclotomic numbers), so a product of nonzero
coefficients is never zero and scaled terms need no filtering.
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

    def _coerce(self, other):
        """`other` as an instance of this class, or None when it does not
        convert. An instance method: a classmethod call costs more per call."""
        return other if isinstance(other, type(self)) else None

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None

    def __neg__(self):
        return self._wrap({k: -v for k, v in self.terms.items()})

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = dict(self.terms)
        for k, v in o.terms.items():  # accumulate's rule, without a call per term
            s = t[k] + v if k in t else v
            if s:
                t[k] = s
            else:
                del t[k]
        return self._wrap(t)

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

    def scale(self, c):
        if not c:
            return self._wrap({})
        return self._wrap({k: v * c for k, v in self.terms.items()})
