"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element of Q(zeta_N) is stored in the power basis 1, x, ..., x^(phi-1)
of Q[x]/Phi_N(x) as a tuple of integer coordinates `num` over one common
denominator `den`. The pair is canonical: den > 0 and gcd(den, *num) == 1,
so zero is (0, ..., 0) over 1 and equal values of one order have equal
fields. All arithmetic runs on plain Python ints: products convolve the
integer vectors (term by term when an operand has few terms, otherwise as
one packed big-int product by Kronecker substitution) and then fold the
result mod Phi_N; inverses run extended Euclid on primitive integer
remainders. Mixed-order arithmetic lifts both operands to the lcm order
automatically, so callers can treat roots of unity of different orders as
living in one big field.

A CycNum or root of unity asked for at an order above MAX_ORDER is
rejected before any table is built: the power rows of zeta_N hold phi(N)
integers each, phi(N) rows to start with and up to N rows once traces are
scanned. Orders that arithmetic reaches by lifting are not capped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mul, neg, sub

from .laurent import LaurentPoly
from .text import format_power_sum

# Above every order a certificate asks for: the largest certificate field
# that the tests, the benchmark and the documented CLI runs use is order
# 924, root_of_unity_with_trace lifts it to lcm(924, 24) = 1848, and a
# square root of a trace lives at twice that order, 3696.
MAX_ORDER = 4096


def _check_order(n):
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"cyclotomic order must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"cyclotomic order must be positive, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"cyclotomic order {n} exceeds the limit {MAX_ORDER}")


def totient(n):
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _dense_divexact(num, den):
    # integer polynomial division known to be exact; lists are constant-first
    num = list(num)
    dlead = den[-1]
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1]
        if coef % dlead:
            raise ValueError("inexact polynomial division")
        q = coef // dlead
        out[shift] = q
        if q:
            for i, dv in enumerate(den):
                num[shift + i] -= q * dv
    if any(num):
        raise ValueError("inexact polynomial division")
    return out


# n -> nonzero (j, c_j) with j < phi(n) of the monic Phi_n = x^phi + sum c_j x^j
_CYCLO_CACHE = {}


def _cyclo_tail(n):
    tail = _CYCLO_CACHE.get(n)
    if tail is None:
        poly = [-1] + [0] * (n - 1) + [1]
        # divide x^n - 1 by the cyclotomic polynomials of the proper divisors
        for d in range(1, n):
            if n % d == 0:
                poly = _dense_divexact(poly, cyclotomic_poly(d))
        tail = _CYCLO_CACHE[n] = tuple((j, c) for j, c in enumerate(poly[:-1]) if c)
    return tail


def cyclotomic_poly(n):
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("cyclotomic_poly needs n >= 1")
    tail = _cyclo_tail(n)
    poly = [0] * (totient(n) + 1)
    poly[-1] = 1
    for j, c in tail:
        poly[j] = c
    return poly


_ROW_CACHE = {}


def _zeta_rows(n, upto):
    """Integer coordinate rows of x^k mod Phi_n for k = 0..upto."""
    rows = _ROW_CACHE.get(n)
    if rows is None:
        phi = totient(n)
        rows = _ROW_CACHE[n] = [tuple(1 if j == k else 0 for j in range(phi)) for k in range(phi)]
    if len(rows) <= upto:
        tail = _cyclo_tail(n)
        while len(rows) <= upto:
            prev = rows[-1]
            shifted = [0, *prev[:-1]]
            t = prev[-1]
            if t:
                # x^phi = -(c_0 + ... + c_{phi-1} x^{phi-1})
                for j, c in tail:
                    shifted[j] -= t * c
            rows.append(tuple(shifted))
    return rows


# ---------------------------------------------------------------------------
# integer polynomial kernels; vectors are constant-first lists or tuples


def _pack(vec, width):
    """vec evaluated at x = 2^width, as one (signed) Python int."""
    packed = 0
    for c in reversed(vec):
        packed = (packed << width) + c
    return packed


def _unpack(packed, nbytes, count):
    """Inverse of _pack at width 8 * nbytes, for `count` digits that each
    lie strictly between -2^(width-1) and 2^(width-1)."""
    width = 8 * nbytes
    half = 1 << (width - 1)
    # adding half to every digit makes each one nonnegative, so the bytes
    # of the sum split into the digits with no borrows between them
    packed += half * (((1 << (width * count)) - 1) // ((1 << width) - 1))
    raw = packed.to_bytes(nbytes * count, "little")
    return [int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, len(raw), nbytes)]


def _convolve(u, v):
    """Integer polynomial product u * v as a list of length len(u) + len(v) - 1."""
    terms_u = len(u) - u.count(0)
    terms_v = len(v) - v.count(0)
    # Term-by-term costs one Python step per pair of nonzero terms; the
    # packed product costs a few per coefficient of u, v and the result.
    if terms_u * terms_v <= 2 * (len(u) + len(v)):
        conv = [0] * (len(u) + len(v) - 1)
        if not terms_u or not terms_v:
            return conv
        v_terms = [(j, y) for j, y in enumerate(v) if y]
        for i, x in enumerate(u):
            if x:
                for j, y in v_terms:
                    conv[i + j] += x * y
        return conv
    # Kronecker substitution: a coefficient of the product sums at most
    # min(terms) products, so |coefficient| <= bound, and one more bit for
    # the sign keeps the digits of the packed product apart.
    bound = max(map(abs, u)) * max(map(abs, v)) * min(terms_u, terms_v)
    nbytes = (bound.bit_length() + 8) // 8
    width = 8 * nbytes
    return _unpack(_pack(u, width) * _pack(v, width), nbytes, len(u) + len(v) - 1)


def _fold(n, vec, phi):
    """Reduce an integer coefficient list mod Phi_n in place; returns it cut to phi."""
    if len(vec) > phi:
        tail = _cyclo_tail(n)
        for k in range(len(vec) - 1, phi - 1, -1):
            t = vec[k]
            if t:
                base = k - phi
                for j, c in tail:
                    vec[base + j] -= t * c
        del vec[phi:]
    return vec


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _inverse_mod(n, vec):
    """(t, c) with vec * t == c mod Phi_n: t an integer vector, c a nonzero int.

    Extended Euclid on primitive integer remainders. Each remainder r_i
    carries a cofactor t_i / e_i (integer vector, positive scalar) with
    r_i == (t_i / e_i) * vec mod Phi_n, kept in lowest terms so that only
    the true rational cofactor's size is ever stored.
    """
    r0 = cyclotomic_poly(n)
    r1 = _trim(list(vec))
    content = math.gcd(*r1)
    r1 = list(map(floordiv, r1, repeat(content)))
    t0, e0 = [], 1
    t1, e1 = [1], content  # r1 == vec / content
    while len(r1) > 1:
        # pseudo-division: mult * r0 == q * r1 + rem
        lc = r1[-1]
        size = len(r1)
        rem = list(r0)
        q = [0] * (len(rem) - size + 1)
        mult = 1
        while len(rem) >= size:
            g = math.gcd(rem[-1], lc)
            a, b = lc // g, rem[-1] // g
            if a != 1:
                rem = list(map(mul, rem, repeat(a)))
                q = list(map(mul, q, repeat(a)))
                mult *= a
            shift = len(rem) - size
            q[shift] += b
            rem[shift:] = map(sub, rem[shift:], map(mul, r1, repeat(b)))
            rem.pop()
            _trim(rem)
        if not rem:
            raise ArithmeticError("cyclotomic polynomial not coprime to element")
        g = math.gcd(*rem)
        rem = list(map(floordiv, rem, repeat(g)))
        # rem == (mult * t0 / e0 - q * t1 / e1) / g * vec
        common = math.lcm(e0, e1)
        qt = _convolve(q, t1)
        t2 = list(map(mul, t0, repeat(mult * (common // e0))))
        t2 += [0] * (len(qt) - len(t2))
        t2[: len(qt)] = map(sub, t2, map(mul, qt, repeat(common // e1)))
        e2 = common * g
        h = math.gcd(e2, *t2)
        if h != 1:
            e2 //= h
            t2 = list(map(floordiv, t2, repeat(h)))
        r0, r1 = r1, rem
        t0, e0, t1, e1 = t1, e1, _trim(t2), e2
    # r1 == [c] == (t1 / e1) * vec
    return t1, r1[0] * e1


# ---------------------------------------------------------------------------


def _make(order, num, den):
    """CycNum from a canonical (num tuple, den) pair, unchecked."""
    x = object.__new__(CycNum)
    x.order = order
    x.num = num
    x.den = den
    return x


def _canonical(order, num, den):
    """CycNum from an integer vector over a nonzero integer denominator."""
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = math.gcd(den, *num) if den != 1 else 1
    if g != 1:
        den //= g
        num = [c // g for c in num]
    return _make(order, tuple(num), den)


class CycNum:
    """Element of Q(zeta_order) in the power basis, as integer coordinates
    `num` over one positive denominator `den` with gcd(den, *num) == 1.
    Deliberately unhashable: equal values can carry different orders, so
    identity-based hashing would be a trap."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coords):
        _check_order(order)
        phi = totient(order)
        coords = [Fraction(c) for c in coords]
        if len(coords) != phi:
            raise ValueError(f"order {order} needs {phi} coordinates, got {len(coords)}")
        # the lcm of the reduced denominators leaves no common factor
        den = math.lcm(*[c.denominator for c in coords])
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @property
    def coords(self):
        """Coordinates in the power basis, as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @classmethod
    def rational(cls, q):
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @classmethod
    def zero(cls):
        return _make(1, (0,), 1)

    @classmethod
    def one(cls):
        return _make(1, (1,), 1)

    @property
    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    __hash__ = None

    def lift(self, m):
        """Rewrite in Q(zeta_m); m must be a multiple of the current order."""
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError("can only lift to a multiple of the order")
        step = m // self.order
        rows = _zeta_rows(m, (len(self.num) - 1) * step)
        phi = len(rows[0])
        out = [0] * phi
        for j, c in enumerate(self.num):
            if c:
                k = j * step
                if k < phi:
                    out[k] += c
                else:
                    for idx, r in enumerate(rows[k]):
                        if r:
                            out[idx] += c * r
        # Z[zeta_m] meets Q(zeta_order) in Z[zeta_order], so the lifted
        # vector shares no factor with den that num did not: still canonical
        return _make(m, tuple(out), self.den)

    def _pair(self, other):
        if not isinstance(other, CycNum):
            if not isinstance(other, (int, Fraction)):
                return None, None
            other = CycNum.rational(other)
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.den == b.den and a.num == b.num

    def __neg__(self):
        return _make(self.order, tuple(map(neg, self.num)), self.den)

    def _combine(self, other, op):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _canonical(a.order, list(map(op, a.num, b.num)), da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        num = map(op, map(mul, a.num, repeat(fa)), map(mul, b.num, repeat(fb)))
        return _canonical(a.order, list(num), da * fa)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b - a

    def __mul__(self, other):
        if not isinstance(other, CycNum) and isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return _canonical(
                self.order, list(map(mul, self.num, repeat(q.numerator))), self.den * q.denominator
            )
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        den = a.den * b.den
        if a.order == 1:
            n = a.num[0] * b.num[0]
            g = math.gcd(n, den)
            return _make(1, (n // g,), den // g)
        return _canonical(a.order, _fold(a.order, _convolve(a.num, b.num), len(a.num)), den)

    __rmul__ = __mul__

    def inverse(self):
        """Field inverse via extended Euclid against Phi_order."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.order == 1:
            n = self.num[0]
            return _make(1, (self.den if n > 0 else -self.den,), abs(n))
        t, c = _inverse_mod(self.order, self.num)
        # (num / den)^-1 == den * t / c
        phi = len(self.num)
        num = [self.den * x for x in t] + [0] * (phi - len(t))
        return _canonical(self.order, num, c)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError
            return _canonical(
                self.order, list(map(mul, self.num, repeat(q.denominator))), self.den * q.numerator
            )
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b * a.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        result = CycNum.one().lift(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational:
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    def __str__(self):
        # a power sum in z<order>, the primitive root, exponents descending
        return format_power_sum({j: c for j, c in enumerate(self.coords) if c}, f"z{self.order}")

    def __repr__(self):
        return f"CycNum({self.order}, {list(self.coords)!r})"


def root_of_unity(n, k=1):
    """zeta_n^k as a CycNum of order n."""
    _check_order(n)
    k %= n
    return _make(n, _zeta_rows(n, k)[k], 1)


def laurent_eval(p, n, k=1):
    """Evaluate an integer Laurent polynomial at A = zeta_n^k, exactly."""
    if not isinstance(p, LaurentPoly):
        raise TypeError("expected a LaurentPoly")
    _check_order(n)
    needed = {(e * k) % n for e, _ in p.items()}
    rows = _zeta_rows(n, max(needed, default=0))
    acc = [0] * len(rows[0])
    for e, v in p.items():
        for idx, r in enumerate(rows[(e * k) % n]):
            if r:
                acc[idx] += v * r
    return _make(n, tuple(acc), 1)


def _squarefree_decompose(m):
    # m = f^2 * r with r squarefree; m >= 1
    f, r = 1, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            f *= p ** (e // 2)
            if e % 2:
                r *= p
        p += 1
    if m > 1:
        r *= m
    return f, r


def rational_sqrt_cyclotomic(q):
    """A CycNum whose square is the rational q.

    sqrt(2) comes from zeta_8 + zeta_8^-1, odd primes from quadratic Gauss
    sums, and a factor of i absorbs negative signs.
    """
    q = Fraction(q)
    if q == 0:
        return CycNum.zero()
    negative = q < 0
    a, b = abs(q.numerator), q.denominator
    # sqrt(a/b) = sqrt(a*b)/b
    f, r = _squarefree_decompose(a * b)
    result = CycNum.rational(Fraction(f, b))
    if r % 2 == 0:
        r //= 2
        s8 = root_of_unity(8, 1) + root_of_unity(8, 7)
        result = result * s8
    p = 3
    while r > 1:
        if r % p == 0:
            r //= p
            gauss = CycNum(p, [Fraction(0)] * totient(p))
            for t in range(p):
                gauss = gauss + root_of_unity(p, (t * t) % p)
            if p % 4 == 3:
                # the sum equals i*sqrt(p); peel the i off
                gauss = gauss * root_of_unity(4, 3)
            result = result * gauss
        p += 2
    if negative:
        result = result * root_of_unity(4, 1)
    return result


def root_of_unity_with_trace(x, extra_orders=(1, 4, 8, 12, 24)):
    """Find (m, k) with zeta_m^k + zeta_m^-k equal to x, scanning bounded orders.

    Returns None when no root of unity in the scanned fields has trace x.
    """
    if isinstance(x, (int, Fraction)):
        x = CycNum.rational(x)
    if x.den != 1:
        # a trace of a root of unity is an algebraic integer
        return None
    seen = set()
    for mult in extra_orders:
        m = math.lcm(x.order, mult)
        if m in seen:
            continue
        seen.add(m)
        target = x.lift(m).num
        rows = _zeta_rows(m, m - 1)
        for k in range(m):
            row_k = rows[k]
            row_nk = rows[(m - k) % m]
            if all(t == a + b for t, a, b in zip(target, row_k, row_nk)):
                return m, k
    return None
