"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element of Q(zeta_N) is stored in the power basis 1, x, ..., x^(phi-1)
of Q[x]/Phi_N(x) as a tuple of integer coordinates `num` over one common
denominator `den`. The pair is canonical: den > 0 and gcd(den, *num) == 1,
so zero is (0, ..., 0) over 1 and equal values of one order have equal
fields. All arithmetic runs on plain Python ints: products convolve the
integer vectors (term by term when an operand has few terms, otherwise as
one packed big-int product by Kronecker substitution) and then fold the
result mod Phi_N; a sum of two products, the entry of a 2x2 matrix
product, convolves twice and folds once (dot2). The inverse of a rational
value n/den is den/n at the same order, in closed form (the canonical pair
that Euclid would reach); any other inverse runs extended Euclid on
primitive integer remainders. Phi_N is built by prime steps: Phi_rp(x) =
Phi_r(x^p) / Phi_r(x) for each prime p of N, largest last, then Phi_N(x) =
Phi_rad(x^(N/rad)) for rad the product of those primes. Both those
quotients and the Euclid remainders come from laurent.pseudo_divmod, the
one integer polynomial division of the package. Mixed-order arithmetic
lifts both operands to their lcm order. One trial division, _factor, serves
totient, Phi_N and rational_sqrt_cyclotomic; phi(N) is kept with Phi_N.

Every power of zeta_N is one fold: a lift writes num(x^step) into one
vector, a Laurent evaluation adds each coefficient at its exponent mod N,
and a root of unity is a unit vector, each reduced once mod Phi_N by _fold.
No power is stored. A CycNum, a root of unity, Phi_N or a rational square
root asked for at an order above MAX_ORDER is rejected before anything is
built; orders that arithmetic reaches by lifting are not capped.
root_of_unity_with_trace scans the orders lcm(N, t) ascending, up to
MAX_ORDER, and in each only k <= m/2: zeta^k and zeta^-k have one trace.
An order is scanned through its trace table, built once by walking zeta^k
up and zeta^-k down together: the hashes of the coordinate tuples of the
traces zeta^k + zeta^-k, each mapped to the k that have it, in one dict.
A lookup confirms each k offered under the target's hash against zeta^k
and zeta^-k, folded once each, so it returns what the ascending scan would.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mul, neg, sub

from .chebyshev import positive_power
from .laurent import LaurentPoly, pseudo_divmod, trim
from .text import format_power_sum

# Above every order a certificate asks for: the largest certificate field
# that the tests, the benchmark and the documented CLI runs use is order
# 924, root_of_unity_with_trace lifts it to lcm(924, 24) = 1848, and a
# square root of a trace lives at twice that order, 3696. The trace scan
# stops at a lifted order above this cap; other lifts are not capped.
MAX_ORDER = 4096


def _check_order(n):
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"cyclotomic order must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"cyclotomic order must be positive, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"cyclotomic order {n} exceeds the limit {MAX_ORDER}")


def _factor(n):
    """{prime: exponent} of n >= 1 by trial division, primes ascending."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1
    if n > 1:
        out[n] = 1
    return out


def totient(n):
    if n < 1:
        raise ValueError("totient needs n >= 1")
    for p in _factor(n):
        n = n // p * (p - 1)
    return n


# n -> (phi(n), tail), tail the nonzero (j, c_j) with j < phi of the monic
# Phi_n = x^phi + sum c_j x^j
_CYCLO_CACHE = {}


def _spread(poly, step):
    """poly(x^step) as a constant-first list."""
    out = [0] * ((len(poly) - 1) * step + 1)
    out[::step] = poly
    return out


def _cyclo(n):
    """The _CYCLO_CACHE entry (phi(n), tail) of Phi_n, built on first use;
    not capped, since arithmetic lifts past MAX_ORDER."""
    entry = _CYCLO_CACHE.get(n)
    if entry is None:
        primes = list(_factor(n))
        rad = math.prod(primes)
        if n == 1:
            poly = [-1, 1]
        elif n != rad:
            # Phi_n(x) = Phi_rad(x^(n/rad)), rad the product of the primes of n
            poly = _spread(_cyclo_poly(rad), n // rad)
        else:
            # Phi_rp(x) = Phi_r(x^p) / Phi_r(x) for a prime p that does not
            # divide r; peeling the largest prime keeps the divisor short
            p = primes[-1]
            low = _cyclo_poly(n // p)
            mult, poly, rem = pseudo_divmod(_spread(low, p), low)
            if mult != 1 or rem:
                raise ArithmeticError(f"Phi_{n // p}(x^{p}) is not divisible by Phi_{n // p}(x)")
        tail = tuple((j, c) for j, c in enumerate(poly[:-1]) if c)
        entry = _CYCLO_CACHE[n] = (len(poly) - 1, tail)
    return entry


def _cyclo_poly(n):
    """Phi_n, constant term first, at any order n >= 1."""
    phi, tail = _cyclo(n)
    poly = [0] * phi + [1]
    for j, c in tail:
        poly[j] = c
    return poly


def cyclotomic_poly(n):
    """Coefficients of the n-th cyclotomic polynomial, constant term first,
    for an int n in 1..MAX_ORDER."""
    _check_order(n)
    return _cyclo_poly(n)


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
        tail = _cyclo(n)[1]
        for k in range(len(vec) - 1, phi - 1, -1):
            t = vec[k]
            if t:
                base = k - phi
                for j, c in tail:
                    vec[base + j] -= t * c
        del vec[phi:]
    return vec


def _inverse_mod(n, vec):
    """(t, c) with vec * t == c mod Phi_n: t an integer vector, c a nonzero int.

    Extended Euclid on primitive pseudo-remainders (pseudo_divmod). Each
    remainder r_i carries a cofactor t_i / e_i (integer vector, positive
    scalar) with r_i == (t_i / e_i) * vec mod Phi_n, kept in lowest terms so
    that only the true rational cofactor's size is ever stored.
    """
    r0 = _cyclo_poly(n)
    r1 = trim(list(vec))
    content = math.gcd(*r1)
    r1 = list(map(floordiv, r1, repeat(content)))
    t0, e0 = [], 1
    t1, e1 = [1], content  # r1 == vec / content
    while len(r1) > 1:
        mult, q, rem = pseudo_divmod(r0, r1)
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
        t0, e0, t1, e1 = t1, e1, trim(t2), e2
    # r1 == [c] == (t1 / e1) * vec
    return t1, r1[0] * e1


# ---------------------------------------------------------------------------


def _exact(q):
    """Fraction(q) for an exact rational q (an int, a Fraction, a string such
    as "3/4"); a float is refused, since its binary value is rarely the
    rational that was meant (0.1 is 3602879701896397/2^55)."""
    if isinstance(q, float):
        raise TypeError(f"exact rationals only, got the float {q!r}")
    return Fraction(q)


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
        coords = [_exact(c) for c in coords]
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
        q = _exact(q)
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
        phi = _cyclo(m)[0]
        num = self.num
        top = (len(num) - 1) * step + 1
        # num(x^step), folded once mod Phi_m
        out = [0] * max(phi, top)
        out[:top:step] = num
        # Z[zeta_m] meets Q(zeta_order) in Z[zeta_order], so the lifted
        # vector shares no factor with den that num did not: still canonical
        return _make(m, tuple(_fold(m, out, phi)), self.den)

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
        """Field inverse: den / n for a rational value n / den, at the same
        order; otherwise extended Euclid against Phi_order."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        num = self.num
        if not any(num[1:]):
            # (n / den)^-1 == den / n, canonical because gcd(den, n) == 1
            n = num[0]
            return _make(self.order, (self.den if n > 0 else -self.den, *num[1:]), abs(n))
        t, c = _inverse_mod(self.order, num)
        # (num / den)^-1 == den * t / c
        inv = [self.den * x for x in t] + [0] * (len(num) - len(t))
        return _canonical(self.order, inv, c)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        return positive_power(self, n) if n else CycNum.one().lift(self.order)

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational:
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    def as_dict(self):
        """JSON form: the order and the coordinates as reduced [num, den] pairs."""
        den = self.den
        coords = [[c // (g := math.gcd(c, den)), den // g] for c in self.num]
        return {"order": self.order, "coords": coords}

    def __str__(self):
        # a power sum in z<order>, the primitive root, exponents descending
        return format_power_sum({j: c for j, c in enumerate(self.coords) if c}, f"z{self.order}")

    def __repr__(self):
        return f"CycNum({self.order}, {list(self.coords)!r})"


def dot2(a, b, c, d):
    """a*b + c*d for CycNums a, b, c, d, at the lcm of their four orders.

    The fused kernel of a 2x2 product entry: two convolutions, the sum over
    one common denominator, then one fold mod Phi_N and one canonical form,
    where a*b + c*d would fold and normalize three times. The value and the
    order are those of a*b + c*d.
    """
    n = a.order
    if not n == b.order == c.order == d.order:
        n = math.lcm(n, b.order, c.order, d.order)
        a, b, c, d = (x if x.order == n else x.lift(n) for x in (a, b, c, d))
    u = _convolve(a.num, b.num)
    v = _convolve(c.num, d.num)
    du, dv = a.den * b.den, c.den * d.den
    if du == dv:
        num = list(map(add, u, v))
    else:
        g = math.gcd(du, dv)
        fu, fv = dv // g, du // g
        num = list(map(add, map(mul, u, repeat(fu)), map(mul, v, repeat(fv))))
        du *= fu
    return _canonical(n, _fold(n, num, len(a.num)), du)


def _check_exponent(k):
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"the exponent k must be an int, got {k!r}")


def _power(n, k, phi):
    """x^k mod Phi_n as a list of phi integer coordinates, for 0 <= k < n."""
    vec = [0] * max(phi, k + 1)
    vec[k] = 1
    return _fold(n, vec, phi)


def root_of_unity(n, k=1):
    """zeta_n^k as a CycNum of order n: the unit vector e_(k mod n), folded
    once mod Phi_n."""
    _check_order(n)
    _check_exponent(k)
    return _make(n, tuple(_power(n, k % n, _cyclo(n)[0])), 1)


def laurent_eval(p, n, k=1):
    """Evaluate an integer Laurent polynomial at A = zeta_n^k, exactly."""
    if not isinstance(p, LaurentPoly):
        raise TypeError("expected a LaurentPoly")
    _check_order(n)
    _check_exponent(k)
    acc = [0] * n
    for e, v in p.items():
        acc[(e * k) % n] += v
    return _make(n, tuple(_fold(n, acc, _cyclo(n)[0])), 1)


def rational_sqrt_cyclotomic(q):
    """A CycNum whose square is the rational q = +-a/b.

    One factorization a*b = f^2 * r, r squarefree, gives f*sqrt(r)/b.
    sqrt(2) is zeta_8 + zeta_8^-1, sqrt(p) for an odd prime p of r comes
    from the Gauss sum sum_t zeta_p^(t^2), one Laurent evaluation, and a
    factor of i absorbs signs. Before anything is built, raises ValueError
    naming the field's order when it is above MAX_ORDER: the lcm of 8 (for
    a factor 2), the odd primes of r, and 4 (for q < 0 or a prime of r that
    is 3 mod 4).
    """
    q = _exact(q)
    if q == 0:
        return CycNum.zero()
    negative = q < 0
    a, b = abs(q.numerator), q.denominator
    powers = _factor(a * b)
    f = math.prod(p ** (e // 2) for p, e in powers.items())
    primes = [p for p, e in powers.items() if e % 2]
    odd = [p for p in primes if p != 2]
    with_i = negative or any(p % 4 == 3 for p in odd)
    order = math.lcm(8 if 2 in primes else 1, 4 if with_i else 1, *odd)
    if order > MAX_ORDER:
        raise ValueError(f"sqrt({q}) needs cyclotomic order {order}, above the limit {MAX_ORDER}")
    result = CycNum.rational(Fraction(f, b))
    if 2 in primes:
        result = result * (root_of_unity(8, 1) + root_of_unity(8, 7))
    for p in odd:
        gauss = laurent_eval(LaurentPoly((t * t % p, 1) for t in range(p)), p)
        if p % 4 == 3:
            # the sum equals i*sqrt(p); peel the i off
            gauss = gauss * root_of_unity(4, 3)
        result = result * gauss
    if negative:
        result = result * root_of_unity(4, 1)
    return result


# root_of_unity_with_trace scans Q(zeta_m), m = lcm(N, t), for x of order N and each t here
_TRACE_ORDERS = (1, 4, 8, 12, 24)

# m -> {hash: ks}: each key is the hash of the coordinate tuple of some
# zeta_m^k + zeta_m^-k, k <= m/2, and its value the tuple of every such k
# with that hash, ascending; no coordinates are kept.
_TRACE_TABLES = {}


def _trace_table(m):
    """The trace table of order m (_TRACE_TABLES), built on first use by
    walking x^k up and x^-k down together, one step each per k."""
    table = _TRACE_TABLES.get(m)
    if table is None:
        phi = _cyclo(m)[0]
        xinv = _power(m, m - 1, phi)
        up = _power(m, 0, phi)
        down = list(up)
        table = {hash(tuple(map(add, up, down))): (0,)}
        for k in range(1, m // 2 + 1):
            up = _fold(m, [0, *up], phi)
            # x^-k = x^-1 * x^-(k-1): each x^j of down moves to x^(j-1), and
            # the constant term d0 becomes d0 * x^-1
            d0 = down[0]
            down = [*down[1:], 0]
            if d0:
                down = [a + d0 * b for a, b in zip(down, xinv)]
            key = hash(tuple(map(add, up, down)))
            table[key] = table.get(key, ()) + (k,)
        _TRACE_TABLES[m] = table
    return table


def _trace_hit(x):
    """(m, k, x^k, x^-k) for the first (m, k) of root_of_unity_with_trace,
    both powers as coordinate lists mod Phi_m; None when there is none."""
    if isinstance(x, (int, Fraction)):
        x = CycNum.rational(x)
    if x.den != 1:
        # a trace of a root of unity is an algebraic integer
        return None
    for m in sorted({math.lcm(x.order, t) for t in _TRACE_ORDERS}):
        if m > MAX_ORDER:
            break
        target = x.lift(m).num
        phi = len(target)
        for k in _trace_table(m).get(hash(target), ()):
            row_k = _power(m, k, phi)
            row_nk = _power(m, (m - k) % m, phi)
            if all(t == a + b for t, a, b in zip(target, row_k, row_nk)):
                return m, k, row_k, row_nk
    return None


def root_of_unity_with_trace(x):
    """Find (m, k) with zeta_m^k + zeta_m^-k equal to x, scanning bounded orders.

    Returns None when no root of unity in the scanned fields has trace x.
    The orders m = lcm(N, t) are scanned ascending, and in each only
    k <= m/2, since zeta^k and zeta^-k have one trace: the result is the
    first such (m, k). The scan stops at the first order above MAX_ORDER,
    whose table would cost m/2 folds mod Phi_m to build.

    An order is scanned through its trace table (_trace_table), built the
    first time the order is scanned: the hash of the coordinates of x at
    order m is looked up among the hashes of the traces zeta_m^k +
    zeta_m^-k, and the k with that hash, ascending, are each confirmed
    against x^k and x^-k, folded once each. The table keeps no coordinates,
    and a hash collision costs one comparison, never a wrong hit.
    """
    hit = _trace_hit(x)
    return None if hit is None else hit[:2]


def trace_roots(x):
    """(zeta, zeta^-1) for the root of unity zeta = zeta_m^k of the first
    (m, k) that root_of_unity_with_trace finds for x, both at order m; None
    when the scan finds none."""
    hit = _trace_hit(x)
    if hit is None:
        return None
    m, _k, row_k, row_nk = hit
    return _make(m, tuple(row_k), 1), _make(m, tuple(row_nk), 1)
