"""Exact 2x2 matrices over cyclotomic fields, subalgebra closures, and the
trace machinery for representation certificates.

A matrix product computes each entry with one fused kernel,
`cyclotomic.dot2(a, b, c, d) == a*b + c*d` (two convolutions, one fold mod
Phi_N and one canonical form), and so does the determinant; each entry
keeps the lcm of its four operands' orders, as a*b + c*d would. Powers
start from the base, not from the identity (`chebyshev.positive_power`).

Subalgebras of M2 are classified against the named ones: diagonal (D), upper
and lower triangular (U, L), the Jordan line spanned by I and E12 (J), all
of M2, or OTHER. `algebra_dim` gives the dimension of the unital algebra
that 2x2 matrices generate from one commutator and the trace form, with no
field inverse and no matrix product; below M2, I and the generators span
that algebra, so only an OTHER basis needs a `linalg.FieldEchelon`. An
eigenvector is the kernel vector of the reduced echelon form of t - lam,
in closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .chebyshev import positive_power
from .cyclotomic import (
    CycNum,
    dot2,
    rational_sqrt_cyclotomic,
    root_of_unity,
    root_of_unity_with_trace,
    trace_roots,
)
from .linalg import FieldEchelon


def _cyc(v):
    if isinstance(v, CycNum):
        return v
    if isinstance(v, (int, Fraction)):
        return CycNum.rational(v)
    raise TypeError(f"cannot use {type(v).__name__} as a matrix entry")


class Mat2:
    """[[a, b], [c, d]] with CycNum entries; int and Fraction entries coerce."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = _cyc(a)
        self.b = _cyc(b)
        self.c = _cyc(c)
        self.d = _cyc(d)

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, x, y):
        return cls(x, 0, 0, y)

    @classmethod
    def from_columns(cls, v1, v2):
        return cls(v1[0], v2[0], v1[1], v2[1])

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def order(self):
        n = 1
        for e in self.entries:
            n = math.lcm(n, e.order)
        return n

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return all(x == y for x, y in zip(self.entries, other.entries))

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            a, b, c, d = self.a, self.b, self.c, self.d
            e, f, g, h = other.a, other.b, other.c, other.d
            return Mat2(dot2(a, e, b, g), dot2(a, f, b, h), dot2(c, e, d, g), dot2(c, f, d, h))
        if isinstance(other, (int, Fraction, CycNum)):
            return Mat2(self.a * other, self.b * other, self.c * other, self.d * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return Mat2(self.a * other, self.b * other, self.c * other, self.d * other)
        return NotImplemented

    def trace(self):
        return self.a + self.d

    def det(self):
        return dot2(self.a, self.d, -self.b, self.c)

    def inverse(self):
        """adj(m) / det(m). When det is exactly 1 that is the adjugate
        (d, -b, -c, a) with each entry lifted to det's order, the entries
        and orders that d * det.inverse() gives, with no field inverse and
        no product."""
        det = self.det()
        if det.den == 1 and det.num[0] == 1 and not any(det.num[1:]):
            n = det.order
            return Mat2(self.d.lift(n), (-self.b).lift(n), (-self.c).lift(n), self.a.lift(n))
        if det.is_zero:
            raise ZeroDivisionError("singular matrix")
        inv = det.inverse()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        return positive_power(self, n) if n else Mat2.identity()

    def is_scalar(self):
        return self.b.is_zero and self.c.is_zero and self.a == self.d

    def is_central_sl2(self):
        """True iff equal to +-I."""
        return self.is_scalar() and (self.a == 1 or self.a == -1)

    def __repr__(self):
        return f"Mat2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


SubalgebraClass = namedtuple("SubalgebraClass", ["tag", "basis", "dim"])

_E11 = (1, 0, 0, 0)
_E12 = (0, 1, 0, 0)
_E21 = (0, 0, 1, 0)
_E22 = (0, 0, 0, 1)

_CANONICAL_BASIS = {
    "D": (_E11, _E22),
    "U": (_E11, _E12, _E22),
    "L": (_E11, _E21, _E22),
    "J": ((1, 0, 0, 1), _E12),
    "M2": (_E11, _E12, _E21, _E22),
}


def commutator(a, b):
    """ab - ba: traceless, so three dot2 calls and no Mat2 product."""
    x = dot2(a.b, b.c, -b.b, a.c)
    y = dot2(b.b, a.a - a.d, -a.b, b.a - b.d)
    z = dot2(a.c, b.a - b.d, -b.c, a.a - a.d)
    return Mat2(x, y, z, -x)


def trace_of_product(x, y):
    """tr(xy) as (x * y).trace() computes it, the same value at the same
    order, from the two diagonal entries of the product only."""
    return dot2(x.a, y.a, x.b, y.c) + dot2(x.c, y.b, x.d, y.d)


def algebra_dim(gens):
    """Dimension of the unital algebra A the 2x2 matrices generate, with no
    field inverse and no Mat2 product.

    All generators scalar: A = F I. Else let a be the first nonscalar one.
    If all commute with a, they lie in its centralizer span(I, a), closed
    by Cayley-Hamilton: dim 2. Else c = ab - ba != 0 for the first such b,
    and A, not commutative, has dim >= 3. tr c = 0, so tr c^2 = -2 det c.
    If det c != 0, a and b share no eigenvector (D. Shemesh, Lin. Alg.
    Appl. 62, 1984): A = M2. Else c is a nonzero nilpotent, E12 in some
    basis, where c^perp = {g : tr(c g) = 0} is the upper triangular algebra.
    A 3-dimensional A fixes a line over the algebraic closure (Burnside),
    so it is that line's stabilizer, whose commutators c spans: A = c^perp.
    So dim A = 4 iff tr(c g) != 0 for some generator g; those up to b give
    0 by the cyclicity of the trace and span(I, a).
    """
    rest = iter(gens)  # one pass: a, then b, then the trace tests
    a = next((g for g in rest if not g.is_scalar()), None)
    if a is None:
        return 1
    c = next((c for c in (commutator(a, g) for g in rest) if not c.is_scalar()), None)
    if c is None:  # a traceless scalar is zero
        return 2
    if not c.det().is_zero:
        return 4
    traces = (dot2(c.a, g.a - g.d, c.b, g.c) + c.c * g.b for g in rest)  # tr(c g)
    return 4 if any(not t.is_zero for t in traces) else 3


def algebra_closure(gens):
    """Unital algebra generated by the matrices, as a SubalgebraClass: the
    dim is algebra_dim's, the tag is read off the generators, named tags take
    a canonical basis, and OTHER the echelon rows of I and the generators."""
    if not gens:
        raise ValueError("need at least one generator")
    dim = algebra_dim(gens)
    tag = _classify(dim, gens)
    if tag in _CANONICAL_BASIS:
        return SubalgebraClass(tag, [Mat2(*v) for v in _CANONICAL_BASIS[tag]], dim)
    ech = FieldEchelon.of([Mat2.identity().entries] + [g.entries for g in gens])
    return SubalgebraClass(tag, [Mat2(*row) for row in ech.rows()], dim)


def _classify(dim, mats):
    """Tag of the dim-dimensional unital algebra I and the matrices generate;
    each test is linear and closed under products, so they decide it."""
    if dim == 4:
        return "M2"
    upper = all(m.c.is_zero for m in mats)
    lower = all(m.b.is_zero for m in mats)
    if dim == 3 and (upper or lower):
        return "U" if upper else "L"
    if dim == 2 and upper and (lower or all(m.a == m.d for m in mats)):
        return "D" if lower else "J"
    return "OTHER"


SeparatingWitness = namedtuple(
    "SeparatingWitness", ["a1", "a2", "a3", "trace_fwd", "trace_swapped"]
)


def separating_witness(class1, class2, class_t):
    """First basis triple (a1, a2, a3) with tr(a1 a2 a3) != tr(a1 a3 a2).

    None when the trace trilinear form is symmetric on every basis triple,
    which settles the question for the whole spans by linearity.
    """
    for a1 in class1.basis:
        for a2 in class2.basis:
            for a3 in class_t.basis:
                fwd = (a1 * a2 * a3).trace()
                swapped = (a1 * a3 * a2).trace()
                if not (fwd == swapped):
                    return SeparatingWitness(a1, a2, a3, fwd, swapped)
    return None


def sqrt_of_trace_plus_two(tr):
    """A CycNum s with s^2 = tr + 2, for tr rational or a sum of a root of
    unity and its inverse. Raises ValueError when neither recognition works
    or the field is above MAX_ORDER (see rational_sqrt_cyclotomic)."""
    if tr.is_rational:
        return rational_sqrt_cyclotomic(tr.as_fraction() + 2)
    hit = root_of_unity_with_trace(tr)
    if hit is None:
        raise ValueError("trace+2 is not expressible in a scanned cyclotomic field")
    m, k = hit
    # tr = z^k + z^-k in order m; halve the exponent in order 2m
    s = root_of_unity(2 * m, k) + root_of_unity(2 * m, 2 * m - k)
    return s


def sl2_sqrt(m):
    """R with R^2 = m and det R = 1; requires det m = 1.

    Uses (m + I)/s with s^2 = tr + 2. The trace -2 case has a square root
    only for m = -I; a negated nontrivial unipotent has none (its square
    root would need eigenvalues +-i, hence be semisimple, but then its
    square is semisimple too).
    """
    if not (m.det() == 1):
        raise ValueError("sl2_sqrt needs det 1")
    tr = m.trace()
    if tr == -2:
        if m == -Mat2.identity():
            i = root_of_unity(4, 1)
            return Mat2.diagonal(i, root_of_unity(4, 3))
        raise ValueError("no SL2 square root: negative of a nontrivial unipotent")
    s = sqrt_of_trace_plus_two(tr)
    sinv = s.inverse()
    return (m + Mat2.identity()) * sinv


def is_irreducible(a, b):
    """True iff the pair has no common eigenvector over the algebraic
    closure, i.e. generates all of M2: det(ab - ba) != 0. For invertible a
    and b this is (2 - tr(a b a^-1 b^-1)) det(a) det(b), the commutator
    trace test."""
    return not commutator(a, b).det().is_zero


def _eigenvalues_det1(tr):
    """Both eigenvalues of an SL2 matrix with trace t, in the field: lam and
    t - lam (they sum to t and multiply to 1). ValueError when not
    recognized, or when sqrt(t^2 - 4) is above MAX_ORDER."""
    roots = trace_roots(tr)
    if roots is not None:
        return roots
    if tr.is_rational:
        t = tr.as_fraction()
        disc = rational_sqrt_cyclotomic(t * t - 4)
        lam = (CycNum.rational(t) + disc) * Fraction(1, 2)
        return lam, CycNum.rational(t) - lam
    raise ValueError("eigenvalues not recognized in a scanned cyclotomic field")


def standardize_pair(t):
    """Conjugating matrix P with P^-1 t P diagonal (semisimple t) or upper
    triangular (defective t); the identity for scalar t. Raises ValueError
    when the eigenvalues are out of reach (_eigenvalues_det1)."""
    if t.is_scalar():
        return Mat2.identity()
    tr = t.trace()
    discriminant = tr * tr - 4
    if not discriminant.is_zero:
        lam1, lam2 = _eigenvalues_det1(tr)
        v1 = eigenvector(t, lam1)
        v2 = eigenvector(t, lam2)
        return Mat2.from_columns(v1, v2)
    # defective: single eigenvalue tr/2 = +-1
    lam = tr * Fraction(1, 2)
    v1 = eigenvector(t, lam)
    # complete to a basis: e1 is independent of v1 iff v1[1] != 0
    return Mat2.from_columns(v1, (1, 0) if v1[1] else (0, 1))


def eigenvector(t, lam):
    """A nonzero vector v with t*v = lam*v, as two CycNum coordinates: the
    kernel vector of the reduced echelon form of t - lam, free coordinate 1."""
    a, b, c, d = t.a - lam, t.b, t.c, t.d - lam
    if not dot2(a, d, -b, c).is_zero:
        raise ValueError("claimed eigenvalue has no eigenvector")
    if not a.is_zero:
        return [-b / a, CycNum.one()]
    if b.is_zero and not c.is_zero:
        return [-d / c, CycNum.one()]
    return [CycNum.one(), CycNum.zero()]
