"""Exact 2x2 matrices over cyclotomic fields, subalgebra closures, and the
trace machinery for representation certificates.

Subalgebras of M2 are classified against the named ones: diagonal (D), upper
and lower triangular (U, L), the Jordan line spanned by I and E12 (J), all
of M2, or OTHER. Classification happens in standard position; callers
conjugate first (standardize_pair). Closures and eigenvectors are field
elimination through `linalg.FieldEchelon`; see the `linalg` docstring for
why the integer elimination is a separate loop.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .cyclotomic import (
    CycNum,
    rational_sqrt_cyclotomic,
    root_of_unity,
    root_of_unity_with_trace,
)
from .linalg import FieldEchelon, field_nullspace


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
    def zero(cls):
        return cls(0, 0, 0, 0)

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
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
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
        return self.a * self.d - self.b * self.c

    def inverse(self):
        det = self.det()
        if det.is_zero:
            raise ZeroDivisionError("singular matrix")
        inv = det.inverse()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        result = Mat2.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate_by(self, p):
        """p^-1 * self * p."""
        return p.inverse() * self * p

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


def algebra_closure(gens):
    """Unital algebra generated by the matrices, as a SubalgebraClass.

    The span is iterated under products until it is multiplicatively closed
    (at most dimension 4). Named tags use a canonical basis; OTHER keeps the
    echelon basis that came out of the closure.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ech = FieldEchelon(4)
    ech.insert(Mat2.identity().entries)
    fresh = [Mat2.identity()]
    for g in gens:
        if ech.insert(g.entries):
            fresh.append(g)
    while fresh and ech.rank < 4:
        basis_now = [Mat2(*row) for row in ech.rows()]
        new_fresh = []
        for x in fresh:
            for y in basis_now:
                for prod in (x * y, y * x):
                    if ech.insert(prod.entries):
                        new_fresh.append(prod)
            if ech.rank == 4:
                break
        fresh = new_fresh
    basis = [Mat2(*row) for row in ech.rows()]
    tag = _classify(basis)
    if tag in _CANONICAL_BASIS:
        basis = [Mat2(*v) for v in _CANONICAL_BASIS[tag]]
    return SubalgebraClass(tag, basis, ech.rank)


def _classify(basis):
    dim = len(basis)
    if dim == 4:
        return "M2"
    upper = all(m.c.is_zero for m in basis)
    lower = all(m.b.is_zero for m in basis)
    if dim == 3:
        if upper:
            return "U"
        if lower:
            return "L"
        return "OTHER"
    if dim == 2:
        if upper and lower:
            return "D"
        if upper and all(m.a == m.d for m in basis):
            return "J"
        return "OTHER"
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
    unity and its inverse. Raises ValueError when neither recognition works."""
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
    """Trace test: the pair generates an irreducible representation iff the
    commutator has trace != 2."""
    comm = a * b * a.inverse() * b.inverse()
    return not (comm.trace() == 2)


def trace_triple_realize(x, y, s):
    """Matrices q1, q2 with tr q1 = x, tr q2 = y, tr(q1 q2) = eta1*eta2 +
    (eta1*eta2)^-1 + s, where x and y are recognized as eta + eta^-1 for
    roots of unity eta."""
    hit1 = root_of_unity_with_trace(x if isinstance(x, CycNum) else CycNum.rational(x))
    hit2 = root_of_unity_with_trace(y if isinstance(y, CycNum) else CycNum.rational(y))
    if hit1 is None or hit2 is None:
        raise ValueError("traces must be sums of a root of unity and its inverse")
    m1, k1 = hit1
    m2, k2 = hit2
    eta1 = root_of_unity(m1, k1)
    eta2 = root_of_unity(m2, k2)
    q1 = Mat2(eta1, 1, 0, root_of_unity(m1, (m1 - k1) % m1))
    q2 = Mat2(eta2, 0, s, root_of_unity(m2, (m2 - k2) % m2))
    return q1, q2


def _eigenvalues_det1(tr):
    """Both eigenvalues of an SL2 matrix with the given trace, in the field."""
    hit = root_of_unity_with_trace(tr)
    if hit is not None:
        m, k = hit
        return root_of_unity(m, k), root_of_unity(m, (m - k) % m)
    if tr.is_rational:
        t = tr.as_fraction()
        disc = rational_sqrt_cyclotomic(t * t - 4)
        lam = (CycNum.rational(t) + disc) * Fraction(1, 2)
        return lam, lam.inverse()
    raise ValueError("eigenvalues not recognized in a scanned cyclotomic field")


def standardize_pair(t):
    """Conjugating matrix P with P^-1 t P diagonal (semisimple t) or upper
    triangular (defective t); the identity for scalar t."""
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
    # complete to a basis deterministically
    for cand in ((CycNum.one(), CycNum.zero()), (CycNum.zero(), CycNum.one())):
        p = Mat2.from_columns(v1, cand)
        if not p.det().is_zero:
            return p
    raise AssertionError("eigenvector could not be completed to a basis")


def eigenvector(t, lam):
    """A nonzero vector v with t*v = lam*v, as two CycNum coordinates."""
    shifted = [
        [t.a - lam, t.b],
        [t.c, t.d - lam],
    ]
    basis = field_nullspace(shifted)
    if not basis:
        raise ValueError("claimed eigenvalue has no eigenvector")
    v = basis[0]
    return [_cyc(v[0]), _cyc(v[1])]
