"""Chebyshev-style recurrence polynomials, integer coefficients.

Both families satisfy P(n+1) = x*P(n) - P(n-1). The trace-normalized family
starts 2, x and turns power sums of eigenvalues into traces; the second kind
starts 1, x and shows up in the longitude expansions.

Polynomials are plain dicts mapping degree to int coefficient, zero
coefficients never stored.

The generic ring helpers poly_eval and positive_power live here, below
every ring type, so laurent, cyclotomic and mat2 import them
with no cycle.
"""

from __future__ import annotations

from .text import format_power_sum, parse_power_sum

# Largest n that chebyshev_T and chebyshev_S accept; the recurrence costs
# about n^2 steps on growing integers. The measurements behind it are in
# README.md ("p and n limits").
MAX_N = 4096


def _check_n(n, name):
    # before the range check: True would read as 1, and 2.0 fail as out of range
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{name} needs an int n, got {n!r}")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the limit {MAX_N}")


def _recurrence(n, p_prev, p_cur):
    for _ in range(n):
        p_next = {}
        for e, v in p_cur.items():
            p_next[e + 1] = v
        for e, v in p_prev.items():
            p_next[e] = p_next.get(e, 0) - v
            if not p_next[e]:
                del p_next[e]
        p_prev, p_cur = p_cur, p_next
    return p_cur


def chebyshev_T(n):
    """First kind, trace normalization: T(0) = 2, T(1) = x."""
    _check_n(n, "chebyshev_T")
    if n < 0:
        raise ValueError("chebyshev_T needs n >= 0")
    if n == 0:
        return {0: 2}
    return _recurrence(n - 1, {0: 2}, {1: 1})


def chebyshev_S(n):
    """Second kind: S(0) = 1, S(1) = x, and S(-1) = 0 by convention."""
    _check_n(n, "chebyshev_S")
    if n < -1:
        raise ValueError("chebyshev_S needs n >= -1")
    if n == -1:
        return {}
    if n == 0:
        return {0: 1}
    return _recurrence(n - 1, {0: 1}, {1: 1})


def poly_eval(poly, x, one=1):
    """Evaluate a degree->coefficient dict at a ring element x.

    `one` is the ring's multiplicative identity; the default works for any
    type that coerces Python ints.
    """
    total = x - x
    if 0 in poly:
        total = total + poly[0] * one
    power = one
    last = 0
    for e in sorted(k for k in poly if k > 0):
        for _ in range(e - last):
            power = power * x
        last = e
        total = total + poly[e] * power
    return total


def positive_power(x, n):
    """x ** n for n >= 1 by binary powering, for any type with `*`.

    The result starts as x^(lowest set bit of n), not as an identity, and
    nothing is squared after the highest bit: floor(log2 n) squarings plus
    popcount(n) - 1 further products.
    """
    while not n & 1:
        x = x * x
        n >>= 1
    result = x
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            result = result * x
        n >>= 1
    return result


def format_int_poly(poly, var="x"):
    """Render like 'x^2 - 2', exponents descending; "0" for the empty dict."""
    return format_power_sum(poly, var)


def parse_int_poly(text, var="x"):
    """Inverse of format_int_poly: a power sum in `var` (see skeinmod.text).

    "" and "0" read as the empty dict. Raises ValueError on junk and on a
    negative exponent, even one whose terms cancel.
    """
    poly = parse_power_sum(text, var)
    if any(e < 0 for e in poly):
        raise ValueError(f"negative exponent in {text!r}")
    return {e: c for e, c in poly.items() if c}
