"""The text grammar shared by every parser and formatter.

Every element is written as a sum `a + b - c` of summands, and a summand is
a coefficient times a label, `coeff*label`: a curve class `(p,q)`, a module
term `(a,b,c,d)*gen`, a monomial `x^2*y`, or a power `A^k`. A coefficient
with more than one term is kept whole in parentheses, and a coefficient of
1 is left out. "" and "0" are the empty sum. Laurent polynomials in A and
integer polynomials in x are power sums of `c*v^k` summands.
"""

from __future__ import annotations

import re

_SPLIT = re.compile(r"[-+()]")
_PARENS = re.compile(r"[()]")


def split_terms(text):
    """Split a sum into (sign, summand) pairs at its top-level + and - signs.

    "" and "0" are the empty sum. Signs inside parentheses and a sign right
    after "^" belong to their summand. The first summand may carry a "-";
    every other summand needs exactly one sign before it. Raises ValueError
    on unbalanced parentheses, a leading "+", and a sign with no summand
    after it, as in "A +" or "A + -1".
    """
    s = text.strip()
    if s in ("", "0"):
        return []
    terms = []
    depth = 0
    sign = 1
    start = 0
    for m in _SPLIT.finditer(s):
        ch = m.group()
        i = m.start()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif depth == 0 and s[i - 1 : i] != "^":
            body = s[start:i].strip()
            if body:
                terms.append((sign, body))
            elif i or ch == "+":
                raise ValueError(f"missing summand before {ch!r} in {text!r}")
            sign = -1 if ch == "-" else 1
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    body = s[start:].strip()
    if not body:
        raise ValueError(f"missing summand after the last sign in {text!r}")
    terms.append((sign, body))
    return terms


def strip_parens(text):
    """`text` without the one pair of parentheses that wraps all of it.

    "(A + 1)" and "((1)/(A + 1))" lose their outer pair; "(1)/(A + 1)" and
    "A" come back as they are.
    """
    if not (text.startswith("(") and text.endswith(")")):
        return text
    depth = 0
    for m in _PARENS.finditer(text):
        depth += 1 if m.group() == "(" else -1
        if depth == 0:
            return text[1:-1].strip() if m.end() == len(text) else text
    return text


def split_coeff(summand, label):
    """Split the summand `coeff*label` into (coefficient text, label match).

    `label` is a compiled pattern that ends with `$`. The coefficient text
    is None when the summand is the label alone, and it loses one pair of
    parentheses that wraps all of it. With no label match the whole summand
    is the coefficient and the match is None. Raises ValueError when a
    coefficient is not joined to its label by one "*", or is empty.
    """
    m = label.search(summand)
    head = summand
    if m is not None:
        head = summand[: m.start()].rstrip()
        if not head:
            return None, m
        if not head.endswith("*"):
            raise ValueError(f"expected coeff*label in {summand!r}")
        head = head[:-1].rstrip()
    coeff = strip_parens(head)
    if not coeff:
        raise ValueError(f"missing coefficient in {summand!r}")
    return coeff, m


def coeff_term(coeff, label):
    """The summand `coeff*label` as a (negative, text) pair for join_signed.

    `coeff` is the coefficient's own text. One with a space is a sum and is
    kept whole in parentheses; any other gives its leading "-" to the sum
    and is left out when it is 1. An empty label makes a scalar summand,
    written without "*".
    """
    if " " in coeff:
        negative, coeff = False, f"({coeff})"
    else:
        negative = coeff.startswith("-")
        if negative:
            coeff = coeff[1:]
        if coeff == "1" and label:
            return negative, label
    return negative, f"{coeff}*{label}" if label else coeff


def join_signed(summands, lead="-"):
    """Join (negative, text) summands as `a + b - c`; "0" when there are none.

    `lead` is what a negative first summand starts with.
    """
    parts = []
    for negative, body in summands:
        if parts:
            parts.append(" - " if negative else " + ")
        elif negative:
            parts.append(lead)
        parts.append(body)
    return "".join(parts) or "0"


def power(var, k):
    """The label `v^k`: "" for k = 0 and `v` for k = 1."""
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def format_power_sum(coeffs, var):
    """Write {k: c} (no zero c) as `c*v^k` summands, exponents descending."""
    return join_signed(coeff_term(str(coeffs[k]), power(var, k)) for k in sorted(coeffs, reverse=True))


def parse_power_sum(text, var):
    """Read a sum of `c*v^k`, `v^k` and `c` summands into {k: c}.

    c is a non-negative integer and k an integer, 1 when `^k` is left out.
    Coefficients of a repeated exponent are summed, and an exponent whose
    coefficients cancel stays in the result with 0, so a caller can check
    every exponent the text names. Raises ValueError on any other summand.
    """
    term = re.compile(rf"(?:(\d+)\s*\*\s*)?{re.escape(var)}(?:\^(-?\d+))?|(\d+)")
    out = {}
    for sign, body in split_terms(text):
        m = term.fullmatch(body)
        if m is None:
            raise ValueError(f"cannot parse {body!r} as c*{var}^k in {text!r}")
        coeff, exp, const = m.groups()
        if const is not None:
            k, c = 0, int(const)
        else:
            k = 1 if exp is None else int(exp)
            c = 1 if coeff is None else int(coeff)
        out[k] = out.get(k, 0) + sign * c
    return out
