"""Slow, obviously correct evaluations of a ProbabilityPolynomial.

They pin the integer Horner kernel of ``ProbabilityPolynomial.evaluate`` and
are used only by the tests.
"""

import math
from fractions import Fraction


def evaluate_power_sum(poly, r) -> Fraction:
    """sum_i E(i) r^i (1-r)^(m-i) term by term in Fractions."""
    r = Fraction(r)
    s = 1 - r
    m = poly.spec.m
    r_pow = [Fraction(1)]
    s_pow = [Fraction(1)]
    for _ in range(m):
        r_pow.append(r_pow[-1] * r)
        s_pow.append(s_pow[-1] * s)
    return sum(c * r_pow[i] * s_pow[m - i] for i, c in enumerate(poly.table.coeffs))


def monomial_coefficients(poly) -> tuple[int, ...]:
    """Exact expansion into powers of r, degree 0..m."""
    m = poly.spec.m
    out = [0] * (m + 1)
    for i, c in enumerate(poly.table.coeffs):
        if c == 0:
            continue
        for k in range(m - i + 1):
            out[i + k] += c * math.comb(m - i, k) * (-1) ** k
    return tuple(out)


def evaluate_monomial(poly, r) -> Fraction:
    """Horner evaluation of the monomial expansion."""
    acc = Fraction(0)
    for c in reversed(monomial_coefficients(poly)):
        acc = acc * r + c
    return acc
