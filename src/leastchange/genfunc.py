"""Generating-function route to the acyclic-digraph edge tables.

Everything lives in a weighted series basis: position n of a series stands
for the z^n coefficient a_n(t) / (n! * (1+t)^C(n,2)).  In that basis the
product rule is

    c_n(t) = sum_j binom(n, j) * (1+t)^(j*(n-j)) * a_j(t) * b_(n-j)(t)

which keeps every computation inside integer-coefficient polynomials; no
rational function ever appears.  The polynomial whose t^e coefficient counts
labeled DAGs with e edges on n vertices is term n of the reciprocal of the
sign-alternating base series.  The reciprocal identity is inclusion-exclusion
over candidate source sets: every acyclic digraph on one or more vertices has
at least one source (a vertex with in-degree 0), so the signed sum over
"these k vertices form an independent source set" telescopes, and inverting
the alternating series is exactly that cancellation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionError
from .matrices import TypeSpec
from .tables import ROUTE_GENERATING_FUNCTION, CoefficientTable

GF_MAX_N = 24


class Polynomial:
    """Dense one-variable polynomial with exact coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = [
            int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
            for c in coefficients
        ]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __getitem__(self, power: int):
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return 0

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coefficients == other.coefficients
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficients)

    def __add__(self, other):
        other = _coerce(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-v for v in self.coefficients))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers not supported")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "Polynomial(" + " + ".join(parts) + ")"


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    raise TypeError(f"cannot mix Polynomial with {type(value).__name__}")


@lru_cache(maxsize=None)
def one_plus_t_power(exponent: int) -> Polynomial:
    """(1 + t)^k; these dominate the convolution cost, so they are cached."""
    return Polynomial(tuple(math.comb(exponent, i) for i in range(exponent + 1)))


class WeightedSeries:
    """Truncated series in the weighted basis described in the module docs."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(_coerce(t) for t in terms)
        if not self.terms:
            raise ValueError("a series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @classmethod
    def unit(cls, order: int) -> "WeightedSeries":
        return cls([Polynomial.one()] + [Polynomial.zero()] * order)

    def __eq__(self, other):
        if isinstance(other, WeightedSeries):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __mul__(self, other: "WeightedSeries") -> "WeightedSeries":
        if not isinstance(other, WeightedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return WeightedSeries(
            [_convolve(self.terms, other.terms, n, 0) for n in range(order + 1)]
        )

    def __repr__(self):
        return f"WeightedSeries({list(self.terms)!r})"


def z_series_neg(order: int) -> WeightedSeries:
    """Base series with z negated: term n is (-1)^n."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return WeightedSeries([Polynomial(((-1) ** n,)) for n in range(order + 1)])


def reciprocal(series: WeightedSeries) -> WeightedSeries:
    """Multiplicative inverse under the weighted convolution.

    Forward recurrence: R_0 = 1 and
    R_n = -sum_(k=1..n) binom(n, k) * (1+t)^(k*(n-k)) * S_k * R_(n-k).
    """
    if series.terms[0] != Polynomial.one():
        raise ValueError("series must have constant term 1 to be inverted")
    out = [Polynomial.one()]
    for n in range(1, series.order + 1):
        out.append(-_convolve(series.terms, out, n, 1))
    return WeightedSeries(out)


def _convolve(a, b, n: int, start: int) -> Polynomial:
    """sum_(j=start..n) binom(n, j) * (1+t)^(j*(n-j)) * a_j * b_(n-j)."""
    acc = Polynomial.zero()
    for j in range(start, n + 1):
        if a[j].is_zero() or b[n - j].is_zero():
            continue
        acc = acc + math.comb(n, j) * one_plus_t_power(j * (n - j)) * a[j] * b[n - j]
    return acc


def edge_polynomial(n: int) -> Polynomial:
    """Polynomial in t whose t^e coefficient counts labeled DAGs with e edges.

    Term n of the reciprocal of the alternating base series; the weighted
    basis already carries the n! * (1+t)^C(n,2) normalization, so the stored
    term is the answer itself.  Truncating the series at order n suffices,
    since term n of a reciprocal depends only on terms 0..n.
    """
    if not 1 <= n <= GF_MAX_N:
        raise DimensionError(f"edge polynomial supports 1..{GF_MAX_N}, got {n}")
    return reciprocal(z_series_neg(n)).terms[n]


def gf_edge_table(n: int) -> CoefficientTable:
    """Family-C coefficient table computed through the series route."""
    poly = edge_polynomial(n)
    return CoefficientTable.from_counts(
        TypeSpec("C", n), poly.coefficients, ROUTE_GENERATING_FUNCTION
    )
