"""Generating-function routes to the coefficient tables of all three families.

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

Polynomial products use Kronecker substitution (Kronecker 1882; Schoenhage,
"Asymptotically fast algorithms for the numerical multiplication and
division of polynomials with complex coefficients", 1982): each factor is
evaluated at 2^(8w) by packing its coefficients w bytes apiece into one
Python int, the two ints are multiplied once (CPython uses Karatsuba at
these sizes), and the product's w-byte digits are its coefficients.  The
width w is chosen from an exact bound on the product's coefficients, so the
decoding never needs a check.

Families A and B (permanent zero) have series routes of their own, both in
the same integer polynomials: a reachability split for B (Robinson, "Counting
labeled acyclic digraphs", 1973) and a Hall-deficiency split for A
(Frobenius-Koenig; the Dulmage-Mendelsohn decomposition in Lovasz & Plummer,
*Matching Theory*).  The A totals are OEIS A088672.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .matrices import TypeSpec
from .tables import ROUTE_GENERATING_FUNCTION, CoefficientTable, check_reach


class Polynomial:
    """Dense one-variable polynomial with integer coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = list(map(operator.index, coefficients))
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
        if isinstance(other, int):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, so it must hash like it
        if len(self.coefficients) <= 1:
            return hash(self[0])
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
        a, b = self.coefficients, _coerce(other).coefficients
        if not a or not b:
            return Polynomial()
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            return Polynomial([c * b[0] for c in a])
        return Polynomial(_kronecker_product(a, b))

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


def _kronecker_product(a, b) -> list[int]:
    """Coefficients of the product of two integer polynomials of length >= 2.

    Kronecker substitution: both polynomials are evaluated at 2^(8w), packed
    w bytes a coefficient, and multiplied once as Python ints.  Every product
    coefficient is a sum of at most min(len a, len b) terms, so its absolute
    value is below 2^(8w-1) for the w chosen here; adding 2^(8w-1) to every
    w-byte slot then makes each slot a nonnegative digit, and one to_bytes
    call cuts the product into them exactly.
    """
    lo_a, hi_a, lo_b, hi_b = min(a), max(a), min(b), max(b)
    bound = min(len(a), len(b)) * max(hi_a, -lo_a) * max(hi_b, -lo_b)
    w = (bound.bit_length() + 8) // 8
    size = len(a) + len(b) - 1
    offset = int.from_bytes((bytes(w - 1) + b"\x80") * size, "little")
    digits = (_pack(a, lo_a, w) * _pack(b, lo_b, w) + offset).to_bytes(w * size, "little")
    half = 1 << (8 * w - 1)
    from_bytes = int.from_bytes  # bound once: looking it up per slot doubles the cost
    return [from_bytes(digits[i : i + w], "little") - half for i in range(0, w * size, w)]


def _pack(coeffs, lowest: int, w: int) -> int:
    """sum_i coeffs[i] * 2^(8wi), as its positive part less its negative part."""
    if lowest >= 0:
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in coeffs]), "little")
    positive = b"".join([(c if c > 0 else 0).to_bytes(w, "little") for c in coeffs])
    negative = b"".join([(-c if c < 0 else 0).to_bytes(w, "little") for c in coeffs])
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
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
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    return reciprocal(z_series_neg(n)).terms[n]


def gf_edge_table(n: int) -> CoefficientTable:
    """Family-C coefficient table computed through the series route."""
    poly = edge_polynomial(n)
    return CoefficientTable.from_counts(
        TypeSpec("C", n), poly.coefficients, ROUTE_GENERATING_FUNCTION
    )


def gf_reachability_table(n: int) -> CoefficientTable:
    """Family-B coefficient table: term n-1 of e * reciprocal(d) * e.

    With x_11 variable and the rest of the diagonal fixed at 1, the permanent
    is zero exactly when x_11 = 0 and vertex 1 lies on no cycle of the
    off-diagonal digraph, i.e. no vertex reachable from 1 has an arc into 1.
    Split by the set of the other j vertices that 1 reaches: arcs out of it
    stay inside it and never enter 1, and the n-1-j vertices left send arcs
    anywhere.  With e_j = (1+t)^(j^2) counting every digraph on 1 plus j
    vertices with no arc into 1, and g_j those in which 1 reaches all j, the
    split reads B = g * e in the weighted convolution, and the same split of
    e_j itself reads e = g * d with d_j = (1+t)^(j(j-1)).  Only term n-1 of
    the last product is read, so only that one convolution is formed.
    """
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    d = WeightedSeries([one_plus_t_power(j * (j - 1)) for j in range(n)])
    e = WeightedSeries([one_plus_t_power(j * j) for j in range(n)])
    poly = _convolve((e * reciprocal(d)).terms, e.terms, n - 1, 0)
    return CoefficientTable.from_counts(
        TypeSpec("B", n), poly.coefficients, ROUTE_GENERATING_FUNCTION
    )


def gf_deficiency_table(n: int) -> CoefficientTable:
    """Family-A coefficient table: (1+t)^(n^2) less the matchable matrices.

    For an a x b 0/1 matrix let d(X) = |X| - |N(X)| over row sets X.  It is
    supermodular, so its maximizers have a unique largest member S*, with
    T* = N(S*).  The block S* x T* lets every column of T* be matched into
    S*, the rows outside S* have strict surplus (|N(X)| > |X| for nonempty
    X) in the columns outside T*, they meet T* freely, and S* meets nothing
    else.  Counting every matrix by (|S*|, |T*|) = (s, tau) gives

        (1+t)^(ab) = sum C(a,s) C(b,tau) M(tau,s) K(a-s,b-tau) (1+t)^((a-s) tau)

    over s <= a and tau <= min(s, b), where M(a, b) counts the matrices whose
    rows can all be matched (the tau = s part) and K(a, b) those with strict
    surplus, which is impossible once a >= b and a >= 1 (all a rows meet at
    most b columns).  So only K with a < b or a = 0 is stored, and every term
    with a vanishing K is skipped.  Solved level by level in a + b over a <= b:
    for a < b the (0, 0) term yields K, then M; for a = b the (a, a) term
    yields M(a, a).  The checked solve in ``tests/oracles.py``, which the
    tests hold this one to, also derives each K = 0 with a > b or raises.
    """
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    matched = {(0, b): Polynomial.one() for b in range(n + 1)}
    surplus = dict(matched)

    def rest(a, b, skip):
        acc = Polynomial.zero()
        for s in range(a + 1):
            for tau in range(min(s, b) + 1):
                if (s, tau) != skip and (a - s, b - tau) in surplus:
                    acc = acc + (
                        math.comb(a, s) * math.comb(b, tau) * matched[tau, s]
                        * surplus[a - s, b - tau] * one_plus_t_power((a - s) * tau)
                    )
        return one_plus_t_power(a * b) - acc

    for level in range(1, 2 * n + 1):
        for a in range(max(1, level - n), level // 2 + 1):
            b = level - a
            if a < b:
                surplus[a, b] = rest(a, b, (0, 0))
                matched[a, b] = sum(
                    (
                        math.comb(a, s) * math.comb(b, s) * matched[s, s]
                        * surplus[a - s, b - s] * one_plus_t_power((a - s) * s)
                        for s in range(a + 1)
                    ),
                    Polynomial.zero(),
                )
            else:
                matched[a, a] = rest(a, a, (a, a))
    poly = one_plus_t_power(n * n) - matched[n, n]
    return CoefficientTable.from_counts(
        TypeSpec("A", n), poly.coefficients, ROUTE_GENERATING_FUNCTION
    )


def series_table(spec: TypeSpec) -> CoefficientTable:
    """The series route's table for spec's family: the one place that maps a
    family to its series.  The names are read when called, so a rebinding of
    one of them (a tracer's wrapper, a test's patch) sees every call."""
    series = {"A": gf_deficiency_table, "B": gf_reachability_table, "C": gf_edge_table}
    return series[spec.family](spec.n)
