"""Generating-function routes to the coefficient tables of all three families.

Each family's table is one term of an explicit recurrence in integer
polynomials in t, where (1+t)^k counts the edge sets on k free cells by
size.  Term k of each recurrence reads only terms below k, so each solve
builds its terms up to n and reads the last; ``check_reach`` bounds n at 24.

- C (labeled DAGs by edges, Robinson, "Counting labeled acyclic digraphs",
  1973): every DAG on one or more vertices has a source, so
  inclusion-exclusion over the nonempty sets of j sources, which send edges
  anywhere into the other k - j vertices, gives
      R_k = sum_(j=1..k) (-1)^(j+1) C(k,j) (1+t)^(j(k-j)) R_(k-j),  R_0 = 1.
- B (vertex 1 on no cycle): a split by the set of vertices that vertex 1
  reaches, in the manner of Robinson's.
- A (zero permanent): a Hall-deficiency split (Frobenius-Koenig; the
  Dulmage-Mendelsohn decomposition in Lovasz & Plummer, *Matching Theory*).
  The A totals are OEIS A088672.

C and B are each evaluated at one point (Kronecker substitution, Kronecker
1882; Schoenhage, "Asymptotically fast algorithms for the numerical
multiplication and division of polynomials with complex coefficients",
1982).  Their recurrences are written once over integers, at t = 2^s.  At
s = 0 (t = 1) a recurrence gives the family total, which bounds every
coefficient, since they are nonnegative counts; so w bytes a coefficient
hold them all once 2^(8w) exceeds the total.  At s = 8w it gives one int
whose w-byte digits are the coefficients, and one ``to_bytes`` call cuts it
into them; no value in between is decoded.  Each term carries its power of
1 + t = 1 + 2^s from level to level, and a factor 1 + 2^s is one shift and
one add, so the only products left are by binomial coefficients.

A stays on ``Polynomial``, whose product is one Kronecker substitution per
multiplication: both factors are packed w bytes a coefficient into one
Python int, the two ints are multiplied once (CPython uses Karatsuba at
these sizes), and the product's w-byte digits are its coefficients.  The
width w is chosen from an exact bound on the product's coefficients, so the
decoding never needs a check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .matrices import TypeSpec
from .tables import ROUTE_GENERATING_FUNCTION, CoefficientTable, check_reach


@dataclass(frozen=True)
class Polynomial:
    """Dense one-variable polynomial with integer coefficients, trailing
    zeros dropped."""

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

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
    return _digits(_pack(a, lo_a, w) * _pack(b, lo_b, w) + offset, w, size, 1 << (8 * w - 1))


def _digits(value: int, w: int, size: int, bias: int = 0) -> list[int]:
    """The first ``size`` w-byte digits of a nonnegative int, each less ``bias``."""
    digits = value.to_bytes(w * size, "little")
    from_bytes = int.from_bytes  # bound once: looking it up per slot doubles the cost
    return [from_bytes(digits[i : i + w], "little") - bias for i in range(0, w * size, w)]


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


def _at_one_point(value_at, n: int) -> list[int]:
    """Coefficients of the polynomial in t whose value at t = 2^s is
    ``value_at(n, s)``: the total at s = 0 (t = 1) fixes the width w, and
    the value at s = 8w holds the coefficients as w-byte digits."""
    w = (value_at(n, 0).bit_length() + 7) // 8
    value = value_at(n, 8 * w)
    return _digits(value, w, -(-value.bit_length() // (8 * w)))


def _grow(c: int, e: int, s: int) -> int:
    """c (1+t)^e at t = 2^s, by e shifts and adds."""
    for _ in range(e):
        c += c << s
    return c


def _edge_value(n: int, s: int) -> int:
    """R_n of the source split at t = 2^s.  ``carried[m]`` holds
    (1+t)^(m(k-m)) R_m at level k, so each level grows it by (1+t)^m."""
    r, carried = 1, []
    for k in range(1, n + 1):
        carried.append(r)
        for m, c in enumerate(carried):
            carried[m] = _grow(c, m, s)  # in place: the old value goes at once
        r = 0
        for m, c in enumerate(carried):
            term = math.comb(k, m) * c
            r = r + term if (k - m) % 2 else r - term
    return r


def edge_polynomial(n: int) -> Polynomial:
    """Polynomial in t whose t^e coefficient counts labeled DAGs with e edges:
    R_n of the source split in the module docs."""
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    return Polynomial(_at_one_point(_edge_value, n))


def gf_edge_table(n: int) -> CoefficientTable:
    """Family-C coefficient table computed through the series route."""
    poly = edge_polynomial(n)
    return CoefficientTable.from_counts(
        TypeSpec("C", n), poly.coefficients, ROUTE_GENERATING_FUNCTION
    )


def _reach_value(n: int, s: int) -> int:
    """B_n of the reachability split at t = 2^s.  ``carried[j]`` holds
    (1+t)^((k-j)(k-1)) g_j at level k, so level k grows it by
    (1+t)^(2k-2-j), and B_n reads it grown by (1+t)^(n-1-j) more."""
    carried, full = [], 1  # full: (1+t)^(k^2)
    for k in range(n):
        for j, c in enumerate(carried):
            carried[j] = _grow(c, 2 * k - 2 - j, s)
        carried.append(full - sum(math.comb(k, j) * c for j, c in enumerate(carried)))
        full = _grow(full, 2 * k + 1, s)
    return sum(math.comb(n - 1, j) * _grow(c, n - 1 - j, s) for j, c in enumerate(carried))


def gf_reachability_table(n: int) -> CoefficientTable:
    """Family-B coefficient table by a split on the vertices vertex 1 reaches.

    With x_11 variable and the rest of the diagonal fixed at 1, the permanent
    is zero exactly when x_11 = 0 and vertex 1 lies on no cycle of the
    off-diagonal digraph, i.e. no vertex reachable from 1 has an arc into 1.
    Split by the set of the other j vertices that 1 reaches: arcs out of it
    stay inside it and never enter 1, and each of the n-1-j vertices left
    sends arcs to any of the other n-1 vertices, which gives

        B_n = sum_(j<n) C(n-1,j) (1+t)^((n-1-j)(n-1)) g_j.

    The same split of all (1+t)^(k^2) digraphs on 1 plus k vertices with no
    arc into 1, whose k-j unreached vertices send arcs to the k-1 other
    vertices but 1, solves for g term by term:

        g_k = (1+t)^(k^2) - sum_(j<k) C(k,j) (1+t)^((k-j)(k-1)) g_j.
    """
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    return CoefficientTable.from_counts(
        TypeSpec("B", n), _at_one_point(_reach_value, n), ROUTE_GENERATING_FUNCTION
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
    with a vanishing K is skipped.  Solved column by column in b, and within
    a column for a = 1..b: for a < b the (0, 0) term yields K, then M; for
    a = b the (a, a) term yields M(a, a).  Every term read lies in an earlier
    column or an earlier row of the same one.  The checked solve in
    ``tests/oracles.py``, which the tests hold this one to, also derives each
    K = 0 with a > b or raises.
    """
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    matched = {(0, 0): Polynomial.one()}
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

    for b in range(1, n + 1):
        matched[0, b] = surplus[0, b] = Polynomial.one()
        for a in range(1, b):
            surplus[a, b] = rest(a, b, (0, 0))
            matched[a, b] = sum(
                (
                    math.comb(a, s) * math.comb(b, s) * matched[s, s]
                    * surplus[a - s, b - s] * one_plus_t_power((a - s) * s)
                    for s in range(a + 1)
                ),
                Polynomial.zero(),
            )
        matched[b, b] = rest(b, b, (b, b))
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
