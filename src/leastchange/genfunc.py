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

A is evaluated the same way, one level of its split at a time, and
multiplies only ints.  Level (a, b) counts a x b matrices by ones, so every
coefficient of every term lies in [0, 2^(ab)), and the level is evaluated
at its own point t = 2^(8w) with w = ab // 8 + 1.  Each table it solves is
stored as its bytes there, and a later, wider level re-slots those bytes
into its own width by strided copies, with no value decoded.  Only the last
level's sum is cut into coefficients.
"""

from __future__ import annotations

import math

from .matrices import TypeSpec
from .tables import ROUTE_GENERATING_FUNCTION, CoefficientTable, check_reach


def _digits(value: int, w: int, size: int) -> list[int]:
    """The first ``size`` w-byte digits of a nonnegative int."""
    digits = value.to_bytes(w * size, "little")
    from_bytes = int.from_bytes  # bound once: looking it up per slot doubles the cost
    return [from_bytes(digits[i : i + w], "little") for i in range(0, w * size, w)]


def _widen(digits: bytes, cells: int, w: int) -> int:
    """The value at t = 2^(8w) of a table stored as its digits at the point
    of its own level of ``cells`` cells: each byte of a slot goes to the same
    byte of a w-byte slot, one strided copy per byte."""
    w0 = cells // 8 + 1
    if w0 == w:
        return int.from_bytes(digits, "little")
    out = bytearray(len(digits) // w0 * w)
    for j in range(w0):
        out[j::w] = digits[j::w0]
    return int.from_bytes(out, "little")


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


def gf_edge_table(n: int) -> CoefficientTable:
    """Family-C coefficient table: entry e counts the labeled DAGs with e
    edges, read off R_n of the source split in the module docs."""
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    return CoefficientTable.from_counts(
        TypeSpec("C", n), _at_one_point(_edge_value, n), ROUTE_GENERATING_FUNCTION
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
    """Family-A coefficient table: the matrices with a deficient row set.

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
    most b columns).  So only K with a < b or a = 0 is stored, and only
    levels with a <= b are solved.  There every term with tau < s has a
    stored K; their sum D counts the matrices with a deficient row set.  The
    terms with tau = s sum to M(a, b), so M(a, b) = (1+t)^(ab) - D, and the
    (0, 0) one among them is K(a, b), so for a < b K(a, b) is M(a, b) less
    the terms with tau = s >= 1.  The n x n matrices with zero permanent are
    D at level (n, n).  Solved column by column in b, and within a column
    for a = 1..b; every term read lies in an earlier column or an earlier
    row of the same one.

    Each level is evaluated at its own point, as the module docs say, and
    stored as its digits there.  For each s, the terms with tau < s are
    summed by Horner's rule in (1+t)^(a-s), so no term takes a power of its
    own.  The checked solve in ``tests/oracles.py``, which the tests hold
    this one to, derives each K = 0 with a > b or raises.
    """
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    matched = {(0, b): b"\x01" for b in range(n + 1)}
    surplus = dict(matched)

    def level(a, b):
        """w, 1 + t at t = 2^(8w), D, and the terms with tau = s >= 1."""
        w = a * b // 8 + 1
        one_plus_t = (1 << 8 * w) + 1

        def term(s, tau):
            """C(b, tau) M(tau, s) K(a-s, b-tau): the term without C(a, s) and its power."""
            return (
                math.comb(b, tau)
                * _widen(matched[tau, s], tau * s, w)
                * _widen(surplus[a - s, b - tau], (a - s) * (b - tau), w)
            )

        deficient = tight = 0
        for s in range(1, a + 1):
            x = one_plus_t ** (a - s)
            acc = 0
            for tau in reversed(range(s)):
                acc = acc * x + term(s, tau)
            deficient += math.comb(a, s) * acc
            if a < b:
                tight += math.comb(a, s) * term(s, s) * x**s
        return w, one_plus_t, deficient, tight

    for b in range(1, n + 1):
        for a in range(1, b + 1):
            w, one_plus_t, deficient, tight = level(a, b)
            if a == n:  # the last level: its D is the table
                break
            size = w * (a * b + 1)
            matchable = one_plus_t ** (a * b) - deficient
            matched[a, b] = matchable.to_bytes(size, "little")
            if a < b:
                surplus[a, b] = (matchable - tight).to_bytes(size, "little")
    return CoefficientTable.from_counts(
        TypeSpec("A", n), _digits(deficient, w, n * n + 1), ROUTE_GENERATING_FUNCTION
    )


def series_table(spec: TypeSpec) -> CoefficientTable:
    """The series route's table for spec's family: the one place that maps a
    family to its series.  The names are read when called, so a rebinding of
    one of them (a tracer's wrapper, a test's patch) sees every call."""
    series = {"A": gf_deficiency_table, "B": gf_reachability_table, "C": gf_edge_table}
    return series[spec.family](spec.n)
