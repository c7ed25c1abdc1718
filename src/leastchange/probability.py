"""Probability that a random family matrix is pertinent, as a function of r.

With E(i) counting pertinent matrices that have exactly i one-valued
variable elements, the probability is sum_i E(i) * r^i * (1-r)^(m-i).
The weighted-power basis is the only representation (it is numerically
stable on [0, 1]).  At r = p/q the value is N / q^m with the integer
N = sum_i E(i) p^i (q-p)^(m-i), so exact evaluation is one Horner pass in
integers and a single Fraction at the end.  Curves skip even that Fraction:
a sample keeps P_A, P_B and P_C as integers over the common denominator
q^(n^2) (the largest of the three m), the chain is tested on those integers,
and each CSV value is one integer true division, which rounds the rational
exactly as ``float(Fraction)`` does.  The default tables come from the series
routes of ``genfunc``, so curves never enumerate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError
from .genfunc import series_table
from .matrices import TypeSpec
from .tables import CoefficientTable

CURVE_MAX_N = 5


@dataclass(frozen=True)
class ProbabilityPolynomial:
    table: CoefficientTable

    def evaluate(self, r):
        """P(r): a reduced Fraction for rational r (Fraction, int, Decimal),
        a float for other reals (float, numpy floats)."""
        exact = isinstance(r, numbers.Rational) or not isinstance(r, numbers.Real)
        r = Fraction(r) if exact else float(r)
        if not 0 <= r <= 1:
            raise ValueError(f"r={r} outside [0, 1]")
        if not exact:
            return float(self._homogeneous(r, 1.0 - r))
        p, q = r.numerator, r.denominator
        return Fraction(self._homogeneous(p, q - p), q**self.table.spec.m)

    def _homogeneous(self, p, s):
        """sum_i E(i) p^i s^(m-i), by Horner in p carrying the powers of s."""
        coeffs = self.table.coeffs
        acc, s_pow = 0, s ** (self.table.spec.m + 1 - len(coeffs))
        for c in reversed(coeffs):
            acc = acc * p + c * s_pow
            s_pow *= s
        return acc

    def bernstein_terms(self) -> tuple[tuple[int, int, int], ...]:
        """(coefficient, power of r, power of 1-r) triples, ascending i."""
        m = self.table.spec.m
        return tuple((c, i, m - i) for i, c in enumerate(self.table.coeffs))


def family_tables(n: int) -> dict[str, CoefficientTable]:
    """Default tables for all three families at dimension n, n <= 5.

    All three come from the series routes (``genfunc.series_table``).  The
    test suite pins A and B against exhaustive enumeration and C against
    enumeration and the DAG census.  The series reach further, but past
    n = 5 the sampled chain boundary is not to be trusted, so curves stop
    there.
    """
    if not 1 <= n <= CURVE_MAX_N:
        raise DimensionError(f"curves support n = 1..{CURVE_MAX_N}, got {n}")
    return {family: series_table(TypeSpec(family, n)) for family in "ABC"}


@dataclass(frozen=True)
class CurveSample:
    """P_A, P_B and P_C at r as numerators a, b, c over one positive denominator.

    Curves keep the Horner integers over q^(n^2) at r = p/q, so P_A is
    ``Fraction(a, denominator)``.
    """

    r: Fraction
    a: numbers.Rational
    b: numbers.Rational
    c: numbers.Rational
    denominator: int = 1


CSV_HEADER = "r,P_A,P_B,P_C"


def _format(value) -> str:
    # 17 significant digits round-trips doubles and keeps diffs stable
    return f"{float(value):.17g}"


def _samples(n: int, grid, tables) -> list[CurveSample]:
    """P_A, P_B and P_C at every r of the grid (default tables if None)."""
    tables = tables or family_tables(n)
    specs = [TypeSpec(f, n) for f in ("A", "B", "C")]
    if [tables[s.family].spec for s in specs] != specs:
        raise ValueError(f"tables must belong to families A, B, C at n={n}")
    polys = [ProbabilityPolynomial(tables[s.family]) for s in specs]
    # P = N / q^m for each family; lifting N by q^(n^2 - m) shares q^(n^2)
    lifts = [n * n - s.m for s in specs]
    samples = []
    for r in grid:
        p, q = r.numerator, r.denominator
        a, b, c = (f._homogeneous(p, q - p) * q**k for f, k in zip(polys, lifts))
        samples.append(CurveSample(r, a, b, c, q ** (n * n)))
    return samples


def emit_curve(n: int, grid_step, sink=None, tables=None) -> list[CurveSample]:
    """Sample all three probabilities on an interior grid; optionally as CSV.

    The grid is step, 2*step, ... strictly inside (0, 1).
    """
    step = Fraction(grid_step)
    if not 0 < step < 1:
        raise ValueError(f"grid step {step} outside (0, 1)")
    samples = _samples(n, (k * step for k in range(1, math.ceil(1 / step))), tables)
    if sink is not None:
        sink.write(CSV_HEADER + "\n")
        for s in samples:
            values = (s.r, s.a / s.denominator, s.b / s.denominator, s.c / s.denominator)
            sink.write(",".join(_format(v) for v in values) + "\n")
    return samples


def _chain_holds(sample: CurveSample) -> bool:
    # a, b and c share one positive denominator, so they compare as P_A, P_B, P_C
    a, b, c = sample.a, sample.b, sample.c
    return a > b > c and (a - b) > (b - c)


@dataclass(frozen=True)
class ChainReport:
    """Where the ordering A > B > C with widening gaps starts to hold."""

    n: int
    lo: Fraction
    hi: Fraction
    step: Fraction
    holding_count: int
    failing_count: int
    largest_failing: Fraction | None
    smallest_holding_above: Fraction | None

    @property
    def bracket(self) -> tuple[Fraction, Fraction] | None:
        if self.largest_failing is None or self.smallest_holding_above is None:
            return None
        return (self.largest_failing, self.smallest_holding_above)

    @property
    def never_holds(self) -> bool:
        return self.holding_count == 0

    @property
    def always_holds(self) -> bool:
        return self.failing_count == 0


def find_order_violation(
    n: int, lo, hi, step=Fraction(1, 1000), tables=None
) -> ChainReport:
    """Exact scan of the chain on a rational grid; reports the boundary.

    Rational evaluation avoids any float ambiguity right at the boundary;
    the bracket is (largest failing sample, next sample, which holds).
    """
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    if not 0 <= lo < hi <= 1 or step <= 0:
        raise ValueError("need 0 <= lo < hi <= 1 and step > 0")
    grid = (lo + k * step for k in range(math.floor((hi - lo) / step) + 1))
    holding = failing = 0
    largest_failing = smallest_holding_above = None
    for sample in _samples(n, (r for r in grid if 0 < r < 1), tables):
        if not _chain_holds(sample):
            failing += 1
            largest_failing, smallest_holding_above = sample.r, None
        else:
            holding += 1
            if largest_failing is not None and smallest_holding_above is None:
                smallest_holding_above = sample.r
    return ChainReport(
        n, lo, hi, step, holding, failing, largest_failing, smallest_holding_above
    )
