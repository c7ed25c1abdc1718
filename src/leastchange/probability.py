"""Probability that a random family matrix is pertinent, as a function of r.

With E(i) counting pertinent matrices that have exactly i one-valued
variable elements, the probability is sum_i E(i) * r^i * (1-r)^(m-i).
The weighted-power basis is kept as the primary representation (it is
numerically stable on [0, 1]); expansion into plain monomials exists only
for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .matrices import TypeSpec
from .tables import CoefficientTable


@dataclass(frozen=True)
class ProbabilityPolynomial:
    spec: TypeSpec
    table: CoefficientTable

    def evaluate(self, r):
        """Exact for Fraction/int arguments, floating point for float."""
        exact = not isinstance(r, float)
        r = Fraction(r) if exact else r
        if r < 0 or r > 1:
            raise ValueError(f"r={r} outside [0, 1]")
        one = Fraction(1) if exact else 1.0
        s = one - r
        m = self.spec.m
        r_pow = [one]
        s_pow = [one]
        for _ in range(m):
            r_pow.append(r_pow[-1] * r)
            s_pow.append(s_pow[-1] * s)
        total = sum(c * r_pow[i] * s_pow[m - i] for i, c in enumerate(self.table.coeffs))
        return total if exact else float(total)

    def bernstein_terms(self) -> tuple[tuple[int, int, int], ...]:
        """(coefficient, power of r, power of 1-r) triples, ascending i."""
        m = self.spec.m
        return tuple((c, i, m - i) for i, c in enumerate(self.table.coeffs))

    def monomial_coefficients(self) -> tuple[int, ...]:
        """Exact expansion into powers of r, degree 0..m."""
        m = self.spec.m
        out = [0] * (m + 1)
        for i, c in enumerate(self.table.coeffs):
            if c == 0:
                continue
            for k in range(m - i + 1):
                out[i + k] += c * math.comb(m - i, k) * (-1) ** k
        return tuple(out)

    def evaluate_monomial(self, r) -> Fraction:
        """Horner evaluation of the monomial expansion; cross-check path."""
        acc = Fraction(0)
        for c in reversed(self.monomial_coefficients()):
            acc = acc * r + c
        return acc


def build(spec: TypeSpec, table: CoefficientTable) -> ProbabilityPolynomial:
    if table.spec != spec:
        raise ValueError(f"table belongs to {table.spec}, not {spec}")
    return ProbabilityPolynomial(spec, table)


def family_tables(n: int) -> dict[str, CoefficientTable]:
    """Default tables for all three families at dimension n.

    A and B come from exhaustive enumeration (so n <= 5); C comes from the
    generating-function route, which the test suite pins against the other
    two routes.
    """
    from .enumeration import count_pertinent
    from .genfunc import gf_edge_table

    return {
        "A": count_pertinent(TypeSpec("A", n)),
        "B": count_pertinent(TypeSpec("B", n)),
        "C": gf_edge_table(n),
    }


@dataclass(frozen=True)
class CurveSample:
    r: Fraction
    p_a: Fraction
    p_b: Fraction
    p_c: Fraction


CSV_HEADER = "r,P_A,P_B,P_C"


def _format(value) -> str:
    # 17 significant digits round-trips doubles and keeps diffs stable
    return f"{float(value):.17g}"


def emit_curve(n: int, grid_step, sink=None, tables=None) -> list[CurveSample]:
    """Sample all three probabilities on an interior grid; optionally as CSV.

    The grid is step, 2*step, ... strictly inside (0, 1).
    """
    step = Fraction(grid_step)
    if not 0 < step < 1:
        raise ValueError(f"grid step {step} outside (0, 1)")
    tables = tables or family_tables(n)
    polys = {f: build(TypeSpec(f, n), tables[f]) for f in ("A", "B", "C")}
    samples = []
    k = 1
    while k * step < 1:
        r = k * step
        samples.append(
            CurveSample(
                r,
                polys["A"].evaluate(r),
                polys["B"].evaluate(r),
                polys["C"].evaluate(r),
            )
        )
        k += 1
    if sink is not None:
        sink.write(CSV_HEADER + "\n")
        for s in samples:
            row = ",".join(_format(v) for v in (s.r, s.p_a, s.p_b, s.p_c))
            sink.write(row + "\n")
    return samples


def _chain_holds(sample: CurveSample) -> bool:
    a, b, c = sample.p_a, sample.p_b, sample.p_c
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
    tables = tables or family_tables(n)
    polys = {f: build(TypeSpec(f, n), tables[f]) for f in ("A", "B", "C")}

    holding = 0
    grid: list[Fraction] = []
    outcomes: list[bool] = []
    r = lo
    while r <= hi:
        if 0 < r < 1:
            sample = CurveSample(
                r,
                polys["A"].evaluate(r),
                polys["B"].evaluate(r),
                polys["C"].evaluate(r),
            )
            grid.append(r)
            ok = _chain_holds(sample)
            outcomes.append(ok)
            holding += ok
        r += step

    failing = len(grid) - holding
    largest_failing = None
    smallest_holding_above = None
    for r, ok in zip(grid, outcomes):
        if not ok:
            largest_failing = r
    if largest_failing is not None:
        for r, ok in zip(grid, outcomes):
            if r > largest_failing and ok:
                smallest_holding_above = r
                break
    return ChainReport(
        n, lo, hi, step, holding, failing, largest_failing, smallest_holding_above
    )
