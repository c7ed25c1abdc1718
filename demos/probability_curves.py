"""Probability that a determinant barely moves, as a function of density.

Perturbing entry (i, j) of a matrix changes the determinant by the cofactor
of that entry times the perturbation, so the perturbation matters least
exactly when the complementary submatrix has the least interesting
determinant.  For the three random families that reduces to the probability
that the submatrix's 0/1 support pattern is pertinent, which is a polynomial
in the density r of nonzero entries:

    P(r) = sum_i  count(i) * r^i * (1 - r)^(m - i)

This script evaluates those polynomials exactly, writes the n=5 curves as
CSV, and pins down where the intuitive ordering P_A > P_B > P_C with
widening gaps starts to hold.  The whole script runs in well under a second.
"""

import io
from fractions import Fraction

from leastchange import (
    ProbabilityPolynomial,
    TypeSpec,
    count_pertinent,
    emit_curve,
    family_tables,
    find_order_violation,
)

# Exact evaluation anywhere in [0, 1]: at density 1/2 every assignment is
# equally likely, so P(1/2) * 2^m must equal the pertinent count exactly.
p_a2 = ProbabilityPolynomial(count_pertinent(TypeSpec("A", 2)))
print("P_A2(1/2) =", p_a2.evaluate(Fraction(1, 2)), "(times 2^4:",
      p_a2.evaluate(Fraction(1, 2)) * 16, "pertinent matrices)")
print("P_A2 as (E(i), power of r, power of 1-r):", p_a2.bernstein_terms(),
      "= (1 - r^2)^2")

# ---------------------------------------------------------------------------
# The n=5 curves.  CSV columns are r, P_A, P_B, P_C with 17-significant-digit
# values, so files diff cleanly across runs and platforms.
# ---------------------------------------------------------------------------
tables = family_tables(5)
sink = io.StringIO()
samples = emit_curve(5, Fraction(1, 100), sink=sink, tables=tables)
lines = sink.getvalue().splitlines()
print(f"\nn=5 curve: {len(samples)} samples")
print(lines[0])
for k in (0, 9, 49, 97):
    print(lines[1 + k])

# ---------------------------------------------------------------------------
# One might expect removing randomness (A -> B -> C) to lower the probability
# step by step, with the first step costing more than the second:
# P_A > P_B > P_C and P_A - P_B > P_B - P_C.  That chain holds only for
# densities above a boundary; locate it with an exact rational scan.
# ---------------------------------------------------------------------------
report = find_order_violation(
    5, Fraction(1, 100), Fraction(99, 100), Fraction(1, 1000), tables=tables
)
lo, hi = report.bracket
print(f"\nchain holds at {report.holding_count} of "
      f"{report.holding_count + report.failing_count} sampled densities")
print(f"boundary bracket: ({lo}, {hi}) = ({float(lo)}, {float(hi)})")

# For n=1 the chain never appears: the A and B polynomials coincide (one
# variable cell each) and the C "matrix" is the constant 1.
tiny = find_order_violation(1, Fraction(1, 100), Fraction(99, 100), Fraction(1, 100))
print("n=1 chain ever holds:", not tiny.never_holds)
