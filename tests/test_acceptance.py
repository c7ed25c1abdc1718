"""Acceptance gate: each numbered criterion at its stated tolerance.

Every test prints one pass/fail line (visible with ``pytest -s``).
Criterion 4 pins a misprint in the published family-A total at n=5: the
quoted 10363661 differs in one digit from 10363361, the sum of the published
n=5 row, which criterion 1 and the multiset recount in test_enumeration.py
both reproduce.  The enumeration is asserted against the row, and the quote is
asserted to be that one-digit misprint and the only total that disagrees.
See reference.py.
"""

import io
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import identity_matrix, matrix_to_digraph, zero_matrix

from leastchange import (
    BinaryMatrix,
    ProbabilityPolynomial,
    RationalMatrix,
    TypeSpec,
    ValueSet,
    attaining_matrices,
    attaining_patterns,
    check_inclusion,
    complement_identity_check,
    count_dags_by_edges,
    count_pertinent,
    counterexample_report,
    edge_polynomial,
    emit_curve,
    find_order_violation,
    gf_edge_table,
    has_perfect_matching,
    is_acyclic,
    least_determinant,
    least_determinant_binary,
    permanent_expansion,
)
from leastchange.enumeration import _table_cache
from leastchange.reference import PUBLISHED_TOTALS, REFERENCE_COUNTS

HALF = Fraction(1, 2)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {description}")
        raise
    else:
        print(f"criterion {num:2d}: PASS  {description}")


def fresh_table(family, n):
    """Compute with a cold cache so the measured time is honest."""
    _table_cache.pop((family, n), None)
    return count_pertinent(TypeSpec(family, n))


def test_criterion_01_table_reproduction():
    with criterion(1, "tables reproduced exactly, within the stated runtimes"):
        for family in "ABC":
            for n in range(1, 5):
                t0 = time.perf_counter()
                table = fresh_table(family, n)
                elapsed = time.perf_counter() - t0
                assert table.coeffs == REFERENCE_COUNTS[family][n]
                assert elapsed < 1.0, f"({family}, {n}) took {elapsed:.2f}s"

        for family in "CB":
            assert fresh_table(family, 5).coeffs == REFERENCE_COUNTS[family][5]

        t0 = time.perf_counter()
        table_a5 = fresh_table("A", 5)
        elapsed = time.perf_counter() - t0
        assert table_a5.coeffs == REFERENCE_COUNTS["A"][5]
        assert elapsed < 120.0, f"(A, 5) took {elapsed:.1f}s against the 2-minute target"


def test_criterion_02_triple_route_agreement():
    with criterion(2, "enumeration, census and series routes agree bit-exactly"):
        for n in range(1, 6):
            enumerated = count_pertinent(TypeSpec("C", n)).coeffs
            census = count_dags_by_edges(n).coeffs
            series = gf_edge_table(n).coeffs
            assert enumerated == census == series


def test_criterion_03_worked_example():
    with criterion(3, "n=4 series polynomial and its probability expansion"):
        poly = edge_polynomial(4)
        assert poly.coefficients == (1, 12, 60, 152, 186, 108, 24)
        prob = ProbabilityPolynomial(gf_edge_table(4))
        assert prob.bernstein_terms() == (
            (1, 0, 12),
            (12, 1, 11),
            (60, 2, 10),
            (152, 3, 9),
            (186, 4, 8),
            (108, 5, 7),
            (24, 6, 6),
        )


def test_criterion_04_sequence_totals():
    with criterion(4, "published sequence totals (known A n=5 inconsistency)"):
        totals_c = tuple(count_pertinent(TypeSpec("C", n)).total for n in range(1, 6))
        assert totals_c == PUBLISHED_TOTALS["C"]

        for n in range(1, 6):  # family B: self-consistency only, no published total
            assert count_pertinent(TypeSpec("B", n)).total == sum(REFERENCE_COUNTS["B"][n])

        totals_a = tuple(count_pertinent(TypeSpec("A", n)).total for n in range(1, 6))
        assert totals_a[:4] == PUBLISHED_TOTALS["A"][:4]

        row_sum = sum(REFERENCE_COUNTS["A"][5])
        assert totals_a[4] == row_sum, (
            f"enumerated A n=5 total {totals_a[4]} is off the published row sum {row_sum}"
        )

        # The erratum: the quoted A n=5 total is the row sum with one decimal
        # digit misprinted, and it is the only published total that disagrees.
        quoted, counted = str(PUBLISHED_TOTALS["A"][4]), str(row_sum)
        digits_off = sum(q != c for q, c in zip(quoted, counted))
        assert len(quoted) == len(counted) and digits_off == 1, (
            f"published A n=5 total {quoted} is no longer a one-digit misprint of {counted}"
        )
        enumerated = {"A": totals_a, "C": totals_c}
        mismatches = [
            (family, n)
            for family, totals in enumerated.items()
            for n, (got, published) in enumerate(zip(totals, PUBLISHED_TOTALS[family]), 1)
            if got != published
        ]
        assert mismatches == [("A", 5)]


def test_criterion_05_permanent_acyclicity_bridge():
    with criterion(5, "permanent 1 iff acyclic, every unit-diagonal matrix n<=4"):
        checked = 0
        for n in range(1, 5):
            spec = TypeSpec("C", n)
            for bits in range(1 << spec.m):
                matrix = spec.matrix_from_bits(bits)
                acyclic = is_acyclic(matrix_to_digraph(matrix))
                assert (permanent_expansion(matrix) == 1) == acyclic
                checked += 1
        assert checked == 1 + 4 + 64 + 4096


def test_criterion_06_matching_oracle():
    with criterion(6, "permanent 0 iff no perfect matching, every matrix n<=4"):
        checked = 0
        for n in range(1, 5):
            for bits in range(1 << (n * n)):
                rows = tuple((bits >> (n * i)) & ((1 << n) - 1) for i in range(n))
                matrix = BinaryMatrix(n, rows)
                matchable = has_perfect_matching(matrix)
                assert (permanent_expansion(matrix) == 0) == (not matchable)
                checked += 1
        assert checked == 2 + 16 + 512 + 65536


def test_criterion_07_normalization_anchor():
    with criterion(7, "P(1/2) * 2^m equals the pertinent total, exactly"):
        for family in "ABC":
            for n in range(1, 6):
                spec = TypeSpec(family, n)
                table = count_pertinent(spec)
                assert ProbabilityPolynomial(table).evaluate(HALF) * 2**spec.m == table.total


def test_criterion_08_figure_behavior():
    with criterion(8, "n=5 ordering chain boundary sits inside [0.15, 0.21]"):
        tables = {f: count_pertinent(TypeSpec(f, 5)) for f in "ABC"}
        sink = io.StringIO()
        samples = emit_curve(5, Fraction(1, 100), sink=sink, tables=tables)
        assert len(samples) == 99
        assert sink.getvalue().startswith("r,P_A,P_B,P_C\n")

        def chain(s):
            a, b, c = (Fraction(x, s.denominator) for x in (s.a, s.b, s.c))
            return a > b > c and (a - b) > (b - c)

        assert all(chain(s) for s in samples if s.r >= Fraction(21, 100))
        assert any(not chain(s) for s in samples if s.r <= Fraction(15, 100))

        report = find_order_violation(
            5, Fraction(1, 100), Fraction(99, 100), Fraction(1, 1000), tables=tables
        )
        lo, hi = report.bracket
        assert lo < hi
        assert hi >= Fraction(15, 100) and lo <= Fraction(21, 100), (
            f"boundary bracket [{lo}, {hi}] misses [0.15, 0.21]"
        )


def test_criterion_09_value_set_suite():
    with criterion(9, "discrete/continuous value-set instances, all exact"):
        c2 = TypeSpec("C", 2)
        a2 = TypeSpec("A", 2)
        x_dis = ValueSet.discrete([0, HALF, 2])
        x_cnt = ValueSet.continuous(0, 2)

        # least values
        assert least_determinant(c2, x_dis) == 0
        assert least_determinant(c2, ValueSet.discrete([0, HALF])) == Fraction(3, 4)
        assert least_determinant(c2, x_cnt) == 1

        # attaining support classes over the continuous set, with partition
        attaining_cnt = attaining_matrices(c2, x_cnt)
        identity = identity_matrix(2)
        upper = BinaryMatrix.from_rows([[1, 1], [0, 1]])
        lower = BinaryMatrix.from_rows([[1, 0], [1, 1]])
        assert set(attaining_cnt.members) == {identity, upper, lower}
        assert attaining_cnt.partition() == {0: (identity,), 1: (upper, lower)}

        # attaining assignments over the discrete set, with partition
        attaining_dis = attaining_matrices(c2, x_dis)
        two = RationalMatrix.from_rows([[1, 2], [HALF, 1]])
        half = RationalMatrix.from_rows([[1, HALF], [2, 1]])
        assert set(attaining_dis.members) == {two, half}
        assert set(attaining_dis.partition()) == {2}

        # binarized sides
        patterns_cnt = attaining_patterns(c2, x_cnt)
        assert set(patterns_cnt.members) == {identity, upper, lower}
        assert patterns_cnt.partition() == {0: (identity,), 1: (upper, lower)}
        patterns_dis = attaining_patterns(c2, x_dis)
        assert patterns_dis.members == (BinaryMatrix.ones(2),)
        assert patterns_dis.partition() == {2: (BinaryMatrix.ones(2),)}

        # the nine fully-random patterns, and the discrete extra member
        nine = {
            zero_matrix(2),
            BinaryMatrix.from_rows([[1, 0], [0, 0]]),
            BinaryMatrix.from_rows([[0, 1], [0, 0]]),
            BinaryMatrix.from_rows([[0, 0], [1, 0]]),
            BinaryMatrix.from_rows([[0, 0], [0, 1]]),
            BinaryMatrix.from_rows([[1, 1], [0, 0]]),
            BinaryMatrix.from_rows([[0, 0], [1, 1]]),
            BinaryMatrix.from_rows([[1, 0], [1, 0]]),
            BinaryMatrix.from_rows([[0, 1], [0, 1]]),
        }
        assert set(attaining_patterns(a2, x_cnt).members) == nine
        assert set(attaining_patterns(a2, x_dis).members) == nine | {BinaryMatrix.ones(2)}

        # inclusion behavior
        assert check_inclusion("A", 2, x_dis, x_cnt).holds
        assert check_inclusion("A", 2, x_dis, x_cnt).difference == (BinaryMatrix.ones(2),)
        assert check_inclusion("B", 2, x_dis, x_cnt).holds
        assert not check_inclusion("C", 2, x_dis, x_cnt).holds

        # {0,1} inside [0,1]: divergent least values, disjoint pattern sets
        x01 = ValueSet.discrete([0, 1])
        x01_cnt = ValueSet.continuous(0, 1)
        assert least_determinant(c2, x01_cnt) == 1
        assert least_determinant_binary(c2, x01_cnt) == 1
        assert least_determinant(c2, x01) == 0
        assert least_determinant_binary(c2, x01) == 0
        assert attaining_matrices(c2, x01).members == (BinaryMatrix.ones(2).to_rational(),)
        assert attaining_patterns(c2, x01).members == (BinaryMatrix.ones(2),)
        assert check_inclusion("C", 2, x01, x01_cnt).disjoint

        # exact polynomial identity between the two sides
        comp = complement_identity_check()
        assert comp.ok
        assert comp.continuous_coeffs == (1, 0, -1)
        assert comp.discrete_coeffs == (0, 0, 1)
        assert comp.sum_coeffs == (1,)

        # every hard-wired witness claim
        report = counterexample_report()
        failures = [c.description for c in report.claims if not c.ok]
        assert not failures, failures


def test_criterion_10_series_extension_beyond_tables():
    with criterion(10, "n=6 series polynomial against an independent census"):
        poly = edge_polynomial(6)
        oracle = count_dags_by_edges(6)
        assert len(poly.coefficients) - 1 == 15
        assert poly.coefficients[-1] == 720
        assert sum(poly.coefficients) == oracle.total
        assert poly.coefficients == oracle.coeffs
