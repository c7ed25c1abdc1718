import io
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    evaluate_monomial,
    evaluate_power_sum,
    find_order_violation_three_pass,
    monomial_coefficients,
)

from leastchange import (
    DimensionError,
    ProbabilityPolynomial,
    TypeSpec,
    count_pertinent,
    emit_curve,
    family_tables,
    find_order_violation,
    gf_edge_table,
)
from leastchange.probability import CSV_HEADER


def poly(family, n):
    spec = TypeSpec(family, n)
    table = gf_edge_table(n) if family == "C" else count_pertinent(spec)
    return ProbabilityPolynomial(table)


class TestBuild:
    def test_family_a_n2_terms(self):
        # (1-r)^4 + 4r(1-r)^3 + 4r^2(1-r)^2
        p = poly("A", 2)
        assert p.bernstein_terms() == ((1, 0, 4), (4, 1, 3), (4, 2, 2))

    def test_family_c_n4_matches_published_expansion(self):
        p = poly("C", 4)
        assert p.bernstein_terms() == (
            (1, 0, 12),
            (12, 1, 11),
            (60, 2, 10),
            (152, 3, 9),
            (186, 4, 8),
            (108, 5, 7),
            (24, 6, 6),
        )

    def test_family_c_n1_is_constant_one(self):
        p = poly("C", 1)
        assert p.bernstein_terms() == ((1, 0, 0),)
        assert p.evaluate(Fraction(1, 3)) == 1


class TestEvaluate:
    def test_half_point_value(self):
        assert poly("A", 2).evaluate(Fraction(1, 2)) == Fraction(9, 16)

    def test_endpoints(self):
        # the endpoints are exact values, not a reason to warn
        p = poly("A", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.evaluate(Fraction(0)) == 1
            # i_max < m, so every term carries a (1-r) factor
            assert p.evaluate(Fraction(1)) == 0

    def test_domain_errors(self):
        p = poly("A", 2)
        with pytest.raises(ValueError):
            p.evaluate(Fraction(-1, 10))
        with pytest.raises(ValueError):
            p.evaluate(1.5)

    def test_exact_type_in_exact_type_out(self):
        value = poly("B", 3).evaluate(Fraction(1, 3))
        assert isinstance(value, Fraction)
        assert isinstance(poly("B", 3).evaluate(0.25), float)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            poly("A", 2).evaluate(float("nan"))

    def test_numpy_float_takes_float_branch(self):
        p = poly("B", 3)
        value = p.evaluate(np.float32(0.25))
        assert type(value) is float
        assert value == p.evaluate(0.25)

    def test_decimal_and_int_stay_exact(self):
        p = poly("B", 3)
        assert p.evaluate(Decimal("0.25")) == p.evaluate(Fraction(1, 4))
        assert isinstance(p.evaluate(Decimal("0.25")), Fraction)
        assert isinstance(p.evaluate(0), Fraction)

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 5))
    def test_normalization_anchor(self, family, n):
        spec = TypeSpec(family, n)
        p = poly(family, n)
        assert p.evaluate(Fraction(1, 2)) * 2**spec.m == p.table.total

    def test_float_tracks_exact(self):
        for family in "ABC":
            p = poly(family, 3)
            for k in range(1, 20):
                r = Fraction(k, 20)
                assert abs(p.evaluate(float(r)) - float(p.evaluate(r))) < 1e-12

    def test_float_tracks_exact_on_the_n5_grid(self):
        for family in "ABC":
            p = poly(family, 5)
            for k in range(1, 100):
                r = Fraction(k, 100)
                assert abs(p.evaluate(float(r)) - float(p.evaluate(r))) < 1e-12


class TestMonomialBasis:
    def test_family_a_n2_expansion(self):
        # (1 - r^2)^2
        assert monomial_coefficients(poly("A", 2)) == (1, 0, -2, 0, 1)

    def test_family_b_n2_expansion(self):
        # (1 - r)^2 (1 + r)
        assert monomial_coefficients(poly("B", 2)) == (1, -1, -1, 1)

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 5))
    def test_reevaluation_identity(self, family, n):
        p = poly(family, n)
        for k in (1, 3, 7, 10):
            r = Fraction(k, 11)
            assert evaluate_monomial(p, r) == p.evaluate(r)

    def test_gap_polynomial_between_a2_and_b2(self):
        # P_A - P_B expands to r(1-r)^2(1+r), nonnegative on [0, 1]
        pa = monomial_coefficients(poly("A", 2))
        pb = monomial_coefficients(poly("B", 2)) + (0,)
        diff = tuple(a - b for a, b in zip(pa, pb))
        assert diff == (0, 1, -1, -1, 1)
        a2, b2 = poly("A", 2), poly("B", 2)
        for k in range(1, 100):
            r = Fraction(k, 100)
            assert a2.evaluate(r) >= b2.evaluate(r)


class TestKernelOracle:
    """The integer Horner kernel against the Fraction power sum."""

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_power_sum(self, family, n):
        p = poly(family, n)
        points = [Fraction(k, 60) for k in range(61)]
        points += [Fraction(2, 4), Fraction(10, 60), Fraction(0, 7), Fraction(9, 9), 0, 1]
        for r in points:
            value = p.evaluate(r)
            assert type(value) is Fraction
            assert value == evaluate_power_sum(p, r)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_curve_csv_matches_oracle(self, n):
        sink = io.StringIO()
        emit_curve(n, Fraction(1, 500), sink=sink)
        polys = [poly(f, n) for f in "ABC"]
        rows = [CSV_HEADER]
        for k in range(1, 500):
            r = Fraction(k, 500)
            values = [r] + [evaluate_power_sum(p, r) for p in polys]
            rows.append(",".join(f"{float(v):.17g}" for v in values))
        assert sink.getvalue() == "\n".join(rows) + "\n"


class TestProperties:
    @given(
        family=st.sampled_from("ABC"),
        n=st.integers(1, 5),
        r=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    )
    def test_random_rational(self, family, n, r):
        p = poly(family, n)
        value = p.evaluate(r)
        assert type(value) is Fraction
        assert 0 <= value <= 1
        assert r.denominator ** p.table.spec.m % value.denominator == 0
        assert value == evaluate_power_sum(p, r)

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 6))
    def test_exact_endpoints(self, family, n):
        p = poly(family, n)
        assert p.evaluate(0) == 1
        if n >= 2:
            assert p.evaluate(1) == 0


class TestMonotonicity:
    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(2, 6))
    def test_strictly_decreasing_on_grid(self, family, n):
        p = poly(family, n)
        values = [p.evaluate(k / 1000) for k in range(1, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEmitCurve:
    def test_sample_count_and_range(self):
        samples = emit_curve(2, Fraction(1, 4))
        assert [s.r for s in samples] == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        samples = emit_curve(3, Fraction(1, 100))
        assert len(samples) == 99
        for s in samples:
            for v in (s.p_a, s.p_b, s.p_c):
                assert 0 <= v <= 1

    def test_csv_format(self):
        sink = io.StringIO()
        emit_curve(2, Fraction(1, 4), sink=sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "r,P_A,P_B,P_C"
        assert lines[1] == "0.25,0.87890625,0.703125,0.9375"
        assert len(lines) == 4

    def test_deterministic_output(self):
        a, b = io.StringIO(), io.StringIO()
        emit_curve(3, Fraction(1, 10), sink=a)
        emit_curve(3, Fraction(1, 10), sink=b)
        assert a.getvalue() == b.getvalue()

    def test_step_validation(self):
        with pytest.raises(ValueError):
            emit_curve(2, Fraction(3, 2))

    def test_mismatched_tables_rejected(self):
        tables = family_tables(3)
        with pytest.raises(ValueError):
            emit_curve(2, Fraction(1, 4), tables=tables)
        with pytest.raises(ValueError):
            find_order_violation(2, Fraction(1, 4), Fraction(3, 4), tables=tables)
        swapped = dict(tables, A=tables["B"])
        with pytest.raises(ValueError):
            emit_curve(3, Fraction(1, 4), tables=swapped)

    def test_first_n5_sample_is_near_one(self):
        tables = {f: count_pertinent(TypeSpec(f, 5)) for f in "ABC"}
        first = emit_curve(5, Fraction(1, 100), tables=tables)[0]
        assert first.r == Fraction(1, 100)
        for v in (first.p_a, first.p_b, first.p_c):
            assert v > Fraction(98, 100)


class TestCurveSamples:
    """Samples keep integer numerators; their fields are evaluate's Fractions."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fields_are_the_evaluated_fractions(self, n):
        samples = emit_curve(n, Fraction(1, 60))
        polys = [poly(f, n) for f in "ABC"]
        assert [s.r for s in samples] == [Fraction(k, 60) for k in range(1, 60)]
        for s in samples:
            assert s.denominator == s.r.denominator ** (n * n)
            assert all(type(x) is int for x in (s.a, s.b, s.c))
            for value, p in zip((s.p_a, s.p_b, s.p_c), polys):
                expected = p.evaluate(s.r)
                assert type(value) is Fraction
                assert (value.numerator, value.denominator) == (
                    expected.numerator,
                    expected.denominator,
                )

    def test_default_tables_stop_at_n5(self):
        with pytest.raises(DimensionError):
            family_tables(6)
        with pytest.raises(DimensionError):
            emit_curve(6, Fraction(1, 4))


class TestOrderViolation:
    def test_n1_chain_never_holds(self):
        # both all-variable and near-identity 1x1 give 1-r; unit diagonal gives 1
        report = find_order_violation(1, Fraction(1, 100), Fraction(99, 100), Fraction(1, 100))
        assert report.never_holds
        assert report.bracket is None

    def test_n5_boundary_bracket_coarse(self):
        tables = family_tables(5)
        report = find_order_violation(
            5, Fraction(1, 100), Fraction(99, 100), Fraction(1, 100), tables=tables
        )
        lo, hi = report.bracket
        assert Fraction(15, 100) <= lo <= Fraction(21, 100)
        assert hi - lo == Fraction(1, 100)
        assert not report.never_holds and not report.always_holds

    @pytest.mark.parametrize("n", range(1, 6))
    def test_one_pass_equals_three_pass_scan(self, n):
        tables = family_tables(n)
        windows = [
            (Fraction(1, 100), Fraction(99, 100), Fraction(1, 1000)),
            (Fraction(1, 100), Fraction(99, 100), Fraction(1, 100)),
            (0, 1, Fraction(1, 7)),
            (0, Fraction(1, 2), Fraction(3, 40)),
            (Fraction(1, 10), 1, Fraction(2, 75)),
            (Fraction(3, 20), Fraction(1, 5), Fraction(1, 3000)),
            (Fraction(1, 100), Fraction(3, 20), Fraction(1, 60)),
            (Fraction(1, 3), Fraction(2, 3), 1),
        ]
        for lo, hi, step in windows:
            expected = find_order_violation_three_pass(n, lo, hi, step, tables=tables)
            assert find_order_violation(n, lo, hi, step, tables=tables) == expected

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            find_order_violation(2, Fraction(1, 2), Fraction(1, 4))
