import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    a_end_coefficients,
    b_end_coefficients,
    checked_deficiency_table,
    coefficient_at,
    coefficient_by_differentiation,
    derivative,
    evaluate_polynomial,
    schoolbook_product,
    z_series,
)

from leastchange import (
    DimensionError,
    Polynomial,
    TypeSpec,
    WeightedSeries,
    count_dags_by_edges,
    count_pertinent,
    edge_polynomial,
    family_tables,
    genfunc,
    gf_deficiency_table,
    gf_edge_table,
    gf_reachability_table,
    one_plus_t_power,
    reciprocal,
    z_series_neg,
)
from leastchange.enumeration import _row_counts
from leastchange.reference import PUBLISHED_TOTALS, REFERENCE_COUNTS
from leastchange.genfunc import series_table
from leastchange.tables import ROUTE_GENERATING_FUNCTION, ROUTE_MAX_N, ROUTES, check_reach


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert Polynomial((0, 0)).is_zero()

    def test_arithmetic(self):
        p = Polynomial((1, 1))
        assert (p * p).coefficients == (1, 2, 1)
        assert (p + Polynomial((0, 0, 3))).coefficients == (1, 1, 3)
        assert (p - p).is_zero()
        assert (2 * p).coefficients == (2, 2)
        assert (p**3).coefficients == (1, 3, 3, 1)

    def test_evaluate(self):
        p = Polynomial((1, 0, -1))
        assert evaluate_polynomial(p, Fraction(1, 2)) == Fraction(3, 4)
        assert evaluate_polynomial(p, 2) == -3

    def test_derivative(self):
        assert derivative(Polynomial((5, 3, 2))).coefficients == (3, 4)

    def test_rejects_fraction_coefficients(self):
        with pytest.raises(TypeError):
            Polynomial((Fraction(1, 2),))

    def test_numpy_integers_become_ints(self):
        p = Polynomial((np.int64(3), 1))
        assert p.coefficients == (3, 1)
        assert all(type(c) is int for c in p.coefficients)

    def test_one_plus_t_power(self):
        assert one_plus_t_power(0) == Polynomial((1,))
        assert one_plus_t_power(3).coefficients == (1, 3, 3, 1)


big_int = st.integers(-(2**300), 2**300)
int_poly = st.lists(big_int, min_size=1, max_size=40).map(Polynomial)


class TestKroneckerProduct:
    """``Polynomial.__mul__`` (one packed-integer product) against the double loop."""

    @given(int_poly, int_poly)
    def test_signed_integers_match_the_schoolbook_product(self, p, q):
        assert p * q == schoolbook_product(p, q)

    @pytest.mark.parametrize("w", [1, 2, 3, 8])
    @pytest.mark.parametrize("bits_below", [1, 0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bound_on_a_byte_boundary(self, w, bits_below, sign):
        # (x + x t)(1 + t) = x + 2x t + x t^2 attains the bound 2x, taken as
        # the largest even number of bit length 8w - 1 and then of 8w
        x = 2 ** (8 * w - bits_below - 1) - 1
        assert (2 * x).bit_length() == 8 * w - bits_below
        p, q = Polynomial((sign * x, sign * x)), Polynomial((1, 1))
        expected = (sign * x, sign * 2 * x, sign * x)
        assert (p * q).coefficients == expected
        assert (q * p).coefficients == expected
        assert schoolbook_product(p, q).coefficients == expected

    def test_zero_operand(self):
        p = Polynomial((3, -1, 4))
        for zero in (Polynomial.zero(), 0):
            assert (p * zero).is_zero()
            assert (zero * p).is_zero()
        assert (Polynomial.zero() * Polynomial.zero()).is_zero()

    def test_constant_operand(self):
        p = Polynomial((3, -1, 4))
        assert (p * 2).coefficients == (6, -2, 8)
        assert (Polynomial((-5,)) * p).coefficients == (-15, 5, -20)
        assert (Polynomial((7,)) * Polynomial((-6,))).coefficients == (-42,)

    def test_every_coefficient_negative(self):
        p = Polynomial((-1, -2, -3))
        q = Polynomial((-4, -(2**200)))
        assert (p * q).coefficients == (4, 2**200 + 8, 2**201 + 12, 3 * 2**200)
        assert p * q == schoolbook_product(p, q)
        assert (p * p).coefficients == (1, 4, 10, 12, 9)


class TestTablesUnderTheOracleProduct:
    """Whole series tables with the schoolbook loop patched in as the product."""

    @pytest.mark.parametrize(
        "series, n",
        [(gf_edge_table, 24), (gf_reachability_table, 16), (gf_deficiency_table, 8)],
    )
    def test_tables_equal_coefficient_for_coefficient(self, monkeypatch, series, n):
        kernel = series(n).coeffs
        monkeypatch.setattr(Polynomial, "__mul__", schoolbook_product)
        monkeypatch.setattr(Polynomial, "__rmul__", schoolbook_product)
        assert series(n).coeffs == kernel


class TestBaseSeries:
    def test_order_zero(self):
        assert z_series(0).terms == (Polynomial((1,)),)

    def test_negated_alternates(self):
        assert [p.coefficients for p in z_series_neg(2).terms] == [(1,), (-1,), (1,)]

    def test_unfolded_coefficients_at_t0(self):
        # negated base series at t = 0 is 1 - z + z^2/2 - z^3/6 + z^4/24
        s = z_series_neg(4)
        expected = [Fraction((-1) ** n, math.factorial(n)) for n in range(5)]
        assert [coefficient_at(s, n, 0) for n in range(5)] == expected

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            z_series(-1)


# the unit series to order 8: 1, then zero terms
UNIT_TERMS = (Polynomial.one(),) + (Polynomial.zero(),) * 8


class TestReciprocal:
    def test_unit_series_is_self_inverse(self):
        unit = WeightedSeries(UNIT_TERMS[:6])
        assert reciprocal(unit).terms == unit.terms

    def test_term_four_is_the_published_polynomial(self):
        r = reciprocal(z_series_neg(4))
        assert r.terms[4].coefficients == (1, 12, 60, 152, 186, 108, 24)

    def test_term_two(self):
        assert reciprocal(z_series_neg(2)).terms[2].coefficients == (1, 2)

    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            reciprocal(WeightedSeries([Polynomial((2,)), Polynomial((1,))]))

    def test_product_with_reciprocal_is_unit_to_order_8(self):
        rng = random.Random(31337)
        for _ in range(5):
            terms = [Polynomial((1,))] + [
                Polynomial([rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))])
                for _ in range(8)
            ]
            s = WeightedSeries(terms)
            assert (s * reciprocal(s)).terms == UNIT_TERMS
            assert (reciprocal(s) * s).terms == UNIT_TERMS


class TestWeightedRingLaws:
    def _random_series(self, rng, order):
        return WeightedSeries(
            [
                Polynomial([rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))])
                for _ in range(order + 1)
            ]
        )

    def test_associative_and_commutative_order_8(self):
        rng = random.Random(4242)
        for _ in range(3):
            a = self._random_series(rng, 8)
            b = self._random_series(rng, 8)
            c = self._random_series(rng, 8)
            assert (a * b).terms == (b * a).terms
            assert ((a * b) * c).terms == (a * (b * c)).terms

    small_poly = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(Polynomial)
    small_series = st.lists(small_poly, min_size=4, max_size=4).map(WeightedSeries)

    @given(small_series, small_series)
    def test_commutative_property(self, a, b):
        assert (a * b).terms == (b * a).terms

    @given(small_series, small_series, small_series)
    def test_associative_property(self, a, b, c):
        assert ((a * b) * c).terms == (a * (b * c)).terms


class TestEdgePolynomial:
    def test_published_n4(self):
        p = edge_polynomial(4)
        assert p.coefficients == (1, 12, 60, 152, 186, 108, 24)
        assert len(p.coefficients) - 1 == 6

    def test_n1_is_constant_one(self):
        assert edge_polynomial(1) == Polynomial((1,))

    def test_truncation_stability(self):
        base = edge_polynomial(4)
        for order in range(4, 9):
            assert reciprocal(z_series_neg(order)).terms[4] == base

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shape_invariants(self, n):
        p = edge_polynomial(n)
        assert len(p.coefficients) - 1 == (n * n - n) // 2
        assert p.coefficients[0] == 1
        assert all(c > 0 for c in p.coefficients)
        assert p.coefficients[-1] == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_leading_coefficient_against_census(self, n):
        # count of transitive tournaments, checked rather than assumed
        assert edge_polynomial(n).coefficients[-1] == count_dags_by_edges(n).coeffs[-1]

    def test_integer_coefficients_only(self):
        for n in range(1, 11):
            assert all(isinstance(c, int) for c in edge_polynomial(n).coefficients)

    def test_derivative_extraction_agrees_with_indexing(self):
        p = edge_polynomial(5)
        for e, c in enumerate(p.coefficients):
            assert coefficient_by_differentiation(p, e) == c

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            edge_polynomial(0)
        with pytest.raises(DimensionError):
            edge_polynomial(25)

    def test_large_n_coefficient_sum_is_odd(self):
        # the t=1 value counts labeled DAGs, which is odd for every n
        # (pair each non-self-converse DAG with its converse)
        for n in (8, 12):
            assert sum(edge_polynomial(n).coefficients) % 2 == 1


class TestGfTable:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_reference_rows(self, n):
        table = gf_edge_table(n)
        assert table.coeffs == REFERENCE_COUNTS["C"][n]
        assert table.route == ROUTE_GENERATING_FUNCTION

    def test_triple_route_agreement(self):
        for n in range(1, 6):
            enum = count_pertinent(TypeSpec("C", n)).coeffs
            census = count_dags_by_edges(n).coeffs
            series = gf_edge_table(n).coeffs
            assert enum == census == series

    def test_beyond_enumeration_range(self):
        table = gf_edge_table(6)
        assert table.total == 3781503
        assert len(table.coeffs) == 16


ZERO_PERMANENT_SERIES = [("A", gf_deficiency_table), ("B", gf_reachability_table)]


class TestZeroPermanentSeries:
    """The A and B series against enumeration, their oracle, and the published rows."""

    @pytest.mark.parametrize("family, series", ZERO_PERMANENT_SERIES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_enumeration_and_reference(self, family, series, n):
        table = series(n)
        assert table.route == ROUTE_GENERATING_FUNCTION
        assert table.spec == TypeSpec(family, n)
        assert table.coeffs == count_pertinent(table.spec).coeffs
        assert table.coeffs == REFERENCE_COUNTS[family][n]

    def test_a_totals_match_the_published_sequence(self):
        # OEIS A088672; the quoted n = 5 total is the pinned one-digit misprint
        totals = [gf_deficiency_table(n).total for n in range(1, 6)]
        assert totals[:4] == list(PUBLISHED_TOTALS["A"][:4])
        assert totals[4] == 10_363_361 != PUBLISHED_TOTALS["A"][4]

    def test_a6_total_and_tail(self):
        table = gf_deficiency_table(6)
        assert table.total == 13_906_734_081
        assert table.coeffs[-3:] == (5220, 360, 12)

    def test_b6_total(self):
        assert gf_reachability_table(6).total == 79_331_328

    @pytest.mark.parametrize("n", range(1, 6))
    def test_family_tables_are_pinned_by_enumeration(self, n):
        tables = family_tables(n)
        for family in "AB":
            assert tables[family].route == ROUTE_GENERATING_FUNCTION
            assert tables[family].coeffs == count_pertinent(TypeSpec(family, n)).coeffs

    def test_surplus_self_check_raises(self, monkeypatch):
        # a wrong (1+t)^0 breaks the identity K(a, b) = 0 for a > b at 2x1,
        # which the checked solve derives and the lean one skips
        real = genfunc.one_plus_t_power

        def broken(exponent):
            return real(exponent) + (Polynomial.variable() if exponent == 0 else 0)

        monkeypatch.setattr(genfunc, "one_plus_t_power", broken)
        with pytest.raises(RuntimeError, match="surplus at 2x1"):
            checked_deficiency_table(4)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lean_solve_equals_checked_solve(self, n):
        assert gf_deficiency_table(n).coeffs == checked_deficiency_table(n).coeffs

    @pytest.mark.parametrize("family, series", ZERO_PERMANENT_SERIES)
    def test_dimension_guard(self, family, series):
        for n in (0, 25):
            with pytest.raises(DimensionError):
                series(n)


END_COEFFICIENTS = [("A", a_end_coefficients), ("B", b_end_coefficients)]


def assert_ends(ends, counts):
    assert {i: counts[i] for i in ends} == ends


class TestEndCoefficients:
    """A's and B's proven end coefficients against the counted rows and the series."""

    @pytest.mark.parametrize("family, ends", END_COEFFICIENTS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_reference_rows(self, family, ends, n):
        assert_ends(ends(n), REFERENCE_COUNTS[family][n])

    @pytest.mark.parametrize("family, ends", END_COEFFICIENTS)
    def test_row_dp_at_6(self, family, ends):
        assert_ends(ends(6), _row_counts(TypeSpec(family, 6)))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_a_series(self, n):
        assert_ends(a_end_coefficients(n), gf_deficiency_table(n).coeffs)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_b_series(self, n):
        assert_ends(b_end_coefficients(n), gf_reachability_table(n).coeffs)


class TestRouteMap:
    """``series_table`` maps each family to its series; ``check_reach`` bounds every route."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_series_table_is_the_family_series(self, n):
        named = {"A": gf_deficiency_table, "B": gf_reachability_table, "C": gf_edge_table}
        for family, series in named.items():
            assert series_table(TypeSpec(family, n)) == series(n)

    def test_series_table_reads_the_names_when_called(self, monkeypatch):
        calls = []

        def traced(n):
            calls.append(n)
            return gf_edge_table(n)

        monkeypatch.setattr(genfunc, "gf_edge_table", traced)
        assert series_table(TypeSpec("C", 4)).total == 543
        assert family_tables(3)["C"].total == 25
        assert calls == [4, 3]

    @pytest.mark.parametrize("route", ROUTES)
    def test_check_reach_bounds_every_route(self, route):
        cap = ROUTE_MAX_N[route]
        check_reach(route, 1)
        check_reach(route, cap)
        for n in (0, cap + 1):
            with pytest.raises(DimensionError, match=f"route {route} supports n = 1..{cap}"):
                check_reach(route, n)
