import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    WeightedSeries,
    a_end_coefficients,
    b_end_coefficients,
    c_end_coefficients,
    checked_deficiency_table,
    coefficient_at,
    coefficient_by_differentiation,
    derivative,
    edge_polynomial_by_recurrence,
    edge_polynomial_by_series,
    edge_polynomials_by_sources,
    evaluate_polynomial,
    polynomial_power,
    reachability_by_layers,
    reachability_by_recurrence,
    reachability_by_series,
    reciprocal,
    schoolbook_product,
    z_series,
    z_series_neg,
)

from leastchange import (
    DimensionError,
    Polynomial,
    TypeSpec,
    count_dags_by_edges,
    count_pertinent,
    edge_polynomial,
    family_tables,
    genfunc,
    gf_deficiency_table,
    gf_edge_table,
    gf_reachability_table,
    one_plus_t_power,
)
from leastchange.enumeration import _row_counts
from leastchange.reference import PUBLISHED_TOTALS, REFERENCE_COUNTS
from leastchange.genfunc import series_table
from leastchange.tables import ROUTE_GENERATING_FUNCTION, ROUTE_MAX_N, ROUTES, check_reach


def slow(ns) -> list:
    """Cases that the default run deselects; ``pytest -m slow`` runs them."""
    return [pytest.param(n, marks=pytest.mark.slow) for n in ns]


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert Polynomial((0, 0)).coefficients == ()

    def test_arithmetic(self):
        p = Polynomial((1, 1))
        assert (p * p).coefficients == (1, 2, 1)
        assert (p + Polynomial((0, 0, 3))).coefficients == (1, 1, 3)
        assert (p - p) == Polynomial.zero()
        assert (2 * p).coefficients == (2, 2)
        assert polynomial_power(p, 3).coefficients == (1, 3, 3, 1)
        assert polynomial_power(p, 0) == Polynomial.one()

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

    def test_value_semantics(self):
        # a frozen value: equal coefficients compare and hash equal, and an
        # int is not a polynomial
        assert Polynomial((1, 2, 0)) == Polynomial((1, 2))
        assert hash(Polynomial((1, 2, 0))) == hash(Polynomial((1, 2)))
        assert Polynomial((3,)) != 3
        with pytest.raises(AttributeError):
            Polynomial((1,)).coefficients = (2,)
        # slots only, and the keyword form normalizes too
        assert not hasattr(Polynomial((1,)), "__dict__")
        assert Polynomial(coefficients=[1, 2, 0]) == Polynomial((1, 2))

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
            assert (p * zero) == Polynomial.zero()
            assert (zero * p) == Polynomial.zero()
        assert (Polynomial.zero() * Polynomial.zero()) == Polynomial.zero()

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
    """Whole series tables with the schoolbook loop patched in as the product.

    C and B multiply no ``Polynomial``: they are evaluated at one point.  So
    their ``Polynomial`` recurrences run under the patched product and are
    held to the one-point tables; A runs its own solve under it.
    """

    @pytest.mark.parametrize(
        "series, n, product_route",
        [
            (gf_edge_table, 24, lambda n: edge_polynomial_by_recurrence(n).coefficients),
            (gf_reachability_table, 16, lambda n: reachability_by_recurrence(n).coefficients),
            (gf_deficiency_table, 8, lambda n: gf_deficiency_table(n).coeffs),
        ],
        ids=["gf_edge_table-24", "gf_reachability_table-16", "gf_deficiency_table-8"],
    )
    def test_tables_equal_coefficient_for_coefficient(self, monkeypatch, series, n, product_route):
        kernel = series(n).coeffs
        monkeypatch.setattr(Polynomial, "__mul__", schoolbook_product)
        monkeypatch.setattr(Polynomial, "__rmul__", schoolbook_product)
        assert product_route(n) == kernel

    def test_source_split_equals_the_series(self, monkeypatch):
        series = [gf_edge_table(n).coeffs for n in range(1, 9)]
        monkeypatch.setattr(Polynomial, "__mul__", schoolbook_product)
        monkeypatch.setattr(Polynomial, "__rmul__", schoolbook_product)
        split = [poly.coefficients for poly in edge_polynomials_by_sources(8)[1:]]
        assert split == series

    def test_layers_equal_the_series(self, monkeypatch):
        series = [gf_reachability_table(n).coeffs for n in range(1, 9)]
        monkeypatch.setattr(Polynomial, "__mul__", schoolbook_product)
        monkeypatch.setattr(Polynomial, "__rmul__", schoolbook_product)
        assert [reachability_by_layers(n).coefficients for n in range(1, 9)] == series


class TestExplicitRecurrences:
    """The C and B recurrences against the generic weighted-series form."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_c_is_the_reciprocal_of_the_alternating_series(self, n):
        assert edge_polynomial(n) == edge_polynomial_by_series(n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_b_is_e_times_reciprocal_d_times_e(self, n):
        assert gf_reachability_table(n).coeffs == reachability_by_series(n).coefficients

    def test_b_keeps_no_power(self):
        one_plus_t_power.cache_clear()
        gf_reachability_table(12)
        assert one_plus_t_power.cache_info().currsize == 0


class TestOnePoint:
    """C and B evaluated at t = 2^s, against their ``Polynomial`` recurrences."""

    @given(st.lists(st.integers(0, 2**70), max_size=12).map(lambda c: c + [1]))
    @example([255])  # totals on either side of a byte boundary
    @example([255, 1])
    @example([0, 0, 256])
    def test_digits_are_the_coefficients(self, coeffs):
        def value_at(n, s):
            return sum(c << (s * i) for i, c in enumerate(coeffs))

        assert genfunc._at_one_point(value_at, 0) == coeffs

    @pytest.mark.parametrize("n", range(1, 25))
    def test_c_equals_the_polynomial_recurrence(self, n):
        assert edge_polynomial(n) == edge_polynomial_by_recurrence(n)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_b_equals_the_polynomial_recurrence(self, n):
        assert gf_reachability_table(n).coeffs == reachability_by_recurrence(n).coefficients


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
            return real(exponent) + (Polynomial((0, 1)) if exponent == 0 else 0)

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


@functools.cache
def counted_at_6(family: str) -> tuple[int, ...]:
    """The n = 6 table counted apart from the series: the row DP for A and B,
    the DAG census for C."""
    if family == "C":
        return count_dags_by_edges(6).coeffs
    return tuple(_row_counts(TypeSpec(family, 6)))


def assert_ends(ends, counts):
    assert {i: counts[i] for i in ends} == ends


@functools.cache
def series_coeffs(family: str, n: int) -> tuple[int, ...]:
    """One series table per family and n, solved once for the tests that
    read every table to n = 16, and to n = 20 under ``-m slow``."""
    return series_table(TypeSpec(family, n)).coeffs


class TestEndCoefficients:
    """The proven end coefficients against the counted rows and the series."""

    @pytest.mark.parametrize("family, ends", END_COEFFICIENTS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_reference_rows(self, family, ends, n):
        assert_ends(ends(n), REFERENCE_COUNTS[family][n])

    @pytest.mark.parametrize("n", range(3, 6))
    def test_c_reference_rows(self, n):
        assert_ends(c_end_coefficients(n), REFERENCE_COUNTS["C"][n])

    @pytest.mark.parametrize("family, ends", END_COEFFICIENTS)
    def test_row_dp_at_6(self, family, ends):
        assert_ends(ends(6), counted_at_6(family))

    def test_c_census_at_6(self):
        assert_ends(c_end_coefficients(6), counted_at_6("C"))

    def test_c_needs_three_vertices(self):
        for n in (1, 2):
            with pytest.raises(ValueError):
                c_end_coefficients(n)

    @pytest.mark.parametrize("n", [*range(1, 15), *slow(range(15, 21))])
    def test_a_series(self, n):
        assert_ends(a_end_coefficients(n), series_coeffs("A", n))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_b_series(self, n):
        assert_ends(b_end_coefficients(n), gf_reachability_table(n).coeffs)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_c_series(self, n):
        assert_ends(c_end_coefficients(n), gf_edge_table(n).coeffs)


@functools.cache
def edge_polynomials_to_24() -> list[Polynomial]:
    return edge_polynomials_by_sources(24)


class TestSourceSplit:
    """Family C by its exact number of sources, term for term against the series."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_equals_the_series(self, n):
        assert edge_polynomials_to_24()[n].coefficients == gf_edge_table(n).coeffs


class TestBreadthFirstLayers:
    """Family B by the breadth-first layers from vertex 1, term for term against the series."""

    @pytest.mark.parametrize("n", [*range(1, 13), *slow(range(13, 25))])
    def test_equals_the_series(self, n):
        assert reachability_by_layers(n).coefficients == gf_reachability_table(n).coeffs


def entry(counts, i: int) -> int:
    """Coefficient i of a table, 0 past its end."""
    return counts[i] if i < len(counts) else 0


class TestCrossFamilyDominance:
    """E_C(i) <= E_B(i) <= E_A(i + n - 1).  A pertinent C pattern is a pertinent
    B pattern with x_11 = 0, and a pertinent B pattern is a zero-permanent A
    pattern whose fixed diagonal adds n - 1 ones."""

    @pytest.mark.parametrize("n", [*range(1, 17), *slow(range(17, 21))])
    def test_on_the_series(self, n):
        a, b, c = (series_coeffs(family, n) for family in "ABC")
        for i in range(n * n - n + 2):
            assert entry(c, i) <= entry(b, i) <= entry(a, i + n - 1)


def value_at_minus_one(counts) -> int:
    return sum(-c if i % 2 else c for i, c in enumerate(counts))


def a_at_minus_one(n: int) -> int:
    """E_A(-1) = 1 for every n >= 1.

    Let U be the edge sets of K_(n,n) that contain a perfect matching; a
    zero-permanent pattern is a set outside U.  The sum of (-1)^|S| over all
    S is 0, so E_A(-1) = -sum_(S in U) (-1)^|S|.  Let L be the lattice of
    unions of perfect matchings, ordered by inclusion, with the empty set at
    the bottom and all n^2 edges at the top.  Every edge set S has a
    largest member of L below it, the union of the matchings inside S, which
    is empty exactly when S lies outside U; so Moebius inversion over L
    (Rota, "On the foundations of combinatorial theory I", 1964) gives
    sum_(S in U) (-1)^|S| = -(-1)^(n^2) mu_L(empty, top).

    L is the face lattice of the Birkhoff polytope B_n, since a face is
    fixed by the cells it forces to zero (Brualdi & Gibson, "Convex
    polyhedra of doubly stochastic matrices I", JCT A 1977; Billera &
    Sarangarajan 1996).  A polytope's face lattice is Eulerian (Ziegler,
    *Lectures on Polytopes*, section 8), and dim B_n = (n-1)^2, so
    mu_L(empty, top) = (-1)^((n-1)^2 + 1).  Hence
    sum_(S in U) (-1)^|S| = (-1)^(n^2 + (n-1)^2) = -1, as n^2 + (n-1)^2 is
    odd, and E_A(-1) = 1.  At n = 1, B_1 is a point and mu = -1.
    """
    return 1


def b_at_minus_one(n: int) -> int:
    return {1: 1, 2: -1}.get(n, 0)


class TestValuesAtMinusOne:
    """E(-1), the alternating sum of a table.  C and B follow from their own
    recurrences at t = -1, where every (1+t)^k with k > 0 vanishes, so they
    check the kernel and the table assembly; A's value is proven in
    ``a_at_minus_one``, and its series check, like theirs, checks the kernel
    and the decoding, not the derivation."""

    @pytest.mark.parametrize("n", [*range(1, 17), *slow(range(17, 21))])
    def test_a_series(self, n):
        assert value_at_minus_one(series_coeffs("A", n)) == a_at_minus_one(n)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_c_series(self, n):
        assert value_at_minus_one(gf_edge_table(n).coeffs) == (-1) ** (n + 1)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_b_series(self, n):
        assert value_at_minus_one(gf_reachability_table(n).coeffs) == b_at_minus_one(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reference_rows(self, n):
        rows = REFERENCE_COUNTS
        assert value_at_minus_one(rows["A"][n]) == a_at_minus_one(n)
        assert value_at_minus_one(rows["B"][n]) == b_at_minus_one(n)
        assert value_at_minus_one(rows["C"][n]) == (-1) ** (n + 1)

    def test_counted_at_6(self):
        assert value_at_minus_one(counted_at_6("A")) == a_at_minus_one(6)
        assert value_at_minus_one(counted_at_6("B")) == 0
        assert value_at_minus_one(counted_at_6("C")) == -1


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
