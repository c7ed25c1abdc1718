import itertools
import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    build_rows,
    identity_matrix,
    is_pertinent,
    nonzero_cells,
    permanent_expansion,
    scan_counts,
    scan_mask,
    zero_matrix,
)

from leastchange import (
    BinaryMatrix,
    DimensionError,
    PatternError,
    RationalMatrix,
    TypeSpec,
    ValueSet,
    attaining_matrices,
    attaining_patterns,
    count_pertinent,
    has_perfect_matching,
)
from leastchange.enumeration import _row_counts, pertinent_bits
from leastchange.genfunc import series_table
from leastchange.matrices import laplace
from leastchange.reference import REFERENCE_COUNTS
from leastchange.tables import CoefficientTable, ROUTE_ENUMERATION
from leastchange.valuesets import _row_choices


@cache
def pertinence(spec) -> np.ndarray:
    """The pertinence plane of all 2^m counters, one bool per counter."""
    size = 1 << spec.m
    packed = np.frombuffer(pertinent_bits(spec).to_bytes((size + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").astype(bool)


class TestIsPertinent:
    def test_zero_matrix_family_a(self):
        spec = TypeSpec("A", 2)
        assert is_pertinent(spec, zero_matrix(2))

    def test_full_offdiagonal_family_c(self):
        # permanent of the all-ones 2x2 is 2, not the target 1
        spec = TypeSpec("C", 2)
        assert not is_pertinent(spec, BinaryMatrix.ones(2))

    def test_hand_checked_family_b(self):
        # ((0,1),(0,1)): permanent = 0*1 + 1*0 = 0
        spec = TypeSpec("B", 2)
        m = BinaryMatrix.from_rows([[0, 1], [0, 1]])
        assert is_pertinent(spec, m)

    def test_broken_fixed_cell_rejected(self):
        spec = TypeSpec("C", 2)
        with pytest.raises(PatternError):
            is_pertinent(spec, BinaryMatrix.from_rows([[1, 0], [0, 0]]))


class TestCountPertinent:
    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 5))
    def test_reference_rows(self, family, n):
        table = count_pertinent(TypeSpec(family, n))
        assert table.coeffs == REFERENCE_COUNTS[family][n]
        assert table.route == ROUTE_ENUMERATION

    def test_matches_permanent_oracle_exhaustively(self):
        # the Hall/acyclicity shortcuts against the definitional permanent
        for family in "ABC":
            for n in range(1, 4):
                spec = TypeSpec(family, n)
                expected = [0] * (spec.m + 1)
                for bits in range(1 << spec.m):
                    matrix = spec.matrix_from_bits(bits)
                    if is_pertinent(spec, matrix):
                        expected[bin(bits).count("1")] += 1
                assert not any(expected[spec.i_max + 1 :])
                table = count_pertinent(spec)
                assert list(table.coeffs) == expected[: spec.i_max + 1]

    def test_matches_permanent_oracle_c4(self):
        spec = TypeSpec("C", 4)
        expected = [0] * (spec.i_max + 1)
        for bits in range(1 << spec.m):
            matrix = spec.matrix_from_bits(bits)
            if permanent_expansion(matrix) == 1:
                expected[bin(bits).count("1")] += 1
        assert count_pertinent(spec).coeffs == tuple(expected)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            count_pertinent(TypeSpec("A", 6))

    def test_totals(self):
        assert [count_pertinent(TypeSpec("A", n)).total for n in range(1, 5)] == [
            1, 9, 265, 27713,
        ]
        assert [count_pertinent(TypeSpec("C", n)).total for n in range(1, 6)] == [
            1, 3, 25, 543, 29281,
        ]
        assert count_pertinent(TypeSpec("B", 4)).total == 1200

    def test_b_totals_self_consistent(self):
        # no published reference for family B; totals must equal the row sums
        for n in range(1, 6):
            table = count_pertinent(TypeSpec("B", n))
            assert table.total == sum(REFERENCE_COUNTS["B"][n])

    def test_family_b_n1_single_zero_assignment(self):
        assert count_pertinent(TypeSpec("B", 1)).coeffs == (1,)


class TestSplitCount:
    """The row DP against counts from elsewhere: the per-counter scan and
    the series."""

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("family", "ABC")
    def test_split_equals_scan(self, family, n):
        # the batched per-counter scan (Hall sweep, or peel for C) is the
        # oracle of the row DP's merged states
        spec = TypeSpec(family, n)
        assert _row_counts(spec) == scan_counts(spec).tolist()

    @pytest.mark.parametrize("family", "ABC")
    def test_row_dp_equals_series_at_n6(self, family):
        # beyond count_pertinent's reach: the DP itself, term for term
        spec = TypeSpec(family, 6)
        counts = _row_counts(spec)
        assert tuple(counts[: spec.i_max + 1]) == series_table(spec).coeffs
        assert not any(counts[spec.i_max + 1 :])


def _row_major_rows(spec, bits):
    """The family definition read cell by cell, independent of ``TypeSpec``.

    Every cell is a fixed 1 or the next variable cell in row-major order,
    and bit k of the counter drives the k-th variable cell.
    """
    rows, k = [], 0
    for i in range(spec.n):
        row = 0
        for j in range(spec.n):
            variable = i != j or spec.family == "A" or (spec.family == "B" and i == 0)
            if variable:
                row |= ((bits >> k) & 1) << j
                k += 1
            else:
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


class TestOneLayout:
    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 5))
    def test_counter_decoders_share_the_layout(self, family, n):
        spec = TypeSpec(family, n)
        counters = np.arange(1 << spec.m, dtype=np.uint32)
        built = build_rows(spec, counters).T.tolist()
        for bits in range(1 << spec.m):
            matrix = spec.matrix_from_bits(bits)
            assert matrix.rows == _row_major_rows(spec, bits)
            assert tuple(built[bits]) == matrix.rows
            assert spec.counter_of(matrix) == bits

    @pytest.mark.parametrize("family", "ABC")
    def test_nonzero_count_is_counter_popcount(self, family):
        spec = TypeSpec(family, 3)
        attaining = attaining_matrices(spec, ValueSet.continuous(0, 1))
        counters = np.flatnonzero(pertinence(spec))
        assert len(counters) == len(attaining) > 0
        assert len(attaining.nonzeros) == len(attaining)
        for k, (bits, member) in enumerate(zip(counters, attaining.members)):
            expected = int(bits).bit_count()
            assert attaining.nonzeros[k] == nonzero_cells(spec, member) == expected

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", [2, 3])
    def test_counter_of_encodes_the_discrete_scans(self, family, n):
        spec = TypeSpec(family, n)
        for values in ([-1, 0, 1], [0, Fraction(1, 2), 2]):
            scan = attaining_matrices(spec, ValueSet.discrete(values))
            assert len(scan) > 0
            assert scan.counters == tuple(spec.counter_of(m, scan.values) for m in scan.members)

    REJECTED = [
        # (spec, member, the digit values, error)
        (TypeSpec("C", 3), identity_matrix(2), None, DimensionError),
        # a zero at (2, 2)
        (TypeSpec("C", 3), BinaryMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 1]]), None,
         PatternError),
        (TypeSpec("C", 2), RationalMatrix.from_rows([[2, 0], [Fraction(1, 2), 1]]),
         (0, Fraction(1, 2), 2), PatternError),
        (TypeSpec("C", 2), RationalMatrix.from_rows([[1, Fraction(1, 3)], [0, 1]]),
         (0, Fraction(1, 2), 2), ValueError),
    ]

    @pytest.mark.parametrize("spec, member, values, error", REJECTED)
    def test_counter_of_rejects(self, spec, member, values, error):
        with pytest.raises(error) as caught:
            spec.counter_of(member, values or (0, 1))
        if error is ValueError:
            assert not isinstance(caught.value, (DimensionError, PatternError))

    @pytest.mark.parametrize("spec, member, values, error", REJECTED)
    def test_rejected_members_are_not_in_the_set(self, spec, member, values, error):
        if values is None:
            attaining = attaining_patterns(spec, ValueSet.discrete([0, 1]))
        else:
            attaining = attaining_matrices(spec, ValueSet.discrete(values))
        assert len(attaining) > 0
        assert member not in attaining

    def test_members_of_another_type_are_not_in_the_set(self):
        spec = TypeSpec("C", 2)
        patterns = attaining_patterns(spec, ValueSet.continuous(0, 1))
        matrices = attaining_matrices(spec, ValueSet.discrete([0, 1]))
        # the identity is pertinent, and the all-ones matrix is singular
        assert identity_matrix(2) in patterns
        assert BinaryMatrix.ones(2).to_rational() in matrices
        assert identity_matrix(2).to_rational() not in patterns
        assert BinaryMatrix.ones(2) not in matrices

    def test_layout_is_computed_once(self):
        spec = TypeSpec("B", 4)
        for name in ("variable_rows", "fixed_rows", "variable_columns", "variable_positions"):
            assert getattr(spec, name) is getattr(spec, name)


class TestRowSplitLookup:
    """The pertinence plane, the permanent of all n rows over every counter,
    against the per-counter scan and the definitional permanent."""

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_full_sweep_exhaustively(self, family, n):
        # the oracle is the Hall sweep over all n rows for A and B, the
        # source peel for C
        spec = TypeSpec(family, n)
        counters = np.arange(1 << spec.m, dtype=np.uint32)
        assert np.array_equal(pertinence(spec), scan_mask(spec, counters))

    def test_matches_full_sweep_b5(self):
        spec = TypeSpec("B", 5)
        for lo in range(0, 1 << spec.m, 1 << 20):
            hi = lo + (1 << 20)
            counters = np.arange(lo, hi, dtype=np.uint32)
            assert np.array_equal(pertinence(spec)[lo:hi], scan_mask(spec, counters))

    def test_matches_peel_c5(self):
        spec = TypeSpec("C", 5)
        counters = np.arange(1 << spec.m, dtype=np.uint32)
        assert np.array_equal(pertinence(spec), scan_mask(spec, counters))

    @pytest.mark.parametrize("index", [0, 16, 31])
    def test_matches_full_sweep_a5_slice(self, index):
        # first, middle and last of the 32 slices of 2^20 counters
        spec = TypeSpec("A", 5)
        lo, hi = index << 20, (index + 1) << 20
        counters = np.arange(lo, hi, dtype=np.uint32)
        assert np.array_equal(pertinence(spec)[lo:hi], scan_mask(spec, counters))

    @given(family=st.sampled_from("ABC"), data=st.data())
    def test_matches_the_permanent_at_n5(self, family, data):
        spec = TypeSpec(family, 5)
        # any counter, or one with few ones, where most permanent-1 matrices lie
        sparse = st.sets(st.integers(0, spec.m - 1)).map(lambda ks: sum(1 << k for k in ks))
        bits = data.draw(st.integers(0, (1 << spec.m) - 1) | sparse)
        expected = permanent_expansion(spec.matrix_from_bits(bits)) == spec.target_permanent
        assert pertinence(spec)[bits] == expected

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 4))
    def test_plane_is_the_pertinent_counters(self, family, n):
        # the plane read bit by bit, against the definitional permanent
        spec = TypeSpec(family, n)
        plane = pertinent_bits(spec)
        assert plane >> (1 << spec.m) == 0
        for bits in range(1 << spec.m):
            expected = permanent_expansion(spec.matrix_from_bits(bits)) == spec.target_permanent
            assert (plane >> bits & 1) == expected


    @pytest.mark.parametrize("family, n", [("A", 4), ("B", 4), ("C", 4), ("B", 5), ("C", 5)])
    def test_unsigned_laplace_is_the_plane(self, family, n):
        # the permanent of every {0, 1} choice by the Laplace kernel, in
        # counter order, is the target exactly on the plane's set bits
        spec = TypeSpec(family, n)
        rows = [entries for entries, _ in _row_choices(spec, [0, 1], 1)]
        perms = laplace(rows, signed=False)
        hits = "".join("1" if p == spec.target_permanent else "0" for p in reversed(perms))
        assert len(perms) == 1 << spec.m
        assert int(hits, 2) == pertinent_bits(spec)


class TestIndependentRecount:
    def test_multiset_recount_of_a5(self):
        """Order-free recount of the 5x5 fully-random row.

        A Hall violation depends only on the multiset of row masks, so
        summing multinomial weights over row multisets is an independent
        route to the same histogram.
        """
        n = 5
        combos = np.array(
            list(itertools.combinations_with_replacement(range(32), n)),
            dtype=np.uint8,
        )
        pop = np.array([bin(v).count("1") for v in range(32)], dtype=np.uint8)
        violated = np.zeros(len(combos), dtype=bool)
        for s in range(1, 32):
            union = np.zeros(len(combos), dtype=np.uint8)
            for b in range(n):
                if (s >> b) & 1:
                    union |= combos[:, b]
            violated |= pop[union] < bin(s).count("1")

        orderings = np.empty(len(combos), dtype=np.int64)
        fact = math.factorial(n)
        for idx, combo in enumerate(map(tuple, combos)):
            w = fact
            for _, group in itertools.groupby(combo):
                w //= math.factorial(len(list(group)))
            orderings[idx] = w

        ones = pop[combos].astype(np.int64).sum(axis=1)
        counts = np.bincount(
            ones[violated], weights=orderings[violated].astype(np.float64), minlength=26
        ).astype(np.int64)

        table = count_pertinent(TypeSpec("A", 5))
        assert tuple(int(c) for c in counts[:21]) == table.coeffs
        assert not counts[21:].any()
        assert table.coeffs == REFERENCE_COUNTS["A"][5]


class TestMatchingPredicate:
    def test_matches_permanent_small(self):
        for n in range(1, 4):
            for bits in range(1 << (n * n)):
                rows = tuple((bits >> (n * i)) & ((1 << n) - 1) for i in range(n))
                m = BinaryMatrix(n, rows)
                assert has_perfect_matching(m) == (permanent_expansion(m) > 0)

    def test_obvious_cases(self):
        assert has_perfect_matching(identity_matrix(4))
        assert not has_perfect_matching(zero_matrix(3))
        # zero column blocks a matching even with dense rows
        m = BinaryMatrix.from_rows([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
        assert not has_perfect_matching(m)


def top_stratum(spec):
    """The matrices with the fewest zeros a pertinent matrix can have."""
    patterns = attaining_patterns(spec, ValueSet.continuous(0, 1))
    assert max(patterns.sizes()) == spec.i_max
    return patterns.stratum(spec.i_max)


class TestVerifyExtremes:
    # the fewest-zeros bound is tight: its witnesses are the top stratum
    @pytest.mark.parametrize(
        "family, n, count",
        [("A", 3, 6), ("B", 3, 2), ("C", 3, 6), ("A", 4, 8), ("B", 4, 2), ("C", 4, 24)],
    )
    def test_witnesses_are_the_last_coefficient(self, family, n, count):
        spec = TypeSpec(family, n)
        witnesses = top_stratum(spec)
        assert len(witnesses) == count == count_pertinent(spec).coeffs[-1]
        counters = [spec.counter_of(w) for w in witnesses]
        assert all(a < b for a, b in zip(counters, counters[1:]))
        assert all(is_pertinent(spec, w) for w in witnesses)
        assert all(nonzero_cells(spec, w) == spec.i_max for w in witnesses)

    def test_family_a_n3(self):
        witnesses = top_stratum(TypeSpec("A", 3))
        assert len(witnesses) == 6  # 2n candidate zero lines
        zero_first_row = BinaryMatrix.from_rows([[0, 0, 0], [1, 1, 1], [1, 1, 1]])
        assert zero_first_row in witnesses

    def test_family_c_n3_nontriangular_witnesses(self):
        witnesses = top_stratum(TypeSpec("C", 3))
        assert len(witnesses) == 6

        def is_triangular(m):
            upper = all(
                m.entry(i, j) == 0 for i in range(1, 4) for j in range(1, i)
            )
            lower = all(
                m.entry(i, j) == 0 for i in range(1, 4) for j in range(i + 1, 4)
            )
            return upper or lower

        non_triangular = [w for w in witnesses if not is_triangular(w)]
        assert len(non_triangular) == 4

    def test_family_c_n2(self):
        spec = TypeSpec("C", 2)
        assert spec.j_min == 1 and spec.i_max == 1
        assert len(top_stratum(spec)) == 2

    def test_b5_top_stratum_decodes_only_its_members(self, monkeypatch):
        # 160,256 pertinent B5 patterns; listing the 2 witnesses decodes 2
        spec = TypeSpec("B", 5)
        patterns = attaining_patterns(spec, ValueSet.continuous(0, 1))
        decoded = []
        real = TypeSpec.matrix_from_bits

        def counting(self, bits):
            decoded.append(bits)
            return real(self, bits)

        monkeypatch.setattr(TypeSpec, "matrix_from_bits", counting)
        witnesses = patterns.stratum(spec.i_max)
        assert len(patterns) == 160256
        assert len(witnesses) == len(decoded) == 2
        assert [spec.counter_of(w) for w in witnesses] == decoded

    def test_family_b_witnesses_are_line_zeroings(self):
        witnesses = top_stratum(TypeSpec("B", 3))
        assert len(witnesses) == 2
        for w in witnesses:
            row1_zero = all(w.entry(1, j) == 0 for j in range(1, 4))
            col1_zero = all(w.entry(i, 1) == 0 for i in range(1, 4))
            assert row1_zero or col1_zero


class TestCoefficientTable:
    def test_rejects_wrong_leading_count(self):
        spec = TypeSpec("A", 2)
        with pytest.raises(ValueError):
            CoefficientTable(spec, (2, 4, 4), ROUTE_ENUMERATION)

    def test_rejects_wrong_tail_count(self):
        # A2 must end with 2n = 4; C3 with 3! transitive tournaments
        for family, n, coeffs in (("A", 2, (1, 4, 5)), ("C", 3, (1, 6, 12, 5))):
            with pytest.raises(ValueError):
                CoefficientTable(TypeSpec(family, n), coeffs, ROUTE_ENUMERATION)

    def test_rejects_wrong_length(self):
        spec = TypeSpec("A", 2)
        with pytest.raises(ValueError):
            CoefficientTable(spec, (1, 4), ROUTE_ENUMERATION)

    def test_rejects_unknown_route(self):
        spec = TypeSpec("A", 2)
        with pytest.raises(ValueError):
            CoefficientTable(spec, (1, 4, 4), "guesswork")

    def test_from_counts_rejects_mass_above_i_max(self):
        spec = TypeSpec("A", 2)
        with pytest.raises(RuntimeError, match="route enumeration"):
            CoefficientTable.from_counts(spec, [1, 4, 4, 1, 0], ROUTE_ENUMERATION)

    def test_from_counts_trims_to_i_max(self):
        spec = TypeSpec("A", 2)
        table = CoefficientTable.from_counts(spec, [1, 4, 4, 0, 0], ROUTE_ENUMERATION)
        assert table.coeffs == (1, 4, 4)

    @pytest.mark.parametrize("bad", [Fraction(4), 4.0])
    def test_from_counts_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            CoefficientTable.from_counts(TypeSpec("A", 2), [1, bad, 4], ROUTE_ENUMERATION)

    def test_from_counts_stores_python_ints(self):
        counts = np.array([1, 4, 4, 0, 0], dtype=np.int64)
        table = CoefficientTable.from_counts(TypeSpec("A", 2), counts, ROUTE_ENUMERATION)
        assert table.coeffs == (1, 4, 4)
        assert all(type(c) is int for c in table.coeffs)
