import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    assignment_counter,
    assignment_matrix,
    complement_by_polynomials,
    discrete_scan_loop,
    identity_matrix,
    nonzero_cells,
    permanent_expansion,
    power_sum_by_polynomials,
    zero_matrix,
)

import leastchange.valuesets as valuesets
from leastchange import (
    AttainingSet,
    BinaryMatrix,
    BudgetError,
    RationalMatrix,
    TypeSpec,
    ValueSet,
    attaining_matrices,
    attaining_patterns,
    check_inclusion,
    complement_identity_check,
    counterexample_report,
    determinant,
    least_determinant,
    least_determinant_binary,
    support,
)
from leastchange.cli import main
from leastchange.enumeration import pertinent_bits
from leastchange.valuesets import _continuous_scan, _discrete_scan, _pattern_scan

HALF = Fraction(1, 2)


def rational(rows):
    return RationalMatrix.from_rows(rows)


def binary(rows):
    return BinaryMatrix.from_rows(rows)


class TestValueSet:
    def test_parse_uniform_default(self):
        assert ValueSet.parse("0, 1/2 ,2") == ValueSet.discrete([0, HALF, 2])

    @pytest.mark.parametrize("text", ["0,1/2@1/2", "0,1/2@1"])
    def test_parse_rejects_weighted_entries(self, text):
        with pytest.raises(ValueError):
            ValueSet.parse(text)

    def test_requires_zero(self):
        with pytest.raises(ValueError):
            ValueSet.discrete([1, 2])

    def test_continuous_contains_zero(self):
        with pytest.raises(ValueError):
            ValueSet.continuous(1, 2)
        with pytest.raises(ValueError):
            ValueSet.continuous(2, 2)
        assert ValueSet.continuous(0, 2).contains(HALF)

    def test_str_forms(self):
        assert str(ValueSet.discrete([0, HALF, 2])) == "{0, 1/2, 2}"
        assert str(ValueSet.continuous(0, 1)) == "[0, 1]"


class TestLeastDeterminant:
    def test_c2_with_reciprocal_pair(self):
        xset = ValueSet.discrete([0, HALF, 2])
        assert least_determinant(TypeSpec("C", 2), xset) == 0

    def test_c2_without_reciprocal_pair(self):
        xset = ValueSet.discrete([0, HALF])
        assert least_determinant(TypeSpec("C", 2), xset) == Fraction(3, 4)

    def test_c2_continuous(self):
        assert least_determinant(TypeSpec("C", 2), ValueSet.continuous(0, 2)) == 1

    def test_continuous_least_value_has_no_dimension_cap(self):
        assert least_determinant(TypeSpec("C", 6), ValueSet.continuous(0, 2)) == 1

    def test_minimality_by_hand(self):
        # only four assignments exist over {0, 1/2}; their determinants are
        # 1, 1, 1 and 3/4, so nothing beats 3/4
        dets = set()
        for b, c in itertools.product([0, HALF], repeat=2):
            dets.add(determinant(rational([[1, b], [c, 1]])))
        assert dets == {Fraction(1), Fraction(3, 4)}

    def test_sign_tiebreak_prefers_nonnegative(self):
        # dets over {0, 1/2, 7/2}: 1, 3/4, -3/4, -45/4; both signs of 3/4 attain
        xset = ValueSet.discrete([0, HALF, Fraction(7, 2)])
        spec = TypeSpec("C", 2)
        assert least_determinant(spec, xset) == Fraction(3, 4)
        members = attaining_matrices(spec, xset).members
        assert members == (rational([[1, HALF], [HALF, 1]]),)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            least_determinant(TypeSpec("A", 5), ValueSet.discrete([0, 1]))

    def test_budget_guard_on_pattern_scan(self):
        with pytest.raises(BudgetError):
            attaining_matrices(TypeSpec("A", 5), ValueSet.continuous(0, 1))

    def test_budget_guard_past_n5(self):
        with pytest.raises(BudgetError):
            attaining_matrices(TypeSpec("C", 6), ValueSet.continuous(0, 2))

    def test_zero_line_witnesses_for_a_and_b(self):
        # least value 0 on both the rational and binary sides, witnessed by
        # a matrix whose variable row or column is entirely zero
        xset = ValueSet.discrete([0, HALF, 2])
        for family in "AB":
            spec = TypeSpec(family, 2)
            assert least_determinant(spec, xset) == 0
            assert least_determinant_binary(spec, xset) == 0
            members = attaining_matrices(spec, xset).members

            def has_zero_line(m):
                rows = m.entries
                return any(all(v == 0 for v in row) for row in rows) or any(
                    all(row[j] == 0 for row in rows) for j in (0, 1)
                )

            assert any(has_zero_line(m) for m in members)


class TestAttainingSets:
    def test_c2_discrete_members(self):
        xset = ValueSet.discrete([0, HALF, 2])
        attaining = attaining_matrices(TypeSpec("C", 2), xset)
        assert set(attaining.members) == {
            rational([[1, 2], [HALF, 1]]),
            rational([[1, HALF], [2, 1]]),
        }
        assert attaining.partition() == {2: attaining.members}

    def test_c2_continuous_support_classes(self):
        attaining = attaining_matrices(TypeSpec("C", 2), ValueSet.continuous(0, 2))
        assert set(attaining.members) == {
            binary([[1, 0], [0, 1]]),
            binary([[1, 1], [0, 1]]),
            binary([[1, 0], [1, 1]]),
        }
        part = attaining.partition()
        assert [len(part.get(i, ())) for i in (0, 1)] == [1, 2]
        assert part[0] == (identity_matrix(2),)

    def test_c2_discrete_patterns(self):
        xset = ValueSet.discrete([0, HALF, 2])
        patterns = attaining_patterns(TypeSpec("C", 2), xset)
        assert patterns.value == 0
        assert patterns.members == (BinaryMatrix.ones(2),)
        assert patterns.partition() == {2: (BinaryMatrix.ones(2),)}

    def test_c2_continuous_patterns(self):
        patterns = attaining_patterns(TypeSpec("C", 2), ValueSet.continuous(0, 2))
        assert patterns.value == 1
        assert set(patterns.members) == {
            binary([[1, 0], [0, 1]]),
            binary([[1, 1], [0, 1]]),
            binary([[1, 0], [1, 1]]),
        }

    def test_a2_continuous_patterns_are_the_nine(self):
        patterns = attaining_patterns(TypeSpec("A", 2), ValueSet.continuous(0, 2))
        assert patterns.value == 0
        assert len(patterns) == 9
        # all nine have a zero row or a zero column
        for m in patterns.members:
            rows_zero = any(r == 0 for r in m.rows)
            cols_zero = (m.rows[0] | m.rows[1]) != 0b11
            assert rows_zero or cols_zero

    @pytest.mark.parametrize("family", "ABC")
    def test_continuous_patterns_are_the_pertinent_ones_n3(self, family):
        # the batched pertinence test against the permanent, in counter order
        spec = TypeSpec(family, 3)
        expected = tuple(
            m
            for m in map(spec.matrix_from_bits, range(1 << spec.m))
            if permanent_expansion(m) == spec.target_permanent
        )
        patterns = attaining_patterns(spec, ValueSet.continuous(0, 1))
        assert patterns.members == expected

    def test_a2_discrete_patterns_add_all_ones(self):
        dis = attaining_patterns(TypeSpec("A", 2), ValueSet.discrete([0, HALF, 2]))
        cnt = attaining_patterns(TypeSpec("A", 2), ValueSet.continuous(0, 2))
        assert set(dis.members) == set(cnt.members) | {BinaryMatrix.ones(2)}

    def test_members_attain_the_value_exactly(self):
        xset = ValueSet.discrete([0, HALF, 2])
        for family in "ABC":
            spec = TypeSpec(family, 2)
            attaining = attaining_matrices(spec, xset)
            for member in attaining.members:
                assert determinant(member) == attaining.value

    def test_partition_counts_sum_to_cardinality(self):
        xset = ValueSet.discrete([0, HALF, 2])
        spec = TypeSpec("A", 2)
        attaining = attaining_matrices(spec, xset)
        part = attaining.partition()
        assert sum(len(v) for v in part.values()) == len(attaining)
        for i, members in part.items():
            for m in members:
                assert nonzero_cells(spec, m) == i

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 4))
    def test_scans_list_members_in_counter_order(self, family, n):
        spec = TypeSpec(family, n)
        for xset in (ValueSet.discrete([-1, 0, 1]), ValueSet.discrete([0, 1])):
            attaining = attaining_matrices(spec, xset)
            members = attaining.members
            counters = [assignment_counter(spec, xset.values, m) for m in members]
            assert all(a < b for a, b in zip(counters, counters[1:]))
            assert attaining.counters == tuple(counters)
            assert attaining.nonzeros == tuple(nonzero_cells(spec, m) for m in members)
        scan = _discrete_scan(spec, ValueSet.discrete([0, 1]))
        patterns = _pattern_scan(spec)
        assert patterns.members == tuple(
            sorted(map(support, scan.members), key=spec.counter_of)
        )
        assert (patterns.value, patterns.nonzeros) == (scan.value, scan.nonzeros)


class TestCounts:
    # sizes and membership read the counters; the members stay undecoded
    DISCRETE = [
        ("C", 2, (0, HALF, 2)),
        ("A", 2, (0, HALF, 2)),
        ("B", 3, (0, 1)),
        ("C", 3, (-1, 0, 1)),
        ("A", 2, (0, HALF, 1, 2)),
    ]

    @staticmethod
    def fresh_sets(family, n, values):
        spec = TypeSpec(family, n)
        return [
            _pattern_scan.__wrapped__(spec),
            _continuous_scan.__wrapped__(spec),
            _discrete_scan.__wrapped__(spec, ValueSet.discrete(values)),
        ]

    @pytest.mark.parametrize("family, n, values", DISCRETE)
    def test_sizes_are_the_partition_sizes(self, family, n, values):
        for attaining in self.fresh_sets(family, n, values):
            sizes = attaining.sizes()
            assert "members" not in vars(attaining)
            assert list(sizes) == sorted(sizes)
            assert sizes == {i: len(ms) for i, ms in attaining.partition().items()}

    @pytest.mark.parametrize("family, n, values", DISCRETE)
    def test_membership_agrees_with_the_members(self, family, n, values):
        spec = TypeSpec(family, n)
        patterns, classes, assignments = self.fresh_sets(family, n, values)
        xvalues = assignments.values
        candidates = {
            *map(spec.matrix_from_bits, range(1 << spec.m)),
            *(assignment_matrix(spec, xvalues, c) for c in range(len(xvalues) ** spec.m)),
            zero_matrix(n),  # a fixed cell of B and C is 0
            BinaryMatrix.ones(n + 1),
            RationalMatrix.from_rows([[3] * n] * n),  # 3 is in no value set
            assignment_matrix(TypeSpec(family, n + 1), xvalues, 0),
        }
        for attaining in (patterns, classes, assignments):
            found = [member in attaining for member in candidates]
            assert "members" not in vars(attaining)
            members = set(attaining.members)
            assert found == [member in members for member in candidates]
            assert sum(found) == len(attaining)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "witnesses"],
            ["least", "--family", "B", "--n", "3", "--values", "0,1/2,1,2"],
            ["least", "--family", "C", "--n", "4", "--values", "0,1"],
        ],
        ids=["witnesses", "least-B3", "least-C4-01"],
    )
    def test_counts_leave_the_members_undecoded(self, monkeypatch, capsys, argv):
        made = []

        def recording(scan):
            def run(*args):
                made.append(scan.__wrapped__(*args))
                return made[-1]

            return functools.lru_cache(maxsize=None)(run)

        for name in ("_discrete_scan", "_pattern_scan"):
            monkeypatch.setattr(valuesets, name, recording(getattr(valuesets, name)))
        assert main(argv) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert made
        assert all("members" not in vars(attaining) for attaining in made)


class TestDeterminantArray:
    # the scan reads one determinant array; the per-assignment loop pins it
    CASES = [
        *itertools.product(
            "ABC",
            range(1, 4),
            (
                (0, 1),
                (-1, 0, 1),
                (0, HALF),
                (0, HALF, 1, 2),
                (0, 1, 2),
                (0, HALF, Fraction(7, 2)),  # C2: both signs of 3/4 attain
                (0, 1, 10**20),
            ),
        ),
        ("B", 4, (0, 1)),
        ("C", 4, (0, 1)),
    ]

    @staticmethod
    def assert_matches_loop(spec, xset):
        scan = _discrete_scan.__wrapped__(spec, xset)
        loop = discrete_scan_loop(spec, xset)
        assert scan.value == loop.value
        assert scan.counters == loop.counters
        assert scan.nonzeros == loop.nonzeros
        assert scan.values == loop.values == xset.values
        assert "members" not in vars(scan)
        assert scan.members == loop.members

    @pytest.mark.parametrize(
        "family, n, values",
        CASES,
        ids=[f"{f}{n}-{{{','.join(map(str, v))}}}" for f, n, v in CASES],
    )
    def test_scan_matches_the_loop(self, family, n, values):
        self.assert_matches_loop(TypeSpec(family, n), ValueSet.discrete(values))

    DRAWN = {
        "family": st.sampled_from("ABC"),
        "n": st.integers(1, 3),
        "nonzero": st.lists(
            st.fractions(-10, 10, max_denominator=5).filter(bool),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    }

    @settings(derandomize=True)  # one fixed draw: a fresh one swung the time 0.8-6.5 s
    @given(**DRAWN)
    def test_scan_matches_the_loop_on_drawn_value_sets(self, family, n, nonzero):
        # a 4^9 scan takes the loop about 2 s; the fixed A3 case above holds
        # one to it, and the slow twin below every drawn one
        spec, values = TypeSpec(family, n), [0, *nonzero]
        assume(len(values) ** spec.m <= 4**8)
        self.assert_matches_loop(spec, ValueSet.discrete(values))

    @pytest.mark.slow
    @settings(derandomize=True)
    @given(**DRAWN)
    def test_scan_matches_the_loop_on_every_drawn_value_set(self, family, n, nonzero):
        self.assert_matches_loop(TypeSpec(family, n), ValueSet.discrete([0, *nonzero]))


class TestContinuousScan:
    def test_one_pertinence_pass_per_spec(self, monkeypatch):
        calls = []

        def counting(spec):
            calls.append(spec)
            return pertinent_bits(spec)

        monkeypatch.setattr(valuesets, "pertinent_bits", counting)
        valuesets._continuous_scan.cache_clear()
        spec = TypeSpec("B", 3)
        sets = [
            scan(spec, ValueSet.continuous(0, hi))
            for hi in (2, 1)
            for scan in (attaining_matrices, attaining_patterns)
        ]
        assert calls == [spec]
        assert all(s == sets[0] for s in sets)


class TestPatternScan:
    ZERO_ONE = ValueSet.discrete([0, 1])

    @pytest.mark.parametrize(
        "family, n", [*itertools.product("ABC", (1, 2, 3)), ("B", 4), ("C", 4)]
    )
    def test_patterns_are_the_supports_of_the_discrete_members(self, family, n):
        # the patterns decode the attaining counters; mapping support over the
        # rational members of the {0, 1} scan is the slow route they replace
        spec = TypeSpec(family, n)
        scan = _discrete_scan(spec, self.ZERO_ONE)
        patterns = _pattern_scan(spec)
        assert patterns.members == tuple(map(support, scan.members))
        assert (patterns.value, patterns.nonzeros) == (scan.value, scan.nonzeros)

    def test_one_determinant_array_per_spec(self, monkeypatch):
        calls = []

        def counting(spec, *args):
            calls.append(spec)
            return determinants(spec, *args)

        determinants = valuesets._determinants
        monkeypatch.setattr(valuesets, "_determinants", counting)
        for scan in (_discrete_scan, _pattern_scan):
            scan.cache_clear()
        spec = TypeSpec("C", 3)
        attaining_matrices(spec, self.ZERO_ONE)
        attaining_patterns(spec, self.ZERO_ONE)
        least_determinant_binary(spec, ValueSet.discrete([0, HALF]))
        assert calls == [spec]


class TestZeroOneInstance:
    # value sets [0,1] and {0,1}: the least values genuinely diverge
    def test_continuous_side(self):
        spec = TypeSpec("C", 2)
        cnt = ValueSet.continuous(0, 1)
        assert least_determinant(spec, cnt) == 1
        assert least_determinant_binary(spec, cnt) == 1
        assert len(attaining_matrices(spec, cnt)) == 3

    def test_discrete_side(self):
        spec = TypeSpec("C", 2)
        dis = ValueSet.discrete([0, 1])
        assert least_determinant(spec, dis) == 0
        assert least_determinant_binary(spec, dis) == 0
        attaining = attaining_matrices(spec, dis)
        patterns = attaining_patterns(spec, dis)
        assert attaining.members == (BinaryMatrix.ones(2).to_rational(),)
        assert patterns.members == (BinaryMatrix.ones(2),)

    def test_pattern_sets_disjoint(self):
        report = check_inclusion("C", 2, ValueSet.discrete([0, 1]), ValueSet.continuous(0, 1))
        assert report.disjoint
        assert not report.holds


class TestInclusion:
    def test_a2_inclusion_with_all_ones_difference(self):
        report = check_inclusion(
            "A", 2, ValueSet.discrete([0, HALF, 2]), ValueSet.continuous(0, 2)
        )
        assert report.holds
        assert report.difference == (BinaryMatrix.ones(2),)
        assert not report.missing

    def test_b2_inclusion_holds(self):
        report = check_inclusion(
            "B", 2, ValueSet.discrete([0, HALF, 2]), ValueSet.continuous(0, 2)
        )
        assert report.holds

    def test_c2_inclusion_fails(self):
        report = check_inclusion(
            "C", 2, ValueSet.discrete([0, HALF, 2]), ValueSet.continuous(0, 2)
        )
        assert not report.holds
        assert len(report.missing) == 3

    def test_nesting_precondition(self):
        with pytest.raises(ValueError):
            check_inclusion("A", 2, ValueSet.discrete([0, 3]), ValueSet.continuous(0, 2))
        with pytest.raises(ValueError):
            check_inclusion(
                "A", 2, ValueSet.discrete([0, 1]), ValueSet.discrete([0, 1, 2])
            )


nonzeros_up_to_12 = st.integers(0, 12).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m), max_size=30))
)


class TestComplementIdentity:
    def test_exact_polynomial_identity(self):
        report = complement_identity_check()
        assert report.ok
        assert report.continuous_coeffs == (1, 0, -1)
        assert report.discrete_coeffs == (0, 0, 1)
        assert report.sum_coeffs == (1,)

    def test_every_field_equals_the_polynomial_oracle(self):
        report = complement_identity_check()
        fields = (report.continuous_coeffs, report.discrete_coeffs, report.sum_coeffs, report.ok)
        assert fields == complement_by_polynomials()

    @given(nonzeros_up_to_12)
    @example((3, [0, 1, 1, 1, 2, 2, 2, 3]))  # each i C(3, i) times: all 2^3 weights, sum 1
    @example((4, []))  # no term: ()
    def test_binomial_sum_equals_the_polynomial_products(self, case):
        m, nonzeros = case
        expected = power_sum_by_polynomials(nonzeros, m).coefficients
        assert valuesets._monomial(nonzeros, m) == expected


class TestCounterexampleReport:
    def test_every_claim_passes(self):
        report = counterexample_report()
        failures = [c for c in report.claims if not c.ok]
        assert not failures, failures
        assert len(report.claims) >= 20
