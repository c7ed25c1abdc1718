import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    delete_row_col,
    determinant_expansion,
    identity_matrix,
    permanent_expansion,
    permanent_ryser,
    zero_matrix,
)

from leastchange import (
    AttainingSet,
    BinaryMatrix,
    ChainReport,
    CheckReport,
    CoefficientTable,
    ComplementReport,
    CurveSample,
    Digraph,
    DimensionError,
    InclusionReport,
    Polynomial,
    ProbabilityPolynomial,
    RationalMatrix,
    TypeSpec,
    ValueSet,
    determinant,
    permanent,
    support,
)
from leastchange.matrices import _Record, det_int, laplace
from leastchange.valuesets import Claim


def random_binary(rng, n):
    return BinaryMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))


class TestBinaryMatrix:
    def test_from_rows_roundtrip(self):
        rows = [[1, 0, 1], [0, 1, 0], [1, 1, 1]]
        m = BinaryMatrix.from_rows(rows)
        assert m.to_lists() == rows
        assert m.entry(1, 3) == 1
        assert m.entry(2, 1) == 0

    def test_value_semantics(self):
        a = BinaryMatrix.from_rows([[1, 0], [0, 1]])
        assert a == identity_matrix(2)
        assert a != BinaryMatrix.ones(2)
        assert hash(a) == hash(identity_matrix(2))

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionError):
            BinaryMatrix(0, ())
        with pytest.raises(DimensionError):
            BinaryMatrix(31, (0,) * 31)

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError):
            BinaryMatrix(2, (4, 0))

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows([[2, 0], [0, 1]])


class TestTypeSpec:
    def test_family_masks(self):
        a = TypeSpec("A", 3)
        assert a.variable_rows == BinaryMatrix.ones(3).rows
        assert a.m == 9

        b = TypeSpec("B", 3)
        assert b.variable_rows == BinaryMatrix.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 0]]).rows
        assert b.m == 7

        c = TypeSpec("C", 3)
        assert c.variable_rows == BinaryMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]]).rows
        assert c.m == 6

    def test_targets(self):
        assert TypeSpec("A", 2).target_permanent == 0
        assert TypeSpec("B", 2).target_permanent == 0
        assert TypeSpec("C", 2).target_permanent == 1

    @pytest.mark.parametrize("family", "ABC")
    @pytest.mark.parametrize("n", range(1, 9))
    def test_extreme_count_arithmetic(self, family, n):
        spec = TypeSpec(family, n)
        assert spec.i_max + spec.j_min == spec.m
        if family == "C":
            assert spec.j_min == (n * n - n) // 2
        else:
            assert spec.j_min == n

    def test_n1_degenerate_families(self):
        # A and B coincide on a single variable cell; C is fully fixed
        assert TypeSpec("A", 1).m == 1
        assert TypeSpec("B", 1).m == 1
        assert TypeSpec("B", 1).variable_rows == (1,)
        assert TypeSpec("C", 1).m == 0

    def test_bits_roundtrip(self):
        spec = TypeSpec("B", 3)
        for bits in range(1 << spec.m):
            m = spec.matrix_from_bits(bits)
            assert spec.counter_of(m) == bits
        # fixed diagonal present in every assembled matrix
        m = spec.matrix_from_bits(0)
        assert m.entry(2, 2) == 1 and m.entry(3, 3) == 1 and m.entry(1, 1) == 0

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            TypeSpec("D", 2)

    def test_layout_is_computed_once(self):
        # cached per spec, outside the fields: equality and hash ignore it
        spec = TypeSpec("B", 3)
        assert spec.variable_rows is spec.variable_rows
        assert spec == TypeSpec("B", 3) and hash(spec) == hash(TypeSpec("B", 3))


class TestPermanent:
    def test_all_ones_2x2(self):
        assert permanent(BinaryMatrix.ones(2)) == 2

    @pytest.mark.parametrize("n", range(1, 6))
    def test_identity(self, n):
        assert permanent(identity_matrix(n)) == 1

    def test_scaled_witness(self):
        s3 = RationalMatrix.from_rows([[1, 0, Fraction(1, 2)], [0, 1, 0], [2, 1, 1]])
        assert permanent(s3) == 2

    def test_dimension_guard(self):
        assert permanent(BinaryMatrix.ones(8)) == 40320
        with pytest.raises(DimensionError):
            permanent(identity_matrix(9))

    def test_matches_both_oracles_on_every_binary_3x3(self):
        for bits in range(1 << 9):
            m = BinaryMatrix(3, tuple(bits >> (3 * i) & 7 for i in range(3)))
            assert permanent(m) == permanent_ryser(m) == permanent_expansion(m)

    def test_matches_expansion_on_seeded_rationals(self):
        rng = random.Random(20261020)
        entries = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
        for n in range(1, 7):
            for _ in range(20):
                m = RationalMatrix.from_rows(
                    [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
                )
                assert permanent(m) == permanent_expansion(m)

    def test_ryser_small_values(self):
        assert permanent_ryser(BinaryMatrix.ones(2)) == 2
        assert permanent_ryser(BinaryMatrix.ones(4)) == 24
        assert permanent_ryser(identity_matrix(5)) == 1

    def test_ryser_matches_expansion_exhaustively_small(self):
        for n in range(1, 4):
            for bits in range(1 << (n * n)):
                rows = tuple((bits >> (n * i)) & ((1 << n) - 1) for i in range(n))
                m = BinaryMatrix(n, rows)
                assert permanent_ryser(m) == permanent_expansion(m)

    def test_ryser_matches_expansion_random_6x6(self):
        rng = random.Random(20240607)
        for _ in range(1000):
            m = random_binary(rng, 6)
            assert permanent_ryser(m) == permanent_expansion(m)

    def test_ryser_matches_expansion_bulk(self):
        # ten thousand seeded cases spread over the 4..7 range
        rng = random.Random(987654321)
        for n, cases in ((4, 4000), (5, 3000), (6, 2000), (7, 1000)):
            for _ in range(cases):
                m = random_binary(rng, n)
                assert permanent_ryser(m) == permanent_expansion(m)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
            )
        )
    )
    def test_ryser_matches_expansion_property(self, case):
        n, rows = case
        m = BinaryMatrix(n, tuple(rows))
        assert permanent_ryser(m) == permanent_expansion(m)

    def test_binary_permanent_nonnegative(self):
        rng = random.Random(7)
        for _ in range(200):
            assert permanent(random_binary(rng, 4)) >= 0


class TestLaplace:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_choice_in_index_order(self, n):
        # row 0's choice is the fastest index; each entry is the determinant,
        # or unsigned the permanent, of the matrix of that choice
        rng = random.Random(n)
        rows = [
            [tuple(rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(n)) for _ in range(k)]
            for k in (rng.randint(1, 3) for _ in range(n))
        ]
        choices = [combo[::-1] for combo in itertools.product(*reversed(rows))]
        dets, perms = laplace(rows), laplace(rows, signed=False)
        assert len(dets) == len(perms) == len(choices)
        for det, perm, choice in zip(dets, perms, choices):
            assert det == det_int([list(row) for row in choice])
            assert perm == permanent_expansion(RationalMatrix.from_rows(choice))


class TestDeterminant:
    def test_half_offdiag(self):
        m = RationalMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
        assert determinant(m) == Fraction(3, 4)

    def test_singular_witness(self):
        m = RationalMatrix.from_rows([[1, 0, 1], [1, 1, 0], [2, 1, 1]])
        assert determinant(m) == 0

    def test_binary_companion(self):
        m = RationalMatrix.from_rows([[1, 0, 1], [1, 1, 0], [1, 1, 1]])
        assert determinant(m) == 1

    def test_pivot_swap_path(self):
        m = RationalMatrix.from_rows([[0, 1], [1, 0]])
        assert determinant(m) == -1

    def test_matches_expansion_on_seeded_matrices(self):
        rng = random.Random(1234)
        for n in range(1, 6):
            for _ in range(40):
                rows = [
                    [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
                    for _ in range(n)
                ]
                m = RationalMatrix.from_rows(rows)
                assert determinant(m) == determinant_expansion(m)

    def test_every_binary_3x3_matches_expansion(self):
        # the 0/1 rows go straight to the integer kernel, no scaling
        for bits in range(1 << 9):
            m = BinaryMatrix(3, tuple((bits >> (3 * i)) & 0b111 for i in range(3)))
            assert determinant(m) == determinant_expansion(m)


class TestDeleteRowCol:
    def test_identity_minor(self):
        assert delete_row_col(identity_matrix(3), 1, 1) == identity_matrix(2)

    def test_rational_minor(self):
        m = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert delete_row_col(m, 2, 2) == RationalMatrix.from_rows([[1, 3], [7, 10]])

    def test_index_guard(self):
        with pytest.raises(IndexError):
            delete_row_col(identity_matrix(3), 0, 1)
        with pytest.raises(IndexError):
            delete_row_col(identity_matrix(3), 1, 4)

    def test_laplace_expansion_identity(self):
        # expanding along any row reproduces the determinant, n <= 5
        rng = random.Random(99)
        for n in range(2, 6):
            for _ in range(10):
                m = RationalMatrix.from_rows(
                    [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                )
                d = determinant(m)
                for i in range(1, n + 1):
                    expanded = sum(
                        m.entries[i - 1][j - 1]
                        * (-1) ** (i + j)
                        * determinant(delete_row_col(m, i, j))
                        for j in range(1, n + 1)
                    )
                    assert expanded == d


class TestSupport:
    def test_zero_matrix(self):
        z = RationalMatrix.from_rows([[0, 0], [0, 0]])
        assert support(z) == zero_matrix(2)

    def test_scaled_witness_pattern(self):
        m = RationalMatrix.from_rows([[1, 0, Fraction(1, 2)], [0, 1, 0], [2, 1, 1]])
        assert support(m) == BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 1, 1]])

    def test_idempotent_on_binary(self):
        m = BinaryMatrix.from_rows([[1, 0], [1, 1]])
        assert support(m.to_rational()) == m
        assert support(m) is m


HALF = Fraction(1, 2)

# Each frozen record of the package: its fields in order, and every error its
# construction by position raises, as (bad fields, exception type, message).
RECORDS = [
    (
        BinaryMatrix,
        {"n": 2, "rows": (1, 2)},
        [
            ((0, ()), DimensionError, "dimension 0 outside 1..30"),
            ((2, (1,)), ValueError, "expected 2 rows, got 1"),
            ((2, (4, 0)), ValueError, "row mask 0x4 has bits outside 2 columns"),
        ],
    ),
    (
        RationalMatrix,
        {"n": 1, "entries": ((Fraction(1, 2),),)},
        [
            ((0, ()), DimensionError, "dimension 0 must be positive"),
            ((2, ((1, 2),)), ValueError, "entries must form an n-by-n grid"),
        ],
    ),
    (
        TypeSpec,
        {"family": "B", "n": 3},
        [
            (("D", 2), ValueError, "family must be one of ('A', 'B', 'C'), got 'D'"),
            (("A", 31), DimensionError, "dimension 31 outside 1..30"),
        ],
    ),
    (
        CoefficientTable,
        {"spec": TypeSpec("C", 2), "coeffs": (1, 2), "route": "gf"},
        [
            ((TypeSpec("C", 2), (1, 2), "walk"), ValueError, "unknown route 'walk'"),
            ((TypeSpec("C", 2), (1,), "gf"), ValueError, "expected 2 coefficients for C_2, got 1"),
            ((TypeSpec("C", 2), (1, -2), "gf"), ValueError, "coefficients must be non-negative"),
            (
                (TypeSpec("C", 2), (2, 2), "gf"),
                ValueError,
                "the all-zeros assignment is always pertinent",
            ),
            ((TypeSpec("C", 2), (1, 3), "gf"), ValueError, "family C must end with 2, got 3"),
        ],
    ),
    (
        Digraph,
        {"n": 2, "edges": frozenset({(1, 2)})},
        [
            ((2, frozenset({(1, 1)})), ValueError, "loop (1, 1) not allowed"),
            ((2, frozenset({(1, 3)})), ValueError, "edge (1, 3) outside vertex range 1..2"),
        ],
    ),
    (
        Polynomial,
        {"coefficients": (1, 2)},
        [
            (
                ((Fraction(1, 2),),),
                TypeError,
                "'Fraction' object cannot be interpreted as an integer",
            ),
        ],
    ),
    (
        ProbabilityPolynomial,
        {"table": CoefficientTable(TypeSpec("C", 2), (1, 2), "gf")},
        [((), TypeError, "ProbabilityPolynomial() has no value for 'table'")],
    ),
    (
        CurveSample,
        {"r": HALF, "a": 12, "b": 10, "c": 9, "denominator": 16},
        [
            ((HALF, 12), TypeError, "CurveSample() has no value for 'b', 'c'"),
            ((HALF, 12, 10, 9, 16, 1), TypeError, "CurveSample() takes 5 fields but 6 were given"),
        ],
    ),
    (
        ChainReport,
        {
            "n": 3,
            "lo": Fraction(1, 100),
            "hi": Fraction(99, 100),
            "step": Fraction(1, 1000),
            "holding_count": 700,
            "failing_count": 281,
            "largest_failing": Fraction(3, 10),
            "smallest_holding_above": Fraction(301, 1000),
        },
        [
            (
                (3,),
                TypeError,
                "ChainReport() has no value for 'lo', 'hi', 'step', 'holding_count', "
                "'failing_count', 'largest_failing', 'smallest_holding_above'",
            ),
        ],
    ),
    (
        ValueSet,
        {"kind": "continuous", "values": (), "interval": (Fraction(0), Fraction(2))},
        [
            ((), TypeError, "ValueSet() has no value for 'kind'"),
            (("discrete", (), None, 1), TypeError, "ValueSet() takes 3 fields but 4 were given"),
        ],
    ),
    (
        AttainingSet,
        {
            "spec": TypeSpec("C", 2),
            "value": Fraction(0),
            "counters": (3,),
            "nonzeros": (2,),
            "values": None,
        },
        [
            (
                (TypeSpec("C", 2),),
                TypeError,
                "AttainingSet() has no value for 'value', 'counters', 'nonzeros', 'values'",
            ),
        ],
    ),
    (
        InclusionReport,
        {
            "family": "A",
            "n": 2,
            "holds": True,
            "difference": (BinaryMatrix(2, (3, 3)),),
            "missing": (),
            "disjoint": False,
        },
        [
            (
                ("A", 2, True, (), (), False, 0),
                TypeError,
                "InclusionReport() takes 6 fields but 7 were given",
            ),
        ],
    ),
    (
        Claim,
        {"description": "least |det|", "expected": "3/4", "computed": "3/4", "ok": True},
        [(("least |det|",), TypeError, "Claim() has no value for 'expected', 'computed', 'ok'")],
    ),
    (
        CheckReport,
        {"name": "discrete-counterexamples", "claims": (Claim("x", "1", "1", True),)},
        [(("suite",), TypeError, "CheckReport() has no value for 'claims'")],
    ),
    (
        ComplementReport,
        {
            "continuous_coeffs": (0, 0, 1),
            "discrete_coeffs": (1, 0, -1),
            "sum_coeffs": (1,),
            "ok": True,
        },
        [
            (
                (),
                TypeError,
                "ComplementReport() has no value for 'continuous_coeffs', 'discrete_coeffs', "
                "'sum_coeffs', 'ok'",
            ),
        ],
    ),
]


def refusals(record, name: str) -> list[str]:
    """The AttributeError messages of assigning and of deleting ``name``."""
    messages = []
    for refused in (lambda: setattr(record, name, 0), lambda: delattr(record, name)):
        with pytest.raises(AttributeError) as info:
            refused()
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize(
    "cls, fields, invalid", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_frozen_record_semantics(cls, fields, invalid):
    # the oracle: the same fields under @dataclass(frozen=True)
    twin = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)(**fields)
    record = cls(*fields.values())
    assert cls(**fields) == record
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    # equal only within one class
    assert record.__eq__(twin) is NotImplemented and record != twin
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    for name in [*fields, "other"]:
        assert refusals(record, name) == refusals(twin, name)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    for values, error, message in invalid:
        with pytest.raises(error) as info:
            cls(*values)
        assert info.type is error and str(info.value) == message


def test_positional_construction_binds_nothing(monkeypatch):
    # every field by position, as a curve builds its thousands of samples,
    # takes no keyword or default handling
    def refuse(self, values, named):
        raise AssertionError(f"{type(self).__name__} bound {values!r}, {named!r}")

    monkeypatch.setattr(_Record, "_bind", refuse)
    for cls, fields, _ in RECORDS:
        record = cls(*fields.values())
        assert [getattr(record, name) for name in fields] == list(fields.values())


def test_defaults_are_class_attributes():
    sample = CurveSample(HALF, 12, 10, 9)
    assert sample.denominator == CurveSample.denominator == 1
    assert sample == CurveSample(HALF, 12, 10, 9, 1)
    discrete = ValueSet("discrete")
    assert (discrete.values, discrete.interval) == ((), None)
    assert ValueSet("continuous", interval=(0, 1)).values == ()
    assert ValueSet.continuous(0, 1) == ValueSet("continuous", (), (0, 1))
    assert ValueSet.discrete([1, 0]) == ValueSet("discrete", (Fraction(0), Fraction(1)), None)


# The dataclass twins of the records with defaults: same fields, same defaults.
TWIN_FIELDS = {
    CurveSample: ["r", "a", "b", "c", ("denominator", int, dataclasses.field(default=1))],
    ValueSet: [
        "kind",
        ("values", tuple, dataclasses.field(default=())),
        ("interval", object, dataclasses.field(default=None)),
    ],
}

# (record, positional values, keyword values): calls that bind and calls that
# must raise TypeError (a field missing, unknown, given twice, or too many)
CALLS = [
    (CurveSample, (HALF, 12, 10, 9), {}),
    (CurveSample, (HALF, 12, 10, 9, 16), {}),
    (CurveSample, (), {"r": HALF, "a": 12, "b": 10, "c": 9}),
    (CurveSample, (), {"denominator": 16, "c": 9, "b": 10, "a": 12, "r": HALF}),
    (CurveSample, (HALF, 12), {"c": 9, "b": 10}),
    (CurveSample, (HALF,), {"a": 12, "b": 10, "c": 9, "denominator": 16}),
    (CurveSample, (HALF, 12, 10), {}),
    (CurveSample, (), {"r": HALF, "a": 12, "b": 10, "denominator": 16}),
    (CurveSample, (HALF, 12, 10, 9), {"d": 16}),
    (CurveSample, (HALF, 12, 10, 9), {"r": HALF}),
    (CurveSample, (HALF, 12, 10, 9, 16), {"denominator": 16}),
    (CurveSample, (HALF, 12, 10, 9, 16, 1), {}),
    (ValueSet, ("discrete",), {}),
    (ValueSet, ("discrete", (Fraction(0), Fraction(1))), {}),
    (ValueSet, ("continuous",), {"interval": (Fraction(-1), Fraction(1))}),
    (ValueSet, (), {"kind": "continuous", "interval": (Fraction(0), Fraction(2))}),
    (ValueSet, (), {"interval": None, "values": (), "kind": "discrete"}),
    (ValueSet, (), {}),
    (ValueSet, (), {"values": ()}),
    (ValueSet, ("discrete",), {"kind": "discrete"}),
    (ValueSet, ("discrete",), {"size": 2}),
    (ValueSet, ("discrete", (), None, 1), {}),
]


def outcome(cls, args, kwargs):
    """The repr of ``cls(*args, **kwargs)``, or TypeError if the call raises it."""
    try:
        return repr(cls(*args, **kwargs))
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, args, kwargs", CALLS)
def test_keyword_and_default_binding(cls, args, kwargs):
    twin = dataclasses.make_dataclass(cls.__name__, TWIN_FIELDS[cls], frozen=True)
    assert outcome(cls, args, kwargs) == outcome(twin, args, kwargs)


@pytest.mark.parametrize(
    "cls, args, kwargs, message",
    [
        (CurveSample, (HALF, 12), {}, "CurveSample() has no value for 'b', 'c'"),
        (CurveSample, (), {"a": 12, "b": 10, "c": 9}, "CurveSample() has no value for 'r'"),
        (CurveSample, (HALF, 12, 10, 9), {"d": 16}, "CurveSample() got an unknown field 'd'"),
        (ValueSet, (), {"size": 2}, "ValueSet() got an unknown field 'size'"),
        (ValueSet, ("discrete",), {"kind": "x"}, "ValueSet() got two values for field 'kind'"),
        (ValueSet, ("discrete", (), None, 1), {}, "ValueSet() takes 3 fields but 4 were given"),
    ],
)
def test_binding_errors_name_the_field(cls, args, kwargs, message):
    with pytest.raises(TypeError) as info:
        cls(*args, **kwargs)
    assert str(info.value) == message
