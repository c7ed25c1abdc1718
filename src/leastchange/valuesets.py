"""Least attainable |det| over a value set, and the sets of attaining matrices.

Variable elements draw from a value set containing 0.  Two questions are
answered exhaustively: which determinant value of least absolute value can a
family matrix attain with positive probability (over rational assignments,
and over the induced 0/1 patterns), and which matrices attain it.

For a continuous value set only the support pattern of an assignment
matters: matrices sharing the locations of their nonzero variable elements
form one equivalence class, represented here by the pattern itself.  A class
attains the least value exactly when its pattern is pertinent (permanent
equal to the family target), because then every determinant term beyond the
forced ones vanishes identically.  So the attaining classes, counted by
nonzeros, are the family's coefficient table: ``least`` over an interval
reads ``genfunc.series_table`` and never loads this module (which is why
``ValueSet`` lives in ``values``).  The pertinence plane of
``enumeration.pertinent_bits`` over all 2^m patterns is read only when the
members themselves are asked for.  For a discrete set every assignment has
positive probability, so plain minimization over assignments applies: one
list of Python ints holds every assignment's determinant, from
``matrices.laplace`` over each row's candidate rows.

Which cells are variable and which are fixed at 1 comes from ``TypeSpec``
alone: both scans visit the assignments in the order of its counter (value
digit k fills the k-th of its ``variable_positions``).  An attaining set
keeps the ascending counters of its members and their numbers of nonzero
variable elements, summed over the rows' value digits and never read from
cells; sizes come from those, membership from ``TypeSpec.counter_of`` of the
candidate, and the members are decoded only when read, one stratum of
nonzeros at a time if asked so.  Over an interval the stratum at i_max
nonzeros holds the witnesses that the fewest-zeros bound is tight.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache

from .enumeration import pertinent_bits
from .errors import BudgetError
from .matrices import (
    BinaryMatrix,
    RationalMatrix,
    TypeSpec,
    _Record,
    determinant,
    laplace,
    permanent,
    support,
)
from .values import ValueSet

DISCRETE_BUDGET = 20_000_000
# bin() digits to bytes 0/1, so that compress() keeps the set bits
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class AttainingSet(_Record):
    """Matrices (or support patterns) attaining the least |det| value.

    The set is its members' ascending assignment counters over the digit
    ``values`` (``None`` for 0/1 patterns, whose digits are the counter's
    bits); ``members`` decodes them on first read, ``stratum`` only those
    with a given number of nonzeros.
    """

    spec: TypeSpec
    value: Fraction
    counters: tuple[int, ...]
    nonzeros: tuple[int, ...]  # nonzero variable elements of each member
    values: tuple[Fraction, ...] | None

    def __len__(self):
        return len(self.counters)

    def __contains__(self, member) -> bool:
        """Whether ``member`` is in the set, by the counter it encodes."""
        if type(member) is not (BinaryMatrix if self.values is None else RationalMatrix):
            return False
        try:
            counter = self.spec.counter_of(member, self.values or (0, 1))
        except ValueError:  # wrong size, a fixed element not 1, or a value outside the set
            return False
        k = bisect.bisect_left(self.counters, counter)
        return k < len(self.counters) and self.counters[k] == counter

    @cached_property
    def members(self) -> tuple:
        """The attaining matrices, or patterns, in counter order."""
        return self._decode(self.counters)

    def stratum(self, i: int) -> tuple:
        """The members with i nonzero variable elements, in counter order;
        only they are decoded."""
        return self._decode([c for c, k in zip(self.counters, self.nonzeros) if k == i])

    def _decode(self, counters) -> tuple:
        if self.values is None:
            return tuple(map(self.spec.matrix_from_bits, counters))
        # members share row tuples: row i of a member is one of k^w_i candidates
        tables = [entries for entries, _ in _row_choices(self.spec, self.values, Fraction(1))]

        def member(counter):
            rows = []
            for entries in tables:
                counter, digit = divmod(counter, len(entries))
                rows.append(entries[digit])
            return RationalMatrix(self.spec.n, tuple(rows))

        return tuple(map(member, counters))

    def sizes(self) -> dict[int, int]:
        """Number of members per number of nonzero variable elements, ascending."""
        return dict(sorted(Counter(self.nonzeros).items()))

    def partition(self) -> dict[int, tuple]:
        """Members grouped by number of nonzero variable elements, ascending."""
        return {i: self.stratum(i) for i in self.sizes()}


def least_determinant(spec: TypeSpec, xset: ValueSet) -> Fraction:
    """Determinant value of least absolute value attainable with positive
    probability; ties between +u and -u resolve to the nonnegative one."""
    if xset.kind == "continuous":
        return Fraction(spec.target_permanent)
    return _discrete_scan(spec, xset).value


def attaining_matrices(spec: TypeSpec, xset: ValueSet) -> AttainingSet:
    """All attaining assignments (discrete) or support classes (continuous)."""
    return _continuous_scan(spec) if xset.kind == "continuous" else _discrete_scan(spec, xset)


def least_determinant_binary(spec: TypeSpec, xset: ValueSet) -> Fraction:
    """Least |det| over the induced 0/1 matrices.

    Discrete sets induce every pattern with positive probability, so this
    minimizes over patterns directly; for continuous sets the attaining
    classes are the pertinent patterns, whose determinant is exactly the
    family target.
    """
    if xset.kind == "continuous":
        return least_determinant(spec, xset)
    return _pattern_scan(spec).value


def attaining_patterns(spec: TypeSpec, xset: ValueSet) -> AttainingSet:
    """Binary matrices attaining the least binary determinant value."""
    return _continuous_scan(spec) if xset.kind == "continuous" else _pattern_scan(spec)


@lru_cache(maxsize=256)
def _continuous_scan(spec: TypeSpec) -> AttainingSet:
    """The pertinent patterns in counter order; they depend on the spec alone."""
    if 1 << spec.m > DISCRETE_BUDGET:
        raise BudgetError(f"2^{spec.m} patterns exceed the {DISCRETE_BUDGET} budget")
    bits = bin(pertinent_bits(spec))[:1:-1].encode().translate(_BIT_BYTES)
    hits = tuple(itertools.compress(itertools.count(), bits))
    nonzeros = tuple(c.bit_count() for c in hits)
    return AttainingSet(spec, Fraction(spec.target_permanent), hits, nonzeros, None)


@lru_cache(maxsize=256)
def _discrete_scan(spec: TypeSpec, xset: ValueSet) -> AttainingSet:
    """Least |det|, +u before -u, and its attaining assignments, from one
    determinant array."""
    if xset.kind != "discrete":
        raise ValueError("discrete scan needs a discrete value set")
    values, m = xset.values, spec.m
    if len(values) ** m > DISCRETE_BUDGET:
        raise BudgetError(f"{len(values)}^{m} assignments exceed the {DISCRETE_BUDGET} budget")
    scale = math.lcm(*(v.denominator for v in values))
    dets, nonzeros = _determinants(spec, [int(v * scale) for v in values], scale)
    least = min(map(abs, dets))
    u_scaled = least if least in dets else -least
    hits = tuple(itertools.compress(itertools.count(), map(u_scaled.__eq__, dets)))
    value = Fraction(u_scaled, scale**spec.n)
    return AttainingSet(spec, value, hits, tuple(map(nonzeros.__getitem__, hits)), values)


@lru_cache(maxsize=256)
def _pattern_scan(spec: TypeSpec) -> AttainingSet:
    """The discrete scan over {0, 1}, members as patterns in counter order.

    Over {0, 1} the value digits are the bits of the pattern counter, so the
    set is the {0, 1} scan's value, counters and nonzeros with ``values``
    ``None``: each attaining counter decodes straight to its pattern, and
    both scans share one determinant array through the cache.
    """
    scan = _discrete_scan(spec, ValueSet.discrete([0, 1]))
    return AttainingSet(spec, scan.value, scan.counters, scan.nonzeros, None)


def _row_choices(spec: TypeSpec, values, fixed):
    """Per row: the entry tuples of its k^w assignments, lowest digit first,
    ``fixed`` in fixed cells, and each tuple's number of nonzero variable
    entries."""
    for cols in spec.variable_columns:
        row, entries, nonzeros = [fixed] * spec.n, [], []
        # product() turns its last factor fastest, so that factor is digit 0
        for combo in itertools.product(values, repeat=len(cols)):
            for c, v in zip(cols, reversed(combo)):
                row[c] = v
            entries.append(tuple(row))
            nonzeros.append(len(cols) - combo.count(0))
        yield entries, nonzeros


def _determinants(spec: TypeSpec, scaled, scale: int) -> tuple[list[int], list[int]]:
    """Every assignment's determinant by counter (fixed cells hold ``scale``),
    and its number of nonzero variable entries.  Row i's cells take the
    counter digits above those of rows 0..i-1, so ``laplace``, row 0's choice
    fastest, lists the determinants in counter order, and the nonzero counts
    are outer sums."""
    entries, counts = zip(*_row_choices(spec, scaled, scale))
    nonzeros = [0]
    for row_counts in counts:
        nonzeros = [low + high for high in row_counts for low in nonzeros]
    return laplace(entries), nonzeros


class InclusionReport(_Record):
    """Is the continuous attaining-pattern set inside the discrete one?"""

    family: str
    n: int
    holds: bool
    difference: tuple  # discrete-only patterns
    missing: tuple  # continuous patterns absent from the discrete side
    disjoint: bool


def check_inclusion(
    family: str, n: int, xset_dis: ValueSet, xset_cnt: ValueSet
) -> InclusionReport:
    """Compare attaining-pattern sets for nested discrete/continuous sets."""
    if xset_dis.kind != "discrete" or xset_cnt.kind != "continuous":
        raise ValueError("need a discrete set nested in a continuous one")
    if not all(xset_cnt.contains(v) for v in xset_dis.values):
        raise ValueError(f"{xset_dis} is not contained in {xset_cnt}")
    spec = TypeSpec(family, n)
    dis = set(attaining_patterns(spec, xset_dis).members)
    cnt = set(attaining_patterns(spec, xset_cnt).members)
    missing = tuple(sorted(cnt - dis, key=lambda m: m.rows))
    difference = tuple(sorted(dis - cnt, key=lambda m: m.rows))
    holds = not missing
    if family in ("A", "B") and not holds:
        raise RuntimeError(
            f"inclusion must hold for family {family}; missing {len(missing)} patterns"
        )
    return InclusionReport(family, n, holds, difference, missing, not (dis & cnt))


class Claim(_Record):
    description: str
    expected: str
    computed: str
    ok: bool


class CheckReport(_Record):
    name: str
    claims: tuple[Claim, ...]


class ComplementReport(_Record):
    """The exact identity P_continuous(det=1) + P_discrete(det=0) = 1."""

    continuous_coeffs: tuple
    discrete_coeffs: tuple
    sum_coeffs: tuple
    ok: bool


def complement_identity_check() -> ComplementReport:
    """Unit-diagonal 2x2 over [0, 1] vs {0, 1}, both sides from scratch.

    Continuous side: probability that det = 1, summed over pertinent support
    classes with weight r^i (1-r)^(m-i).  Discrete side: probability that
    det = 0, summed over the zeros of the spec's determinant array with cell
    weights r or 1-r.  Both sides are their members' numbers of nonzeros, and
    the sum is linear in them, so the two lists together give the sum, whose
    coefficients in powers of r must be exactly those of 1.
    """
    spec = TypeSpec("C", 2)
    cnt = attaining_matrices(spec, ValueSet.continuous(0, 1)).nonzeros
    dets, nonzeros = _determinants(spec, [0, 1], 1)
    dis = tuple(itertools.compress(nonzeros, map((0).__eq__, dets)))
    total = _monomial(cnt + dis, spec.m)
    return ComplementReport(_monomial(cnt, spec.m), _monomial(dis, spec.m), total, total == (1,))


def _monomial(nonzeros, m: int) -> tuple[int, ...]:
    """Coefficients of sum_i r^i (1-r)^(m-i) in powers of r, over ``nonzeros``
    with repeats, by the binomial expansion of (1-r)^(m-i); trailing zeros
    dropped."""
    out = [0] * (m + 1)
    for i in nonzeros:
        for k in range(m - i + 1):
            out[i + k] += (-1) ** k * math.comb(m - i, k)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def counterexample_report() -> CheckReport:
    """Recompute the hard-wired discrete counterexamples and check each claim."""
    claims: list[Claim] = []

    def claim(description, expected, computed):
        claims.append(Claim(description, str(expected), str(computed), expected == computed))

    # --- value set {0, 1/2}: rational and binary least values diverge ---
    x_half = ValueSet.discrete([0, Fraction(1, 2)])
    c2 = TypeSpec("C", 2)
    claim(
        "least |det| of unit-diagonal 2x2 over {0,1/2}",
        Fraction(3, 4),
        least_determinant(c2, x_half),
    )
    witness = RationalMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    claim(
        "witness with both off-diagonals 1/2 attains it",
        True,
        witness in attaining_matrices(c2, x_half),
    )
    claim(
        "binary least value over {0,1/2}",
        Fraction(0),
        least_determinant_binary(c2, x_half),
    )
    claim(
        "all-ones pattern attains the binary least value",
        True,
        BinaryMatrix.ones(2) in attaining_patterns(c2, x_half),
    )

    # --- value set {0, 1/2, 1, 2}: two assignments share one pattern ---
    x_four = ValueSet.discrete([0, Fraction(1, 2), 1, 2])
    s3 = RationalMatrix.from_rows([[1, 0, Fraction(1, 2)], [0, 1, 0], [2, 1, 1]])
    t3 = support(s3).to_rational()
    claim("det of the scaled witness", Fraction(0), determinant(s3))
    claim("det of its pattern", Fraction(0), determinant(t3))
    claim("permanent of the scaled witness", Fraction(2), permanent(s3))
    claim("permanent of its pattern", 2, permanent(support(s3)))
    claim(
        "pattern of the scaled witness",
        BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 0], [1, 1, 1]]).to_lists(),
        support(s3).to_lists(),
    )
    for family, count in (("A", 6), ("B", 4), ("C", 3)):
        spec = TypeSpec(family, 3)
        claim(
            f"family {family} least |det| over {{0,1/2,1,2}}",
            Fraction(0),
            least_determinant(spec, x_four),
        )
        claim(
            f"family {family} binary least |det|",
            Fraction(0),
            least_determinant_binary(spec, x_four),
        )
        rational_stratum = attaining_matrices(spec, x_four).sizes().get(count, 0)
        pattern_stratum = attaining_patterns(spec, x_four).sizes().get(count, 0)
        claim(
            f"family {family}: strictly more attainers than patterns at {count} nonzeros",
            True,
            rational_stratum > pattern_stratum,
        )

    # --- value set {0, 1, 2}: rational det 0 but pattern det 1 ---
    x_three = ValueSet.discrete([0, 1, 2])
    m3 = RationalMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 1, 1]])
    claim("repeated-row witness has det 0", Fraction(0), determinant(m3))
    for family in "ABC":
        spec = TypeSpec(family, 3)
        claim(
            f"family {family} least |det| over {{0,1,2}}",
            Fraction(0),
            least_determinant(spec, x_three),
        )
        claim(
            f"family {family} binary least |det| over {{0,1,2}}",
            Fraction(0),
            least_determinant_binary(spec, x_three),
        )
    s3b = RationalMatrix.from_rows([[1, 0, 1], [1, 1, 0], [2, 1, 1]])
    claim("det of the second scaled witness", Fraction(0), determinant(s3b))
    claim("det of its pattern", Fraction(1), determinant(support(s3b)))

    return CheckReport("discrete-counterexamples", tuple(claims))
