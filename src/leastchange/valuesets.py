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
reads ``genfunc.series_table`` and never loads this module or numpy (which
is why ``ValueSet`` lives in ``values``).  The pertinence plane of
``enumeration.pertinent_bits`` over all 2^m patterns is read only when the
members themselves are asked for.  For a discrete set every assignment has
positive probability, so plain minimization over assignments applies: one
integer array holds every assignment's determinant, built by cofactor
expansion one row at a time.

Which cells are variable and which are fixed at 1 comes from ``TypeSpec``
alone: both scans visit the assignments in the order of its counter (value
digit k fills the k-th of its ``variable_positions``).  An attaining set
keeps the ascending counters of its members and their numbers of nonzero
variable elements, read from the value digits and never from cells; sizes
come from those, membership from ``TypeSpec.counter_of`` of the candidate,
and the members are decoded only when read, one stratum of nonzeros at a
time if asked so.  Over an interval the stratum at i_max nonzeros holds the
witnesses that the fewest-zeros bound is tight.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .enumeration import pertinent_bits
from .errors import BudgetError
from .genfunc import Polynomial
from .matrices import (
    BinaryMatrix,
    RationalMatrix,
    TypeSpec,
    determinant,
    permanent_expansion,
    support,
)
from .values import ValueSet

DISCRETE_BUDGET = 20_000_000


@dataclass(frozen=True)
class AttainingSet:
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
        hits, rows = np.array(counters, dtype=np.int64), []
        for entries in _row_entries(self.spec, self.values, Fraction(1), object):
            hits, row_hits = np.divmod(hits, len(entries))
            rows.append(np.fromiter(map(tuple, entries.tolist()), dtype=object)[row_hits])
        return tuple(RationalMatrix(self.spec.n, r) for r in zip(*rows))

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
    size = 1 << spec.m
    packed = np.frombuffer(pertinent_bits(spec).to_bytes((size + 7) // 8, "little"), np.uint8)
    hits = np.flatnonzero(np.unpackbits(packed, count=size, bitorder="little"))
    return _attaining(spec, Fraction(spec.target_permanent), hits, None)


@lru_cache(maxsize=256)
def _discrete_scan(spec: TypeSpec, xset: ValueSet) -> AttainingSet:
    """Least |det|, +u before -u, and its attaining assignments."""
    if xset.kind != "discrete":
        raise ValueError("discrete scan needs a discrete value set")
    least, hits = _least_counters(spec, xset.values)
    return _attaining(spec, least, hits, xset.values)


def _attaining(
    spec: TypeSpec, value: Fraction, hits: np.ndarray, values: tuple[Fraction, ...] | None
) -> AttainingSet:
    """Attaining set of the ascending counters ``hits`` over the digit
    ``values`` (0/1 patterns when None), with each one's nonzero digits."""
    k, zero = (2, 0) if values is None else (len(values), values.index(0))
    nonzeros, rest = np.full(len(hits), spec.m), hits
    for _, digits in _row_digits(spec, k):
        rest, row_hits = np.divmod(rest, len(digits))
        nonzeros -= (digits == zero).sum(axis=1)[row_hits]
    return AttainingSet(spec, value, tuple(hits.tolist()), tuple(nonzeros.tolist()), values)


def _row_digits(spec: TypeSpec, k: int):
    """Per row of ``spec.fields``: its variable columns and the digits of its
    k^w assignments, lowest first."""
    for runs in spec.fields:
        cols = [c for _, width, start in runs for c in range(start, start + width)]
        yield cols, np.arange(k ** len(cols))[:, None] // k ** np.arange(len(cols)) % k


def _row_entries(spec: TypeSpec, values, fixed, dtype):
    """Per row of ``spec.fields``: the (k^w, n) array of the entries of its
    assignments, lowest digits first, ``fixed`` in fixed cells."""
    for cols, digits in _row_digits(spec, len(values)):
        entries = np.full((len(digits), spec.n), fixed, dtype=dtype)
        entries[:, cols] = np.array(values, dtype=dtype)[digits]
        yield entries


def _least_counters(spec: TypeSpec, values: tuple[Fraction, ...]) -> tuple[Fraction, np.ndarray]:
    """Least |det| (+u before -u) over the value digits, and the counters of
    the assignments attaining it, ascending."""
    least, attaining = _attaining_bits(spec, values)
    return least, np.flatnonzero(np.unpackbits(attaining, count=len(values) ** spec.m))


@lru_cache(maxsize=256)
def _attaining_bits(spec: TypeSpec, values: tuple[Fraction, ...]) -> tuple[Fraction, np.ndarray]:
    """Least |det| and one packed bit per assignment, set where it is attained,
    from one determinant array.  Cached so that the {0, 1} discrete scan and
    the pattern scan of a spec share one array; packed, an entry costs an
    eighth of a byte per assignment and does not grow with the attainers."""
    k, m, n = len(values), spec.m, spec.n
    if k**m > DISCRETE_BUDGET:
        raise BudgetError(f"{k}^{m} assignments exceed the {DISCRETE_BUDGET} budget")
    scale = math.lcm(*(v.denominator for v in values))
    scaled = [int(v * scale) for v in values]
    # every minor and partial Laplace sum is below n! * max|entry|^n
    fits = math.factorial(n) * max(scale, *map(abs, scaled)) ** n < 1 << 62
    dets = _determinants(spec, scaled, scale, np.int64 if fits else object)
    least = int(np.abs(dets).min())
    u_scaled = least if (dets == least).any() else -least
    attaining = np.packbits(dets == u_scaled)
    attaining.flags.writeable = False  # cached, and shared by both scans
    return Fraction(u_scaled, scale**n), attaining


def _determinants(spec: TypeSpec, scaled, scale: int, dtype) -> np.ndarray:
    """Every assignment's determinant by counter (fixed cells hold ``scale``).
    Cofactor expansion row by row: ``minors[s]`` is the minor of rows 0..i on
    columns s for every assignment of those rows, which take the lower digits."""
    n = spec.n
    minors = {(): np.ones(1, dtype=dtype)}
    for i, entries in enumerate(_row_entries(spec, scaled, scale, dtype)):
        minors = {
            s: np.ravel(
                (entries[:, s] * (-1) ** (i + np.arange(i + 1)))
                @ np.stack([minors[s[:p] + s[p + 1 :]] for p in range(i + 1)])
            )
            for s in itertools.combinations(range(n), i + 1)
        }
    return minors[tuple(range(n))]


@lru_cache(maxsize=256)
def _pattern_scan(spec: TypeSpec) -> AttainingSet:
    """The discrete scan over {0, 1}, members as patterns in counter order.

    Over {0, 1} the value digits are the bits of the pattern counter, so each
    attaining counter decodes straight to its pattern.
    """
    least, hits = _least_counters(spec, (Fraction(0), Fraction(1)))
    return _attaining(spec, least, hits, None)


@dataclass(frozen=True)
class InclusionReport:
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


@dataclass(frozen=True)
class Claim:
    description: str
    expected: str
    computed: str
    ok: bool


@dataclass(frozen=True)
class CheckReport:
    name: str
    claims: tuple[Claim, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)


@dataclass(frozen=True)
class ComplementReport:
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
    weights r or 1-r.  Their polynomial sum must be exactly 1.
    """
    spec = TypeSpec("C", 2)
    x_cnt = ValueSet.continuous(0, 1)

    r = Polynomial.variable()
    one_minus_r = Polynomial((1, -1))

    cnt_poly = Polynomial.zero()
    for i in attaining_matrices(spec, x_cnt).nonzeros:
        cnt_poly = cnt_poly + r**i * one_minus_r ** (spec.m - i)

    dis_poly = Polynomial.zero()
    for bits in np.flatnonzero(_determinants(spec, [0, 1], 1, np.int64) == 0).tolist():
        i = bits.bit_count()
        dis_poly = dis_poly + r**i * one_minus_r ** (spec.m - i)

    total = cnt_poly + dis_poly
    return ComplementReport(
        cnt_poly.coefficients,
        dis_poly.coefficients,
        total.coefficients,
        total == Polynomial.one(),
    )


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
    claim("permanent of the scaled witness", Fraction(2), permanent_expansion(s3))
    claim("permanent of its pattern", 2, permanent_expansion(support(s3)))
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
