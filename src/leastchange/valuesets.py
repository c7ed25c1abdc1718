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
forced ones vanishes identically; the classes are found by running the
batched pertinence test of ``enumeration.pertinent_mask`` once over all 2^m
patterns.  For a discrete set every assignment has positive probability, so
plain minimization over assignments applies: one integer array holds every
assignment's determinant, built by cofactor expansion one row at a time.

Which cells are variable and which are fixed at 1 comes from ``TypeSpec``
alone: both scans visit the assignments in the order of its counter (value
digit k fills the k-th of its ``variable_positions``), so every attaining
set lists its members in counter order.  Each member's number of nonzero
variable elements is recorded by the scan that found it, from the counter
(continuous) or the value digits (discrete), and never re-read from cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .enumeration import pertinent_mask
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

DISCRETE_BUDGET = 20_000_000


@dataclass(frozen=True)
class ValueSet:
    """Finite rational value set, or an interval around 0."""

    kind: str
    values: tuple[Fraction, ...] = ()
    interval: tuple[Fraction, Fraction] | None = None

    @classmethod
    def discrete(cls, values) -> "ValueSet":
        vals = sorted({Fraction(v) for v in values})
        if Fraction(0) not in vals:
            raise ValueError("a value set must contain 0")
        if len(vals) == 1:
            raise ValueError("a discrete value set needs at least one nonzero value")
        return cls("discrete", tuple(vals))

    @classmethod
    def continuous(cls, lo, hi) -> "ValueSet":
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise ValueError("interval must be non-trivial")
        if not lo <= 0 <= hi:
            raise ValueError("a value set must contain 0")
        return cls("continuous", interval=(lo, hi))

    @classmethod
    def parse(cls, text: str) -> "ValueSet":
        """Literal like ``0,1/2,2``: comma-separated fractions."""
        values = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                raise ValueError("empty entry in value-set literal")
            values.append(Fraction(token))
        return cls.discrete(values)

    def contains(self, value) -> bool:
        value = Fraction(value)
        if self.kind == "discrete":
            return value in self.values
        lo, hi = self.interval
        return lo <= value <= hi

    def __str__(self):
        if self.kind == "discrete":
            return "{" + ", ".join(str(v) for v in self.values) + "}"
        return f"[{self.interval[0]}, {self.interval[1]}]"


@dataclass(frozen=True)
class AttainingSet:
    """Matrices (or support patterns) attaining the least |det| value."""

    spec: TypeSpec
    value: Fraction
    members: tuple
    nonzeros: tuple[int, ...]  # nonzero variable elements of each member

    def __len__(self):
        return len(self.members)

    def partition(self) -> dict[int, tuple]:
        """Members grouped by number of nonzero variable elements."""
        groups: dict[int, list] = {}
        for member, count in zip(self.members, self.nonzeros):
            groups.setdefault(count, []).append(member)
        return {i: tuple(ms) for i, ms in sorted(groups.items())}


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
    hits = np.flatnonzero(pertinent_mask(spec, np.arange(1 << spec.m, dtype=np.uint32)))
    return _patterns(spec, Fraction(spec.target_permanent), hits)


@lru_cache(maxsize=256)
def _discrete_scan(spec: TypeSpec, xset: ValueSet) -> AttainingSet:
    """Least |det|, +u before -u, and its attaining assignments."""
    if xset.kind != "discrete":
        raise ValueError("discrete scan needs a discrete value set")
    values = xset.values
    least, hits = _least_counters(spec, values)
    # members share row tuples: row i of a member is one of k^w_i candidates
    nonzeros, rows = np.full(len(hits), spec.m), []
    for digits, table in _row_entries(spec, values, Fraction(1), object):
        hits, row_hits = np.divmod(hits, len(digits))
        rows.append(np.fromiter(map(tuple, table.tolist()), dtype=object)[row_hits])
        nonzeros -= (digits == values.index(0)).sum(axis=1)[row_hits]
    members = tuple(RationalMatrix(spec.n, r) for r in zip(*rows))
    return AttainingSet(spec, least, members, tuple(nonzeros.tolist()))


def _row_entries(spec: TypeSpec, values, fixed, dtype):
    """Per row of ``spec.fields``: the digits of its k^w assignments, lowest
    first, and the (k^w, n) array of their entries, ``fixed`` in fixed cells."""
    k = len(values)
    for runs in spec.fields:
        cols = [c for _, width, start in runs for c in range(start, start + width)]
        digits = np.arange(k ** len(cols))[:, None] // k ** np.arange(len(cols)) % k
        entries = np.full((len(digits), spec.n), fixed, dtype=dtype)
        entries[:, cols] = np.array(values, dtype=dtype)[digits]
        yield digits, entries


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
    for i, (_, entries) in enumerate(_row_entries(spec, scaled, scale, dtype)):
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
    return _patterns(spec, least, hits)


def _patterns(spec: TypeSpec, value: Fraction, counters: np.ndarray) -> AttainingSet:
    """Attaining set of the patterns of ascending counters, nonzeros their bit counts."""
    counters = counters.tolist()
    members = tuple(map(spec.matrix_from_bits, counters))
    return AttainingSet(spec, value, members, tuple(b.bit_count() for b in counters))


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
        witness in attaining_matrices(c2, x_half).members,
    )
    claim(
        "binary least value over {0,1/2}",
        Fraction(0),
        least_determinant_binary(c2, x_half),
    )
    claim(
        "all-ones pattern attains the binary least value",
        True,
        BinaryMatrix.ones(2) in attaining_patterns(c2, x_half).members,
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
        attaining = attaining_matrices(spec, x_four)
        patterns = attaining_patterns(spec, x_four)
        rational_stratum = attaining.partition().get(count, ())
        pattern_stratum = patterns.partition().get(count, ())
        claim(
            f"family {family}: strictly more attainers than patterns at {count} nonzeros",
            True,
            len(rational_stratum) > len(pattern_stratum),
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
