"""Exhaustive census of pertinent matrices for each family.

An assignment of the m variable elements is an m-bit counter.  Which bits
fill which cells is read from ``TypeSpec.fields`` (bit k drives the k-th
variable cell in row-major order); ``_build_rows`` splices a whole array of
counters into row bitmasks with it, exactly as ``TypeSpec.matrix_from_bits``
does for one counter.  ``pertinent_mask`` is the one place that maps a
family to its pertinence test, applied to a whole array of counters at once.
Family C (permanent one) uses the vectorized source peel of ``dags``:
permanent one iff the off-diagonal digraph is acyclic.

Families A and B (permanent zero) split the rows.  Laplace expansion along
the top h = ceil(n/2) rows gives perm(M) = sum over the h-column sets S of
perm(M[top, S]) * perm(M[bottom, S^c]).  For a 0/1 matrix every term is a
non-negative integer, so perm(M) = 0 exactly when no S makes both factors
nonzero.  The top rows are the low bits of the counter and the bottom rows
the high bits, so two tables, built lazily once per family and n, map each
half of a counter to a bitmask over the column sets S whose factor is
nonzero; the counter is pertinent when the two masks share no bit.  A factor
is nonzero iff its block has a perfect matching, decided by the full Hall
sweep ``_hall_violated`` (no row subset covers fewer columns than its size).
That sweep is the block kernel that builds the tables; over all n rows it is
the oracle the tests hold the lookup to, counter for counter.  Both the
lookup and the peel are also validated exhaustively against the permanent.

Counting A and B visits no full counter: each half is tallied by (mask,
ones), and a top mask fits a bottom mask b when it lies inside ~b, so with
Z the subset-sum (zeta) transform of the top tally the table is the sum over
b of Z[~b] convolved in the ones index with the bottom tally G[b]
(Bjorklund, Husfeldt, Kaski, Koivisto, "Fourier meets Mobius", STOC 2007).
Family C is counted by the batched scan of every counter, which is also the
oracle the tests hold the A/B count to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dags import acyclic_mask
from .errors import DimensionError
from .matrices import BinaryMatrix, TypeSpec, permanent_expansion
from .tables import ROUTE_ENUMERATION, CoefficientTable, check_reach

_BATCH_SIZE = 1 << 20

_table_cache: dict[tuple[str, int], CoefficientTable] = {}


def is_pertinent(spec: TypeSpec, matrix: BinaryMatrix) -> bool:
    """Definitional predicate: permanent equals the family target.

    This is the oracle the fast counting predicates are measured against;
    it is never used inside the counting loop.
    """
    spec.check_pattern(matrix)
    return permanent_expansion(matrix) == spec.target_permanent


def has_perfect_matching(matrix: BinaryMatrix) -> bool:
    """Hall's condition over all row subsets, with shared unions."""
    n = matrix.n
    if n > 20:
        raise DimensionError(f"matching test supports n <= 20, got {n}")
    unions = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        unions[s] = unions[s ^ low] | matrix.rows[low.bit_length() - 1]
        if unions[s].bit_count() < s.bit_count():
            return False
    return True


def count_pertinent(spec: TypeSpec) -> CoefficientTable:
    """Count pertinent matrices by number of one-valued variable elements."""
    check_reach(ROUTE_ENUMERATION, spec.n)
    key = (spec.family, spec.n)
    if key in _table_cache:
        return _table_cache[key]

    counts = _scan_counts(spec) if spec.family == "C" else _split_counts(spec)
    table = CoefficientTable.from_counts(spec, counts, ROUTE_ENUMERATION)
    _table_cache[key] = table
    return table


def total_pertinent(spec: TypeSpec) -> int:
    return count_pertinent(spec).total


@dataclass(frozen=True)
class ExtremesReport:
    """Outcome of checking the fewest-zeros bound by direct enumeration."""

    spec: TypeSpec
    max_ones: int
    witnesses: tuple[BinaryMatrix, ...]

    @property
    def ok(self) -> bool:
        # no pertinent assignment beats the bound, and some assignment meets it
        return self.max_ones == self.spec.i_max and bool(self.witnesses)


def verify_extremes(spec: TypeSpec) -> ExtremesReport:
    """Confirm that i_max (equivalently j_min) is tight, with witnesses.

    ``count_pertinent`` already rejects any pertinent assignment with more
    than i_max ones, so only the C(m, i_max) counters with exactly i_max
    ones are tested for witnesses.
    """
    table = count_pertinent(spec)
    max_ones = max(i for i, c in enumerate(table.coeffs) if c)
    full = (1 << spec.m) - 1
    zero_sets = itertools.combinations(range(spec.m), spec.j_min)
    counters = np.fromiter((full ^ sum(1 << k for k in z) for z in zero_sets), np.uint32)
    counters.sort()
    hits = counters[pertinent_mask(spec, counters)]
    witnesses = tuple(spec.matrix_from_bits(int(b)) for b in hits)
    return ExtremesReport(spec, max_ones, witnesses)


def _scan_counts(spec: TypeSpec) -> np.ndarray:
    """Histogram of one-counts over the pertinent counters, batch by batch."""
    m = spec.m
    counts = np.zeros(m + 1, dtype=np.int64)
    for lo in range(0, 1 << m, _BATCH_SIZE):
        counters = np.arange(lo, min(lo + _BATCH_SIZE, 1 << m), dtype=np.uint32)
        pert = pertinent_mask(spec, counters)
        counts += np.bincount(np.bitwise_count(counters[pert]), minlength=m + 1)
    return counts


def _split_counts(spec: TypeSpec) -> np.ndarray:
    """The same histogram for family A/B, from the half tallies alone."""
    top, bottom, _ = _split_tables(spec)
    column_sets = math.comb(spec.n, (spec.n + 1) // 2)
    full = (1 << column_sets) - 1
    tallies = []
    for half in (top, bottom):
        ones = np.bitwise_count(np.arange(len(half), dtype=np.uint32))
        tally = np.zeros((full + 1, int(ones[-1]) + 1), dtype=np.int64)
        np.add.at(tally, (half, ones), 1)
        tallies.append(tally)
    zeta, bottom_tally = tallies
    # zeta[s] becomes the sum of the top tally over every mask inside s
    for bit in range(column_sets):
        pairs = zeta.reshape(-1, 2, 1 << bit, zeta.shape[1])
        pairs[:, 1] += pairs[:, 0]
    # joint[i, j]: pairs of disjoint masks with i ones on top and j below
    joint = zeta[full ^ np.arange(full + 1)].T @ bottom_tally
    counts = np.zeros(spec.m + 1, dtype=np.int64)
    for i, row in enumerate(joint):
        counts[i : i + len(row)] += row
    return counts


def pertinent_mask(spec: TypeSpec, counters: np.ndarray) -> np.ndarray:
    """Pertinence of each uint32 assignment counter, as a boolean array."""
    if spec.family == "C":
        return acyclic_mask(_build_rows(spec, counters, include_fixed=False), spec.n)
    top, bottom, top_bits = _split_tables(spec)
    # numpy gathers about twice as fast with intp indices as with uint32
    low = (counters & np.uint32((1 << top_bits) - 1)).astype(np.intp)
    high = (counters >> np.uint32(top_bits)).astype(np.intp)
    return (top[low] & bottom[high]) == 0


@lru_cache(maxsize=None)
def _split_tables(spec: TypeSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-split tables of a family A/B spec: ``(top, bottom, top_bits)``.

    Bit k of ``top[low]`` is set when the top h rows can be matched into the
    k-th h-column set, bit k of ``bottom[high]`` when the bottom n - h rows
    can be matched into its complement.  An empty bottom block (n = 1) is a
    0x0 matrix with permanent 1, so all of its bits are set.
    """
    n = spec.n
    h = (n + 1) // 2
    top_bits = sum(width for runs in spec.fields[:h] for _, width, _ in runs)
    lows = np.arange(1 << top_bits, dtype=np.uint32)
    highs = np.arange(1 << (spec.m - top_bits), dtype=np.uint32) << np.uint32(top_bits)
    top_rows = _build_rows(spec, lows, include_fixed=True)[:h]
    bottom_rows = _build_rows(spec, highs, include_fixed=True)[h:]
    column_sets = [sum(1 << j for j in s) for s in itertools.combinations(range(n), h)]
    dtype = np.min_scalar_type((1 << len(column_sets)) - 1)
    top = np.zeros(len(lows), dtype=dtype)
    bottom = np.zeros(len(highs), dtype=dtype)
    for k, cols in enumerate(column_sets):
        rest = ((1 << n) - 1) ^ cols
        top[~_hall_violated(top_rows & np.uint8(cols), h)] |= dtype.type(1 << k)
        bottom[~_hall_violated(bottom_rows & np.uint8(rest), n - h)] |= dtype.type(1 << k)
    return top, bottom, top_bits


def _build_rows(spec: TypeSpec, counters: np.ndarray, include_fixed: bool) -> np.ndarray:
    """Row bitmasks of each counter's matrix, shape ``(n, len(counters))``."""
    rows = np.zeros((spec.n, len(counters)), dtype=np.uint8)
    for i, runs in enumerate(spec.fields):
        for shift, width, col in runs:
            field = (counters >> np.uint32(shift)) & np.uint32((1 << width) - 1)
            rows[i] |= (field << np.uint32(col)).astype(np.uint8)
        if include_fixed:
            rows[i] |= np.uint8(spec.fixed_rows[i])
    return rows


def _hall_violated(rows: np.ndarray, n: int) -> np.ndarray:
    """True where some subset of the n rows covers fewer columns than its size.

    ``rows`` has shape ``(n, k)``; with n = 0 nothing is violated.
    """
    unions: list = [None] * (1 << n)
    unions[0] = np.zeros(rows.shape[1:], dtype=np.uint8)
    violated = np.zeros(rows.shape[1:], dtype=bool)
    for s in range(1, 1 << n):
        low = s & -s
        unions[s] = unions[s ^ low] | rows[low.bit_length() - 1]
        violated |= np.bitwise_count(unions[s]) < s.bit_count()
    return violated

