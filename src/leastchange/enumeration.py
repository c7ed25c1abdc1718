"""Exhaustive census of pertinent matrices for each family.

An assignment of the m variable elements is an m-bit counter whose bits map
onto the variable positions in row-major order.  ``pertinent_mask`` is the
one place that maps a family to its pertinence test, applied to a whole
array of counters at once: families A and B use a vectorized Hall-condition
test (permanent zero iff the row/column bipartite graph has no perfect
matching) and family C uses the vectorized source peel of ``dags`` (permanent
one iff the off-diagonal digraph is acyclic).  Both shortcuts are validated
exhaustively against the permanent in the test suite before being trusted.

Counting partitions the counter range into equal slices; a slice's partial
counts depend only on the slice, so any parallel schedule merges to the same
table by elementwise addition.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dags import acyclic_mask
from .errors import DimensionError
from .matrices import BinaryMatrix, TypeSpec, permanent_expansion
from .tables import ROUTE_ENUMERATION, CoefficientTable

ENUMERATION_MAX_N = 5
_BATCH_SIZE = 1 << 20

_POPCOUNT5 = np.array([bin(v).count("1") for v in range(32)], dtype=np.uint8)

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


def count_pertinent(
    spec: TypeSpec,
    workers: int = 1,
    split_bits: int | None = None,
    use_cache: bool = True,
) -> CoefficientTable:
    """Count pertinent matrices by number of one-valued variable elements.

    The result is bit-identical for every ``workers``/``split_bits`` choice.
    """
    _check_enumeration_dim(spec)
    key = (spec.family, spec.n)
    if use_cache and key in _table_cache:
        return _table_cache[key]

    m = spec.m
    if split_bits is None:
        split_bits = 0 if workers <= 1 else (max(workers, 1) * 4 - 1).bit_length()
    split_bits = min(split_bits, m)
    step = (1 << m) >> split_bits
    ranges = [(k * step, (k + 1) * step) for k in range(1 << split_bits)]

    if workers <= 1:
        parts = [_counts_for_range(spec, lo, hi) for lo, hi in ranges]
    else:
        tasks = [(spec.family, spec.n, lo, hi) for lo, hi in ranges]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = [np.asarray(p, dtype=np.int64) for p in pool.map(_count_range_task, tasks)]

    counts = np.zeros(m + 1, dtype=np.int64)
    for part in parts:
        counts += part
    coeffs = [int(v) for v in counts]
    if any(coeffs[spec.i_max + 1 :]):
        raise RuntimeError(
            f"pertinent assignment with more than i_max={spec.i_max} ones "
            f"for {spec.family}_{spec.n}; family arithmetic violated"
        )
    table = CoefficientTable(spec, tuple(coeffs[: spec.i_max + 1]), ROUTE_ENUMERATION)
    if use_cache:
        _table_cache[key] = table
    return table


def total_pertinent(spec: TypeSpec, **kwargs) -> int:
    return count_pertinent(spec, **kwargs).total


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


def _check_enumeration_dim(spec: TypeSpec) -> None:
    if spec.n > ENUMERATION_MAX_N:
        raise DimensionError(
            f"exhaustive enumeration supports n <= {ENUMERATION_MAX_N}, got {spec.n}"
        )


def _count_range_task(args) -> list[int]:
    family, n, lo, hi = args
    return _counts_for_range(TypeSpec(family, n), lo, hi).tolist()


def _counts_for_range(spec: TypeSpec, start: int, stop: int) -> np.ndarray:
    """Histogram of one-counts over pertinent assignments in [start, stop)."""
    m = spec.m
    counts = np.zeros(m + 1, dtype=np.int64)
    for lo in range(start, stop, _BATCH_SIZE):
        hi = min(lo + _BATCH_SIZE, stop)
        counters = np.arange(lo, hi, dtype=np.uint32)
        pert = pertinent_mask(spec, counters)
        ones = np.bitwise_count(counters).astype(np.int64)
        counts += np.bincount(ones[pert], minlength=m + 1)
    return counts


def pertinent_mask(spec: TypeSpec, counters: np.ndarray) -> np.ndarray:
    """Pertinence of each uint32 assignment counter, as a boolean array."""
    if spec.family == "C":
        return acyclic_mask(_build_rows(spec, counters, include_fixed=False), spec.n)
    return _hall_violated(_build_rows(spec, counters, include_fixed=True), spec.n)


def _field_plan(spec: TypeSpec) -> list[list[tuple[int, int, int]]]:
    """Per-row (counter_shift, width, column_start) splices of the counter."""
    plan: list[list[tuple[int, int, int]]] = []
    offset = 0
    for row_mask in spec.variable_mask.rows:
        runs = []
        j = 0
        while j < spec.n:
            if (row_mask >> j) & 1:
                start = j
                while j < spec.n and (row_mask >> j) & 1:
                    j += 1
                runs.append((offset, j - start, start))
                offset += j - start
            else:
                j += 1
        plan.append(runs)
    return plan


def _build_rows(spec: TypeSpec, counters: np.ndarray, include_fixed: bool) -> list[np.ndarray]:
    fixed = spec.fixed_rows()
    rows = []
    for i, runs in enumerate(_field_plan(spec)):
        acc = np.zeros(counters.shape, dtype=np.uint8)
        for shift, width, col in runs:
            field = (counters >> np.uint32(shift)) & np.uint32((1 << width) - 1)
            acc |= (field << np.uint32(col)).astype(np.uint8)
        if include_fixed:
            acc |= np.uint8(fixed[i])
        rows.append(acc)
    return rows


def _hall_violated(rows: list[np.ndarray], n: int) -> np.ndarray:
    """True where some row subset covers fewer columns than its size."""
    unions: list = [None] * (1 << n)
    unions[0] = np.zeros(rows[0].shape, dtype=np.uint8)
    violated = np.zeros(rows[0].shape, dtype=bool)
    for s in range(1, 1 << n):
        low = s & -s
        unions[s] = unions[s ^ low] | rows[low.bit_length() - 1]
        violated |= _POPCOUNT5[unions[s]] < s.bit_count()
    return violated


def default_workers() -> int:
    """Worker count from the environment, else 1."""
    value = os.environ.get("LEASTCHANGE_WORKERS", "")
    try:
        return max(1, int(value))
    except ValueError:
        return 1
