"""Exhaustive census of pertinent matrices for each family.

An assignment of the m variable elements is an m-bit counter.  Which bits
fill which cells is read from ``TypeSpec.fields`` (bit k drives the k-th
variable cell in row-major order); ``_build_rows`` splices a whole array of
counters into row bitmasks with it, exactly as ``TypeSpec.matrix_from_bits``
does for one counter.  ``pertinent_mask`` is the one place that maps a
family to its pertinence test, applied to a whole array of counters at once.

Every family splits the rows.  Laplace expansion along the top h = ceil(n/2)
rows gives perm(M) = sum over the h-column sets S of perm(M[top, S]) *
perm(M[bottom, S^c]) (Minc, *Permanents*, 1978), non-negative terms for a
0/1 matrix: perm(M) = 0 (A, B) when no S makes both factors nonzero, and
perm(M) = 1 (C) when exactly one does and both its factors are 1.  The top
rows are the counter's low bits, the bottom rows its high bits.  Once per
spec, one subset DP over each half's rows (``_block_permanents``) keys every
half-counter by the column sets whose factor is nonzero and, for C, those
where it is 1.  The lookup shares no kernel with the DAG census; the tests
hold it to a full Hall sweep (A, B) and to the source peel (C), counter for
counter.

Counting visits no full counter and no dense mask space: each half is
tallied by (distinct key, ones), the same rule marks which distinct keys
pair up, and one integer product of the two tallies gives the table.  The
bound i_max is certified by ``CoefficientTable``; the matrices meeting it
are the top stratum of the interval attaining set in ``valuesets``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .matrices import BinaryMatrix, TypeSpec
from .tables import ROUTE_ENUMERATION, CoefficientTable, check_reach

_table_cache: dict[tuple[str, int], CoefficientTable] = {}


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
    if key not in _table_cache:
        counts = _split_counts(spec)
        _table_cache[key] = CoefficientTable.from_counts(spec, counts, ROUTE_ENUMERATION)
    return _table_cache[key]


def total_pertinent(spec: TypeSpec) -> int:
    return count_pertinent(spec).total


def _split_counts(spec: TypeSpec) -> np.ndarray:
    """Histogram of one-counts over the pertinent counters, from the half tallies."""
    keys, tallies = [], []
    for half in _split_tables(spec)[:2]:
        ones = np.bitwise_count(np.arange(len(half), dtype=np.uint32)).astype(np.intp)
        distinct, inverse = np.unique(half, return_inverse=True)
        width = int(ones[-1]) + 1
        tally = np.bincount(inverse * width + ones, minlength=len(distinct) * width)
        keys.append(distinct)
        tallies.append(tally.reshape(len(distinct), width))
    fits = _fits(spec, keys[0][:, None], keys[1][None, :]).astype(np.int64)
    # joint[i, j]: pertinent counters with i ones on top and j below
    joint = tallies[0].T @ (fits @ tallies[1])
    counts = np.zeros(spec.m + 1, dtype=np.int64)
    for i, row in enumerate(joint):
        counts[i : i + len(row)] += row
    return counts


def pertinent_mask(spec: TypeSpec, counters: np.ndarray) -> np.ndarray:
    """Pertinence of each uint32 assignment counter, as a boolean array."""
    top, bottom, top_bits = _split_tables(spec)
    # numpy gathers about twice as fast with intp indices as with uint32
    low = (counters & np.uint32((1 << top_bits) - 1)).astype(np.intp)
    high = (counters >> np.uint32(top_bits)).astype(np.intp)
    return _fits(spec, top[low], bottom[high])


def _fits(spec: TypeSpec, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Whether top and bottom keys make a matrix of the family's permanent.

    Bits 0..c-1 of a key mark the column sets whose factor is nonzero, bits
    c..2c-1 (family C) those whose factor is 1, which lie among the former.
    """
    column_sets = math.comb(spec.n, (spec.n + 1) // 2)
    both = top & bottom
    shared = both & ((1 << column_sets) - 1)
    if spec.target_permanent == 0:
        return shared == 0
    return (np.bitwise_count(shared) == 1) & ((both >> column_sets) == shared)


@lru_cache(maxsize=None)
def _split_tables(spec: TypeSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-split keys of a spec: ``(top, bottom, top_bits)``.

    Bit k of ``top[low]`` is set when the top h rows have a nonzero
    permanent on the k-th h-column set, bit k of ``bottom[high]`` when the
    bottom n - h rows have one on its complement; for family C bit c + k
    says that permanent is 1.
    """
    n = spec.n
    h = (n + 1) // 2
    top_bits = sum(width for runs in spec.fields[:h] for _, width, _ in runs)
    lows = np.arange(1 << top_bits, dtype=np.uint32)
    highs = np.arange(1 << (spec.m - top_bits), dtype=np.uint32) << np.uint32(top_bits)
    top_perms = _block_permanents(_build_rows(spec, lows)[:h], n)
    bottom_perms = _block_permanents(_build_rows(spec, highs)[h:], n)
    column_sets = [sum(1 << j for j in s) for s in itertools.combinations(range(n), h)]
    c = len(column_sets)
    dtype = np.min_scalar_type((1 << 2 * c) - 1)
    top, bottom = np.zeros(len(lows), dtype), np.zeros(len(highs), dtype)
    for k, cols in enumerate(column_sets):
        for key, perm in ((top, top_perms[cols]), (bottom, bottom_perms[((1 << n) - 1) ^ cols])):
            key |= (perm != 0).astype(dtype) << k
            if spec.target_permanent:
                key |= (perm == 1).astype(dtype) << (c + k)
    return top, bottom, top_bits


def _block_permanents(rows: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """Permanent, clipped at 2, of the k rows on every k-column set.

    ``rows`` has shape ``(k, N)``; the result maps each k-column mask to a
    uint8 array of length N.  Adding row i, the permanent on a column set S
    is the sum, over the columns j of S that the row covers, of the earlier
    rows' permanent on S - {j}.  No term is negative, so clipping each sum
    at 2 keeps 0, 1 and "2 or more" apart.  With k = 0 (the bottom half at
    n = 1) the one block is 0x0, with permanent 1.
    """
    perms = {0: np.ones(rows.shape[1:], dtype=np.uint8)}
    for i, row in enumerate(rows):
        cover = [(row >> np.uint8(j)) & np.uint8(1) for j in range(n)]
        grown = {}
        for cols in itertools.combinations(range(n), i + 1):
            mask = sum(1 << j for j in cols)
            total = sum(cover[j] * perms[mask ^ (1 << j)] for j in cols)
            grown[mask] = np.minimum(total, np.uint8(2))
        perms = grown
    return perms


def _build_rows(spec: TypeSpec, counters: np.ndarray) -> np.ndarray:
    """Row bitmasks of each counter's matrix, shape ``(n, len(counters))``."""
    rows = np.zeros((spec.n, len(counters)), dtype=np.uint8)
    for i, runs in enumerate(spec.fields):
        for shift, width, col in runs:
            field = (counters >> np.uint32(shift)) & np.uint32((1 << width) - 1)
            rows[i] |= (field << np.uint32(col)).astype(np.uint8)
        rows[i] |= np.uint8(spec.fixed_rows[i])
    return rows
