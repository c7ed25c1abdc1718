"""Exhaustive census of pertinent matrices for each family, on bit planes.

An assignment of the m variable elements is an m-bit counter; bit k drives
the k-th variable cell in row-major order (``TypeSpec.fields``).  A set of
counters is a Python int used as a bit plane (bit c is counter c; Biham,
FSE 1997): one AND or OR acts on all of them, with no array library.

Every family splits the rows.  Laplace expansion along the top h = ceil(n/2)
rows gives perm(M) = sum over the h-column sets S of perm(M[top, S]) *
perm(M[bottom, S^c]) (Minc, *Permanents*, 1978), non-negative terms for a
0/1 matrix: perm(M) = 0 (A, B) when no S makes both factors nonzero, and
perm(M) = 1 (C) when exactly one does and both its factors are 1.  The top
rows are the counter's low bits.  Per half, a subset DP over its rows gives
every block's permanent, clipped at 2, and groups the half-counters by key:
the column sets whose factor is nonzero (and, for C, 1).  The table sums the
products of the tallies by ones of the key pairs that ``_fitting`` accepts;
``pertinent_bits`` lays the same pairs out over all 2^m counters.  The tests
hold the split to a full Hall sweep (A, B) and the source peel (C).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

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


def _split_counts(spec: TypeSpec) -> list[int]:
    """Histogram over 0..m ones of the pertinent counters.  A tally packs its
    counts by ones into slots of m + 1 bits, so a product of tallies is their
    convolution: no count is negative or reaches 2^(m+1)."""
    width = spec.m + 1
    (top, top_bits), (bottom, bottom_bits) = _split_groups(spec)

    def tallies(groups, bits):
        classes = _planes(bits)[1]
        return {
            key: sum((plane & cls).bit_count() << j * width for j, cls in enumerate(classes))
            for key, plane in groups.items()
        }

    bottom_tallies = tallies(bottom, bottom_bits)
    packed = sum(
        tally * sum(_fitting(spec, key, bottom_tallies))
        for key, tally in tallies(top, top_bits).items()
    )
    return [packed >> i * width & (1 << width) - 1 for i in range(width)]


def pertinent_bits(spec: TypeSpec) -> int:
    """The plane of the pertinent counters among all 2^m.  Counter c is
    ``low | high << top_bits``: per high half, the fitting low halves."""
    (top, top_bits), (bottom, bottom_bits) = _split_groups(spec)
    rows = [0] * (1 << bottom_bits)
    for key, plane in bottom.items():
        # the groups are disjoint, so their sum is their union
        fitting = sum(_fitting(spec, key, top))
        for high, bit in enumerate(bin(plane)[:1:-1]):
            if bit == "1":
                rows[high] = fitting
    width = 1 << top_bits
    while len(rows) > 1:
        rows = [low | high << width for low, high in zip(rows[::2], rows[1::2])]
        width *= 2
    return rows[0]


def _fitting(spec: TypeSpec, key: int, others: dict[int, int]) -> list[int]:
    """The values of ``others`` whose keys, with ``key``, make a matrix of the
    family's permanent.  Bits 0..c-1 of a key mark the column sets with a
    nonzero factor, bits c..2c-1 (C) those with factor 1; C needs one shared
    nonzero set, and 1 * 1 on it."""
    pairs = others.items()
    if spec.target_permanent == 0:
        return [v for k, v in pairs if not key & k]
    c = math.comb(spec.n, (spec.n + 1) // 2)
    low = (1 << c) - 1
    return [v for k, v in pairs if (b := key & k).bit_count() == 2 and b >> c == b & low]


@lru_cache(maxsize=None)
def _split_groups(spec: TypeSpec) -> tuple[tuple[dict[int, int], int], ...]:
    """``((top, top_bits), (bottom, bottom_bits))``: per half, the plane of
    the half-counters of each key.  Bit k of a key is set when the half's
    block on the k-th of the c top column sets (or its complement) has a
    nonzero permanent; for family C bit c + k says it is 1."""
    n, h = spec.n, (spec.n + 1) // 2
    top_sets = [sum(1 << j for j in s) for s in itertools.combinations(range(n), h)]
    halves, shift = [], 0
    for rows, sets in ((range(h), top_sets), (range(h, n), [(1 << n) - 1 ^ s for s in top_sets])):
        bits = sum(width for i in rows for _, width, _ in spec.fields[i])
        full, planes = (1 << (1 << bits)) - 1, _planes(bits)[0]
        cover = [[full if spec.fixed_rows[i] >> j & 1 else 0 for j in range(n)] for i in rows]
        for row, i in zip(cover, rows):
            for start, width, col in spec.fields[i]:
                row[col : col + width] = planes[start - shift : start - shift + width]
        perms = _block_permanents(cover, full, n)
        keys = [perms[s][0] for s in sets]
        if spec.target_permanent:
            keys += [one & ~two for one, two in (perms[s] for s in sets)]
        groups = {0: full}
        for k, key in enumerate(keys):
            split = {}
            for prefix, group in groups.items():
                split[prefix | 1 << k], split[prefix] = group & key, group & ~key
            groups = {prefix: group for prefix, group in split.items() if group}
        halves.append((groups, bits))
        shift += bits
    return tuple(halves)


def _block_permanents(cover: list[list[int]], full: int, n: int) -> dict[int, tuple[int, int]]:
    """Planes (>= 1, >= 2) of the permanent of the k rows on each k-column
    mask, where ``cover[i][j]`` is the plane of the half-counters whose row i
    covers column j.  Adding row i, the permanent on S sums the earlier rows'
    on S - {j} over the covered j of S: a bit-sliced add saturating at 2, as
    no term is negative.  With k = 0 (the bottom half at n = 1) the one block
    is 0x0, with permanent 1."""
    perms = {0: (full, 0)}
    for i, row in enumerate(cover):
        grown = {}
        for cols in itertools.combinations(range(n), i + 1):
            mask = sum(1 << j for j in cols)
            one = two = 0
            for j in cols:
                a, b = perms[mask ^ (1 << j)]
                a, b = a & row[j], b & row[j]
                one, two = one | a, two | b | one & a
            grown[mask] = (one, two)
        perms = grown
    return perms


def _planes(bits: int) -> tuple[list[int], list[int]]:
    """Over 2^bits counters, plane k of those with bit k set and plane j of
    those with j ones, grown by shift-and-OR doubling (dividing a repunit
    instead is quadratic in CPython)."""
    planes, classes = [], [1]
    for k in range(bits):
        half = 1 << k
        planes = [p | p << half for p in planes] + [((1 << half) - 1) << half]
        classes = [a | b << half for a, b in zip(classes + [0], [0] + classes)]
    return planes, classes
