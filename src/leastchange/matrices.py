"""Exact square matrices and the permanent/determinant primitives.

Binary matrices are stored as row bitmasks (bit j-1 of row i holds entry
(i, j)); rational matrices hold exact ``Fraction`` entries.  All public
indices are 1-based.  Everything here is an immutable value, so every
operation is pure and safe under any amount of concurrency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionError, PatternError

# Bitmask storage supports up to 30; the factorial-cost permanent expansion
# below enforces its own, much smaller cap.
MAX_DIMENSION = 30
MAX_EXPANSION_DIMENSION = 8

FAMILIES = ("A", "B", "C")


@dataclass(frozen=True)
class BinaryMatrix:
    """Square 0/1 matrix; ``rows[i]`` is the bitmask of row i+1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIMENSION:
            raise DimensionError(f"dimension {self.n} outside 1..{MAX_DIMENSION}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for r in self.rows:
            if r < 0 or r & ~full:
                raise ValueError(f"row mask {r:#x} has bits outside {self.n} columns")

    @classmethod
    def from_rows(cls, rows) -> "BinaryMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        masks = []
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
            mask = 0
            for j, v in enumerate(r):
                if v not in (0, 1):
                    raise ValueError(f"entry {v!r} is not 0 or 1")
                mask |= v << j
            masks.append(mask)
        return cls(n, tuple(masks))

    @classmethod
    def ones(cls, n: int) -> "BinaryMatrix":
        return cls(n, ((1 << n) - 1,) * n)

    def entry(self, i: int, j: int) -> int:
        _check_index(self.n, i, j)
        return (self.rows[i - 1] >> (j - 1)) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n)] for r in self.rows]

    def to_rational(self) -> "RationalMatrix":
        return RationalMatrix.from_rows(self.to_lists())

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in row) for row in self.to_lists())


@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix of exact rationals."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"dimension {self.n} must be positive")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must form an n-by-n grid")

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        grid = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(len(grid), grid)

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)


@dataclass(frozen=True)
class TypeSpec:
    """One of the three matrix families at a fixed dimension.

    Family A: every element is variable.  Family B: unit diagonal except
    a single variable diagonal element at (1, 1); off-diagonal elements
    variable.  Family C: unit diagonal, off-diagonal elements variable.
    A matrix of the family is *pertinent* when its permanent equals the
    family target (0 for A and B, 1 for C).

    This class is the one place that maps a family to its cells.  Every
    element is either variable or fixed at 1; the layout properties below
    are derived from ``variable_rows`` once per spec and shared by every
    module that decodes an assignment counter.
    """

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not 1 <= self.n <= MAX_DIMENSION:
            raise DimensionError(f"dimension {self.n} outside 1..{MAX_DIMENSION}")

    @cached_property
    def variable_rows(self) -> tuple[int, ...]:
        """Row masks of the variable elements."""
        full = (1 << self.n) - 1
        if self.family == "A":
            return (full,) * self.n
        rows = [full & ~(1 << i) for i in range(self.n)]
        if self.family == "B":
            rows[0] |= 1
        return tuple(rows)

    @cached_property
    def fixed_rows(self) -> tuple[int, ...]:
        """Row masks of the fixed (always 1) elements."""
        full = (1 << self.n) - 1
        return tuple(full & ~r for r in self.variable_rows)

    @cached_property
    def fields(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per-row ``(counter_shift, width, column_start)`` runs of the counter.

        Bit k of an assignment counter drives the k-th variable cell in
        row-major order, so each maximal run of variable cells in a row takes
        ``width`` consecutive counter bits starting at ``counter_shift``.
        """
        plan = []
        shift = 0
        for row in self.variable_rows:
            runs = []
            j = 0
            while row >> j:
                width = 0
                while (row >> (j + width)) & 1:
                    width += 1
                if width:
                    runs.append((shift, width, j))
                    shift += width
                j += width + 1
            plan.append(tuple(runs))
        return tuple(plan)

    @cached_property
    def variable_positions(self) -> tuple[tuple[int, int], ...]:
        """Variable cells in counter (row-major) order, 1-based."""
        return tuple(
            (i + 1, col + 1)
            for i, runs in enumerate(self.fields)
            for _, width, start in runs
            for col in range(start, start + width)
        )

    @cached_property
    def m(self) -> int:
        """Number of variable elements."""
        return sum(r.bit_count() for r in self.variable_rows)

    @property
    def j_min(self) -> int:
        """Fewest zero-valued variable elements a pertinent matrix can have."""
        if self.family == "C":
            return (self.n * self.n - self.n) // 2
        return self.n

    @property
    def i_max(self) -> int:
        """Most one-valued variable elements a pertinent matrix can have."""
        return self.m - self.j_min

    @property
    def target_permanent(self) -> int:
        return 1 if self.family == "C" else 0

    def matrix_from_bits(self, bits: int) -> BinaryMatrix:
        """Assignment counter -> matrix: bit k drives the k-th variable cell."""
        if not 0 <= bits < (1 << self.m):
            raise ValueError(f"assignment counter {bits} outside 0..2^{self.m}-1")
        rows = list(self.fixed_rows)
        for i, runs in enumerate(self.fields):
            for shift, width, col in runs:
                rows[i] |= ((bits >> shift) & ((1 << width) - 1)) << col
        return BinaryMatrix(self.n, tuple(rows))

    def counter_of(self, member, values=(0, 1)) -> int:
        """Matrix -> assignment counter: digit k is the index in ``values`` of
        the k-th variable entry.  Inverse of :meth:`matrix_from_bits` over
        {0, 1} and of the value-digit decoders over ``values``."""
        entries = self.check_pattern(member)
        counter = 0
        for i, j in reversed(self.variable_positions):
            entry = entries[i - 1][j - 1]
            if entry not in values:
                listed = ", ".join(map(str, values))
                raise ValueError(f"entry {entry} at ({i}, {j}) is not one of {listed}")
            counter = counter * len(values) + values.index(entry)
        return counter

    def check_pattern(self, matrix) -> list | tuple:
        """The entries of a binary or rational family matrix, row by row;
        raises unless it is n x n with every fixed element 1."""
        if matrix.n != self.n:
            raise DimensionError(f"matrix is {matrix.n}x{matrix.n}, family needs n={self.n}")
        entries = matrix.to_lists() if isinstance(matrix, BinaryMatrix) else matrix.entries
        for row, fixed in zip(entries, self.fixed_rows):
            if any(row[j] != 1 for j in range(fixed.bit_length()) if fixed >> j & 1):
                raise PatternError(f"fixed element of family {self.family} is not 1")
        return entries


def _check_index(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"index ({i}, {j}) outside 1..{n}")


def _check_expansion_dim(n: int) -> None:
    if not 1 <= n <= MAX_EXPANSION_DIMENSION:
        raise DimensionError(
            f"permutation expansion supports 1..{MAX_EXPANSION_DIMENSION}, got {n}"
        )


def permanent_expansion(matrix):
    """Permanent as the literal sum over all n! permutations.

    Accepts a BinaryMatrix (returns int) or RationalMatrix (returns
    Fraction).  Branches with a zero partial product are skipped, but
    every surviving permutation is visited individually.
    """
    n = matrix.n
    _check_expansion_dim(n)
    if isinstance(matrix, BinaryMatrix):
        # column j is matched to some unused row with a 1 in that column
        col_masks = [0] * n
        for i, r in enumerate(matrix.rows):
            for j in range(n):
                if (r >> j) & 1:
                    col_masks[j] |= 1 << i

        def count(j: int, used: int) -> int:
            if j == n:
                return 1
            total = 0
            avail = col_masks[j] & ~used
            while avail:
                low = avail & -avail
                total += count(j + 1, used | low)
                avail ^= low
            return total

        return count(0, 0)

    entries = matrix.entries
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        prod = Fraction(1)
        for j, i in enumerate(perm):
            v = entries[i][j]
            if v == 0:
                break
            prod *= v
        else:
            total += prod
    return total


def determinant(matrix) -> Fraction:
    """Exact determinant via the integer Bareiss kernel.

    Rational entries are first scaled to integers by the lcm of their
    denominators; the scale comes back out as ``scale**n``.
    """
    if isinstance(matrix, BinaryMatrix):
        return Fraction(det_int(matrix.to_lists()))
    scale = math.lcm(*(v.denominator for row in matrix.entries for v in row))
    rows = [[v.numerator * (scale // v.denominator) for v in row] for row in matrix.entries]
    return Fraction(det_int(rows), scale**matrix.n)


def det_int(a: list[list[int]]) -> int:
    """Bareiss fraction-free determinant over ints; divisions are exact.

    Eliminates in place, so the caller hands over rows it no longer needs.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def support(matrix) -> BinaryMatrix:
    """0/1 pattern of the nonzero entries."""
    if isinstance(matrix, BinaryMatrix):
        return matrix
    masks = []
    for row in matrix.entries:
        mask = 0
        for j, v in enumerate(row):
            if v != 0:
                mask |= 1 << j
        masks.append(mask)
    return BinaryMatrix(matrix.n, tuple(masks))
