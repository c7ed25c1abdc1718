"""Exact square matrices and the permanent/determinant primitives.

Binary matrices are stored as row bitmasks (bit j-1 of row i holds entry
(i, j)); rational matrices hold exact ``Fraction`` entries.  ``fractions``
loads where a Fraction is first made, so counting on binary layouts never
loads it.  All public indices are 1-based.  Everything here is an immutable
value, so every operation is pure and safe under any amount of concurrency.

Every record of the package, here and in ``tables``, ``dags``,
``probability``, ``values`` and ``valuesets``, is frozen through
``_Record``, not ``@dataclass``: that import, which loads ``inspect``, and
its code generation per class took about 10 ms of a 70 ms ``count`` and
7-9 ms of each ``curve``, ``least`` and ``verify`` (2-core VM, Python 3.11).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, partial, reduce

from .errors import DimensionError, PatternError

# Bitmask storage supports up to 30; ``permanent`` expands over every column
# subset and enforces its own, much smaller cap.
MAX_DIMENSION = 30
MAX_EXPANSION_DIMENSION = 8

FAMILIES = ("A", "B", "C")

_store = object.__setattr__  # a record's fields are set past its own __setattr__


class _Record:
    """Base of a frozen record, as ``@dataclass(frozen=True)`` makes one.

    A subclass annotates its fields in order; a class attribute named like a
    field is that field's default.  Its records are built as a dataclass
    builds them, by position or keyword, unless it writes an ``__init__``
    that validates its arguments and hands them to this one by position.
    Records compare equal only within one class, hash as the tuple of their
    fields, print as ``Name(field=value, ...)`` and refuse every assignment
    and deletion.
    """

    def __init_subclass__(cls):
        cls.__match_args__ = names = tuple(cls.__annotations__)  # the field names
        own = vars(cls)
        cls._defaults = {n: own[n] for n in names if n in own}

    def __init__(self, *values, **named):
        names = self.__match_args__
        # every field by position, as a curve builds each of its thousands of
        # samples, skips all keyword and default handling; the index loop
        # stores faster than one over zip()
        if named or len(values) != len(names):
            values = self._bind(values, named)
        i = 0
        for name in names:
            _store(self, name, values[i])
            i += 1

    def _bind(self, values, named) -> list:
        """The field values, in order, of a call that names fields or leaves
        some to their defaults; TypeError for a field missing, unknown or
        given twice, or too many values."""
        names, call = self.__match_args__, f"{self.__class__.__qualname__}()"
        if len(values) > len(names):
            raise TypeError(f"{call} takes {len(names)} fields but {len(values)} were given")
        given = dict(zip(names, values))
        for name in named:
            if name not in names:
                raise TypeError(f"{call} got an unknown field {name!r}")
            if name in given:
                raise TypeError(f"{call} got two values for field {name!r}")
        bound = {**self._defaults, **given, **named}
        missing = [name for name in names if name not in bound]
        if missing:
            raise TypeError(f"{call} has no value for {', '.join(map(repr, missing))}")
        return [bound[name] for name in names]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BinaryMatrix(_Record):
    """Square 0/1 matrix; ``rows[i]`` is the bitmask of row i+1."""

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: tuple[int, ...]):
        if not 1 <= n <= MAX_DIMENSION:
            raise DimensionError(f"dimension {n} outside 1..{MAX_DIMENSION}")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for r in rows:
            if r < 0 or r & ~full:
                raise ValueError(f"row mask {r:#x} has bits outside {n} columns")
        super().__init__(n, rows)

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


class RationalMatrix(_Record):
    """Square matrix of exact rationals."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, n: int, entries: tuple[tuple[Fraction, ...], ...]):
        if n < 1:
            raise DimensionError(f"dimension {n} must be positive")
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError("entries must form an n-by-n grid")
        super().__init__(n, entries)

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        from fractions import Fraction

        grid = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(len(grid), grid)

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)


class TypeSpec(_Record):
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

    def __init__(self, family: str, n: int):
        if family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
        if not 1 <= n <= MAX_DIMENSION:
            raise DimensionError(f"dimension {n} outside 1..{MAX_DIMENSION}")
        super().__init__(family, n)

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
    def variable_columns(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the 0-based variable columns in counter order: bit k of an
        assignment counter drives the k-th variable cell in row-major order."""
        return tuple(
            tuple(j for j in range(self.n) if row >> j & 1) for row in self.variable_rows
        )

    @cached_property
    def variable_positions(self) -> tuple[tuple[int, int], ...]:
        """Variable cells in counter (row-major) order, 1-based."""
        return tuple(
            (i + 1, j + 1) for i, cols in enumerate(self.variable_columns) for j in cols
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
        for i, cols in enumerate(self.variable_columns):
            for j in cols:
                rows[i] |= (bits & 1) << j
                bits >>= 1
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


def determinant(matrix) -> Fraction:
    """Exact determinant via the integer Bareiss kernel.

    Rational entries are first scaled to integers by the lcm of their
    denominators; the scale comes back out as ``scale**n``.
    """
    from fractions import Fraction

    scale, rows = _integer_rows(matrix)
    return Fraction(det_int(rows), scale**matrix.n)


def permanent(matrix) -> Fraction:
    """Exact permanent: the unsigned Laplace kernel on the one matrix, its
    rational entries scaled to integers as in :func:`determinant`."""
    if matrix.n > MAX_EXPANSION_DIMENSION:
        raise DimensionError(
            f"permanent supports n = 1..{MAX_EXPANSION_DIMENSION}, got {matrix.n}"
        )
    from fractions import Fraction

    scale, rows = _integer_rows(matrix)
    [value] = laplace([[row] for row in rows], signed=False)
    return Fraction(value, scale**matrix.n)


def _integer_rows(matrix) -> tuple[int, list[list[int]]]:
    """The lcm of the entries' denominators, and the entries times it."""
    if isinstance(matrix, BinaryMatrix):
        return 1, matrix.to_lists()
    scale = math.lcm(*(v.denominator for row in matrix.entries for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in matrix.entries]


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


def laplace(rows, signed: bool = True) -> list[int]:
    """Determinant (permanent unless ``signed``) of every matrix whose row i is
    one of the integer candidates ``rows[i]``, row 0's choice the fastest index.

    Cofactor expansion one row at a time (Minc, *Permanents*, 1978):
    ``minors[s]`` lists the minor of rows 0..i on columns s for every choice of
    those rows, and row i's choice is the outer index.  Term p of a minor is
    entry s[p] times the minor off column s[p]: one product list per value of
    that cell serves every candidate of row i.
    """
    n, sign = len(rows), -1 if signed else 1
    minors, size = {(): [1]}, 1
    for i, candidates in enumerate(rows):
        zeros, grown = [0] * size, {}
        for s in itertools.combinations(range(n), i + 1):
            products = [
                {
                    v: list(map((sign ** (i + p) * v).__mul__, minors[s[:p] + s[p + 1 :]]))
                    for v in {row[c] for row in candidates} - {0}
                }
                for p, c in enumerate(s)
            ]
            block = []
            for row in candidates:
                terms = [products[p][row[c]] for p, c in enumerate(s) if row[c]]
                block += reduce(partial(map, operator.add), terms) if terms else zeros
            grown[s] = block
        minors, size = grown, size * len(candidates)
    return minors[tuple(range(n))]


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
