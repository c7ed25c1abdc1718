"""Exhaustive census of pertinent matrices for each family, row by row.

An assignment of the m variable elements is an m-bit counter; bit k drives
the k-th variable cell in row-major order (``TypeSpec.fields``).  A set of
masks or counters is a Python int used as a bit plane (Biham, FSE 1997): one
AND, OR or shift acts on all of them, with no array library.

Laplace expansion along the last row gives perm(M[rows <= i, S]) = sum over
the covered j of S of perm(M[rows < i, S - {j}]) (Minc, *Permanents*, 1978),
non-negative terms for a 0/1 matrix, so two planes clipped at 2 (>= 1 and
>= 2) decide perm(M) = 0 (A, B) and perm(M) = 1 (C).  ``_row_counts`` runs
this recursion as a transfer matrix (Stanley, *EC I*, section 4.7): its
states are the planes over the column masks, and equal states merge, so the
table never visits a counter.  ``pertinent_bits`` runs the same recursion on
the 2^m counters at once, its planes indexed by counter and kept per mask.
The tests hold the count to a full Hall sweep (A, B), the source peel (C) and
the series at n = 6.
"""

from __future__ import annotations

import itertools

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
        counts = _row_counts(spec)
        _table_cache[key] = CoefficientTable.from_counts(spec, counts, ROUTE_ENUMERATION)
    return _table_cache[key]


def _row_counts(spec: TypeSpec) -> list[int]:
    """Histogram over 0..m ones of the pertinent counters, one row at a time.

    A state is the pair of planes (>= 1, >= 2) of the permanent of the rows
    so far on every column mask.  A row covering column j adds the permanents
    on S - {j} to S, a shift of the masks without j by 2^j; its 2^w choices
    of variable cells grow from its fixed cells one lowest bit at a time.
    Equal states merge, and each keeps a tally that packs its counts by ones
    into slots of m + 1 bits: no count is negative or reaches 2^(m+1).  A and
    B (target 0) carry only the >= 1 plane."""
    n, width = spec.n, spec.m + 1
    keep = -1 if spec.target_permanent else 0
    without = [sum(1 << s for s in range(1 << n) if not s >> j & 1) for j in range(n)]
    states = {(1, 0): 1}  # no rows yet: the 0x0 block, permanent 1
    for fixed, free in zip(spec.fixed_rows, spec.variable_rows):
        cols = [j for j in range(n) if free >> j & 1]
        grown: dict[tuple[int, int], int] = {}
        for (one, two), tally in states.items():
            steps = [((one & w) << (1 << j), (two & w) << (1 << j)) for j, w in enumerate(without)]
            a = b = 0
            for j in range(n):
                if fixed >> j & 1:
                    c, d = steps[j]
                    a, b = a | c, (b | d | a & c) & keep
            # the saturating add of one more covered column, inline: a call
            # per choice would double the time
            choices = [(a, b)]
            for s in range(1, 1 << len(cols)):
                low = s & -s
                (a, b), (c, d) = choices[s ^ low], steps[cols[low.bit_length() - 1]]
                choices.append((a | c, (b | d | a & c) & keep))
            for s, key in enumerate(choices):
                grown[key] = grown.get(key, 0) + (tally << s.bit_count() * width)
        states = grown
    # after n rows only the full mask is left: (one > 0) + (two > 0) is its
    # permanent, clipped at 2
    target = spec.target_permanent
    packed = sum(t for (one, two), t in states.items() if (one > 0) + (two > 0) == target)
    return [packed >> i * width & (1 << width) - 1 for i in range(width)]


def pertinent_bits(spec: TypeSpec) -> int:
    """The plane of the pertinent counters among all 2^m: the permanent of
    all n rows on the counter planes, clipped at 2."""
    n, full = spec.n, (1 << (1 << spec.m)) - 1
    cover = [[full if spec.fixed_rows[i] >> j & 1 else 0 for j in range(n)] for i in range(n)]
    for (i, j), plane in zip(spec.variable_positions, _planes(spec.m)):
        cover[i - 1][j - 1] = plane
    one, two = _block_permanents(cover, full, n)[(1 << n) - 1]
    return one & ~two if spec.target_permanent else full & ~one


def _block_permanents(cover: list[list[int]], full: int, n: int) -> dict[int, tuple[int, int]]:
    """Planes (>= 1, >= 2) of the permanent of the k rows on each k-column
    mask, where ``cover[i][j]`` is the plane of the counters whose row i
    covers column j.  Adding row i, the permanent on S sums the earlier rows'
    on S - {j} over the covered j of S: a bit-sliced add saturating at 2, as
    no term is negative."""
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


def _planes(bits: int) -> list[int]:
    """Over 2^bits counters, plane k of those with bit k set, grown by
    shift-and-OR doubling (dividing a repunit instead is quadratic in
    CPython)."""
    planes = []
    for k in range(bits):
        half = 1 << k
        planes = [p | p << half for p in planes] + [((1 << half) - 1) << half]
    return planes
