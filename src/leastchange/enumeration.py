"""Exhaustive census of pertinent matrices for each family, row by row.

An assignment of the m variable elements is an m-bit counter; bit k drives
the k-th variable cell in row-major order (``TypeSpec.variable_columns``).
A set of masks or counters is a Python int used as a bit plane (Biham, FSE
1997): one AND, OR or shift acts on all of them, with no array library.

Laplace expansion along the last row gives perm(M[rows <= i, S]) = sum over
the covered j of S of perm(M[rows < i, S - {j}]) (Minc, *Permanents*, 1978),
non-negative terms for a 0/1 matrix, so two planes clipped at 2 (>= 1 and
>= 2) decide perm(M) = 0 (A, B) and perm(M) = 1 (C).  ``_row_dp`` runs this
recursion as a transfer matrix (Stanley, *EC I*, section 4.7) whose states
are the planes over the column masks; equal states merge, so it never visits
a counter.  Its two callers differ only in where a row's choice moves a
tally: by number of ones for the table, by counter bits for the plane of
all 2^m counters.  The tests hold both to a full Hall sweep (A, B), the
source peel (C), and the table to the series at n = 6.
"""

from __future__ import annotations

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
    """Histogram over 0..m ones of the pertinent counters: choice s of a row
    moves a tally up popcount(s) slots of m + 1 bits (no count is negative
    or reaches 2^(m+1))."""
    width = spec.m + 1
    rows = spec.variable_rows
    offsets = [[s.bit_count() * width for s in range(1 << free.bit_count())] for free in rows]
    packed = _row_dp(spec, offsets)
    return [packed >> i * width & (1 << width) - 1 for i in range(width)]


def pertinent_bits(spec: TypeSpec) -> int:
    """The plane of the pertinent counters among all 2^m: choice s of a row
    moves a tally up to the row's counter bits, so bit c is counter c."""
    offsets, before = [], 0
    for free in spec.variable_rows:
        offsets.append([s << before for s in range(1 << free.bit_count())])
        before += free.bit_count()
    return _row_dp(spec, offsets)


def _row_dp(spec: TypeSpec, offsets: list[list[int]]) -> int:
    """Sum of the tallies of the states whose permanent is the target, where
    choice s of row i moves a state's tally up ``offsets[i][s]`` bits.

    A state is one int: the plane >= 1 of the permanent of the rows so far
    on every column mask, with the plane >= 2 shifted above it.  A row
    covering column j adds the permanents on S - {j} to S, one shift of both
    planes' masks without j by 2^j; its 2^w choices of variable cells grow
    from its fixed cells one lowest bit at a time.  Equal states merge,
    summing their tallies.  A and B (target 0) never carry into the >= 2
    plane, so their states are the >= 1 plane alone."""
    n, size, target = spec.n, 1 << spec.n, spec.target_permanent
    low = (1 << size) - 1
    carry = low if target else 0
    without = [(low ^ p) | (low ^ p) << size for p in _planes(n)]
    # tallies bound for one state at one offset are summed before the shift:
    # one shift per pair, not per choice of every earlier state
    sums = {(1, 0): 1}  # no rows yet: the 0x0 block, permanent 1
    for fixed, free, shifts in zip(spec.fixed_rows, spec.variable_rows, offsets):
        states: dict[int, int] = {}
        for (state, shift), tally in sums.items():
            states[state] = states.get(state, 0) + (tally << shift)
        cols = [j for j in range(n) if free >> j & 1]
        sums = {}
        for state, tally in states.items():
            steps = [(state & w) << (1 << j) for j, w in enumerate(without)]
            a = 0
            for j in range(n):
                if fixed >> j & 1:
                    c = steps[j]
                    a = a | c | (a & c & carry) << size
            # the saturating add of one more covered column, inline: a call
            # per choice would double the time
            choices = [a]
            for s in range(1, 1 << len(cols)):
                bit = s & -s
                a, c = choices[s ^ bit], steps[cols[bit.bit_length() - 1]]
                choices.append(a | c | (a & c & carry) << size)
            for slot in zip(choices, shifts):
                sums[slot] = sums.get(slot, 0) + tally
    # after n rows only the full mask is left: (state > 0) + (state >> size
    # > 0) is its permanent, clipped at 2; the other states' tallies are
    # never shifted
    return sum(
        tally << shift
        for (state, shift), tally in sums.items()
        if (state > 0) + (state >> size > 0) == target
    )


def _planes(bits: int) -> list[int]:
    """Over 2^bits counters, plane k of those with bit k set, grown by
    shift-and-OR doubling (dividing a repunit instead is quadratic in
    CPython)."""
    planes = []
    for k in range(bits):
        half = 1 << k
        planes = [p | p << half for p in planes] + [((1 << half) - 1) << half]
    return planes
