"""Slow, obviously correct versions of what the package computes fast.

Each function here is the definition, or an earlier independent route, that
a test holds a product path to; none of them is part of the package.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from leastchange import (
    ROUTE_GENERATING_FUNCTION,
    AttainingSet,
    BinaryMatrix,
    CoefficientTable,
    Digraph,
    Polynomial,
    ProbabilityPolynomial,
    RationalMatrix,
    TypeSpec,
    WeightedSeries,
    genfunc,
    one_plus_t_power,
    permanent_expansion,
)
from leastchange.genfunc import _coerce
from leastchange.matrices import det_int
from leastchange.probability import ChainReport, CurveSample, _chain_holds
from leastchange.tables import check_reach

# --- matrices --------------------------------------------------------------


def zero_matrix(n: int) -> BinaryMatrix:
    return BinaryMatrix(n, (0,) * n)


def identity_matrix(n: int) -> BinaryMatrix:
    return BinaryMatrix(n, tuple(1 << i for i in range(n)))


def permanent_ryser(matrix: BinaryMatrix) -> int:
    """Permanent by inclusion-exclusion over column subsets, O(2^n * n)."""
    n = matrix.n
    rows = matrix.rows
    total = 0
    for subset in range(1, 1 << n):
        prod = 1
        for r in rows:
            prod *= (r & subset).bit_count()
            if prod == 0:
                break
        if (n - subset.bit_count()) & 1:
            total -= prod
        else:
            total += prod
    return total


def determinant_expansion(matrix) -> Fraction:
    """Determinant as the signed permutation sum; cross-check for Bareiss."""
    if isinstance(matrix, BinaryMatrix):
        matrix = matrix.to_rational()
    n = matrix.n
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
            total += _sign(perm) * prod
    return total


def _sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def delete_row_col(matrix, i: int, j: int):
    """Submatrix with row i and column j removed (1-based)."""
    n = matrix.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"index ({i}, {j}) outside 1..{n}")
    if isinstance(matrix, BinaryMatrix):
        low = (1 << (j - 1)) - 1
        rows = [
            (r & low) | ((r >> j) << (j - 1))
            for k, r in enumerate(matrix.rows)
            if k != i - 1
        ]
        return BinaryMatrix(n - 1, tuple(rows))
    rows = [
        [v for jj, v in enumerate(row) if jj != j - 1]
        for ii, row in enumerate(matrix.entries)
        if ii != i - 1
    ]
    return RationalMatrix.from_rows(rows)


def _entries(member):
    """The rows of a binary or rational matrix as sequences of entries."""
    return member.to_lists() if isinstance(member, BinaryMatrix) else member.entries


def nonzero_cells(spec, member) -> int:
    """Nonzero variable elements of a family matrix, read cell by cell."""
    rows = _entries(member)
    return sum(rows[i - 1][j - 1] != 0 for i, j in spec.variable_positions)


def assignment_counter(spec, values, member) -> int:
    """The counter of a member: digit k is the index of its k-th variable cell."""
    rows = _entries(member)
    digits = [values.index(rows[i - 1][j - 1]) for i, j in spec.variable_positions]
    return sum(d * len(values) ** k for k, d in enumerate(digits))


def assignment_matrix(spec, values, counter):
    """The family matrix of a counter: digit k fills the k-th variable cell."""
    rows = [[Fraction(1)] * spec.n for _ in range(spec.n)]
    for i, j in spec.variable_positions:
        counter, digit = divmod(counter, len(values))
        rows[i - 1][j - 1] = values[digit]
    return RationalMatrix.from_rows(rows)


# --- enumeration -----------------------------------------------------------


def is_pertinent(spec, matrix: BinaryMatrix) -> bool:
    """Definitional predicate: the permanent equals the family target."""
    spec.check_pattern(matrix)
    return permanent_expansion(matrix) == spec.target_permanent


BATCH_SIZE = 1 << 20


def build_rows(spec, counters: np.ndarray) -> np.ndarray:
    """Row bitmasks of each uint32 counter's matrix, shape ``(n, len(counters))``."""
    rows = np.zeros((spec.n, len(counters)), dtype=np.uint8)
    for i, runs in enumerate(spec.fields):
        for shift, width, col in runs:
            field = (counters >> np.uint32(shift)) & np.uint32((1 << width) - 1)
            rows[i] |= (field << np.uint32(col)).astype(np.uint8)
        rows[i] |= np.uint8(spec.fixed_rows[i])
    return rows


def hall_violated(rows: np.ndarray, n: int) -> np.ndarray:
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


def scan_mask(spec, counters: np.ndarray) -> np.ndarray:
    """Pertinence of each counter, decided without the permanent.

    Families A and B (permanent 0) take the full Hall sweep over all n rows;
    family C (permanent 1) takes the DAG census's source peel of the digraph
    left when the fixed unit diagonal is cleared.
    """
    rows = build_rows(spec, counters)
    if spec.family == "C":
        return acyclic_mask([row ^ np.uint8(1 << i) for i, row in enumerate(rows)], spec.n)
    return hall_violated(rows, spec.n)


def scan_counts(spec) -> np.ndarray:
    """Histogram of one-counts over the pertinent counters, batch by batch."""
    m = spec.m
    counts = np.zeros(m + 1, dtype=np.int64)
    for lo in range(0, 1 << m, BATCH_SIZE):
        counters = np.arange(lo, min(lo + BATCH_SIZE, 1 << m), dtype=np.uint32)
        pert = scan_mask(spec, counters)
        counts += np.bincount(np.bitwise_count(counters[pert]), minlength=m + 1)
    return counts


# --- dags ------------------------------------------------------------------


def matrix_to_digraph(matrix: BinaryMatrix) -> Digraph:
    """Digraph with adjacency M - I; requires a unit diagonal."""
    n = matrix.n
    TypeSpec("C", n).check_pattern(matrix)
    edges = {
        (i + 1, j + 1)
        for i, row in enumerate(matrix.rows)
        for j in range(n)
        if j != i and (row >> j) & 1
    }
    return Digraph(n, frozenset(edges))


def peel(adjacency: tuple[int, ...], n: int) -> bool:
    """Scalar source peeling of one digraph's adjacency rows."""
    alive = (1 << n) - 1
    while alive:
        incoming = 0
        probe = alive
        while probe:
            low = probe & -probe
            incoming |= adjacency[low.bit_length() - 1]
            probe ^= low
        sources = alive & ~incoming
        if not sources:
            return False
        alive &= ~sources
    return True


def acyclic_mask(adjacency: list[np.ndarray], n: int) -> np.ndarray:
    """Vectorized source peeling over batches of uint8 adjacency row arrays.

    True where repeatedly deleting in-degree-0 vertices empties the graph;
    each round keeps exactly the live vertices with a live predecessor.
    """
    alive = np.full(adjacency[0].shape, np.uint8((1 << n) - 1), dtype=np.uint8)
    zero = np.uint8(0)
    for _ in range(n):
        incoming = np.zeros(adjacency[0].shape, dtype=np.uint8)
        for u in range(n):
            live = ((alive >> np.uint8(u)) & np.uint8(1)).astype(bool)
            incoming |= np.where(live, adjacency[u], zero)
        alive &= incoming
    return alive == 0


def census_batched(n: int) -> np.ndarray:
    """DAGs on n vertices by edge count over 0..n^2-n, decoding the base-3
    pair states in numpy batches (digit 1 forward, 2 backward) and keeping
    those that ``acyclic_mask`` empties."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total_states = 3 ** len(pairs)
    counts = np.zeros(n * n - n + 1, dtype=np.int64)
    for lo in range(0, total_states, BATCH_SIZE):
        digits = np.arange(lo, min(lo + BATCH_SIZE, total_states), dtype=np.int64)
        adjacency = [np.zeros(digits.shape, dtype=np.uint8) for _ in range(n)]
        edge_count = np.zeros(digits.shape, dtype=np.int64)
        for i, j in pairs:
            d = digits % 3
            digits = digits // 3
            adjacency[i] |= np.where(d == 1, np.uint8(1 << j), np.uint8(0))
            adjacency[j] |= np.where(d == 2, np.uint8(1 << i), np.uint8(0))
            edge_count += (d != 0).astype(np.int64)
        counts += np.bincount(edge_count[acyclic_mask(adjacency, n)], minlength=len(counts))
    return counts


# --- valuesets ------------------------------------------------------------


def discrete_scan_loop(spec, xset) -> AttainingSet:
    """The discrete scan as one integer Bareiss call per assignment, in
    counter order, with a running minimum, a tie list and a sign pass.

    The loop builds each attaining member from its combo and fills the
    set's ``members`` cache with them, so comparing ``members`` with a scan
    compares the scan's counter decode with this construction."""
    values = list(xset.values)
    n, m, k = spec.n, spec.m, len(values)
    scale = math.lcm(*(v.denominator for v in values))
    scaled = [int(v * scale) for v in values]
    zero_digit = values.index(0)
    # product() turns its last factor fastest, so the last factor is cell 0
    positions = [(i - 1, j - 1) for i, j in reversed(spec.variable_positions)]
    # every cell off the variable positions is fixed at 1
    base = [[scale] * n for _ in range(n)]

    best = None
    kept = []
    for counter, combo in enumerate(itertools.product(range(k), repeat=m)):
        for p, (i, j) in enumerate(positions):
            base[i][j] = scaled[combo[p]]
        d = det_int([row[:] for row in base])
        a = abs(d)
        if best is None or a < best:
            best = a
            kept = [(d, counter, combo)]
        elif a == best:
            kept.append((d, counter, combo))
    u_scaled = best if any(d == best for d, _, _ in kept) else -best
    one = Fraction(1)
    counters, members, nonzeros = [], [], []
    for d, counter, combo in kept:
        if d != u_scaled:
            continue
        rows = [[one] * n for _ in range(n)]
        for p, (i, j) in enumerate(positions):
            rows[i][j] = values[combo[p]]
        counters.append(counter)
        members.append(RationalMatrix(n, tuple(map(tuple, rows))))
        nonzeros.append(m - combo.count(zero_digit))
    value = Fraction(u_scaled, scale**n)
    attaining = AttainingSet(spec, value, tuple(counters), tuple(nonzeros), xset.values)
    vars(attaining)["members"] = tuple(members)
    return attaining


# --- genfunc ---------------------------------------------------------------


def schoolbook_product(p: Polynomial, q) -> Polynomial:
    """Polynomial product by the double loop over coefficient pairs."""
    q = _coerce(q)
    if p.is_zero() or q.is_zero():
        return Polynomial()
    a, b = p.coefficients, q.coefficients
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return Polynomial(out)


def evaluate_polynomial(poly: Polynomial, x):
    """The polynomial's value at x, by Horner."""
    acc = 0
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc


def derivative(poly: Polynomial) -> Polynomial:
    return Polynomial(tuple(i * c for i, c in enumerate(poly.coefficients) if i))


def coefficient_by_differentiation(poly: Polynomial, power: int) -> Fraction:
    """Coefficient read the slow way: differentiate, evaluate at 0, divide."""
    for _ in range(power):
        poly = derivative(poly)
    return Fraction(evaluate_polynomial(poly, 0), math.factorial(power))


def coefficient_at(series: WeightedSeries, n: int, t=0) -> Fraction:
    """Actual z^n series coefficient, weights unfolded, at a given t."""
    weight = math.factorial(n) * evaluate_polynomial(one_plus_t_power(math.comb(n, 2)), t)
    return Fraction(evaluate_polynomial(series.terms[n], t)) / weight


def z_series(order: int) -> WeightedSeries:
    """The base series: every weighted term is the constant 1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return WeightedSeries([Polynomial.one()] * (order + 1))


def checked_deficiency_table(n: int) -> CoefficientTable:
    """Family A by the Hall-deficiency split, solving every K(a, b) it can.

    The split of ``genfunc.gf_deficiency_table`` over all pairs a, b <= n:
    for a > b the sum must yield K(a, b) = 0 (all a rows meet at most b
    columns), so this solve derives each of those zeros and raises unless it
    is one, and multiplies by them in every later sum.  The power kernel is
    read from ``genfunc`` when called, so a patch of it reaches this solve.
    """
    one_plus_t_power = genfunc.one_plus_t_power
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    matched = {(0, b): Polynomial.one() for b in range(n + 1)}
    surplus = dict(matched)

    def rest(a, b, skip):
        acc = Polynomial.zero()
        for s in range(a + 1):
            for tau in range(min(s, b) + 1):
                if (s, tau) != skip:
                    acc = acc + (
                        math.comb(a, s) * math.comb(b, tau) * matched[tau, s]
                        * surplus[a - s, b - tau] * one_plus_t_power((a - s) * tau)
                    )
        return one_plus_t_power(a * b) - acc

    for level in range(1, 2 * n + 1):
        pairs = [(a, level - a) for a in range(max(1, level - n), min(level, n) + 1)]
        # a < b first, then a > b (which reads M(b, a)), then a = b
        for a, b in sorted(pairs, key=lambda ab: (ab[0] >= ab[1], ab[0] == ab[1])):
            if a < b:
                surplus[a, b] = rest(a, b, (0, 0))
                matched[a, b] = sum(
                    (
                        math.comb(a, s) * math.comb(b, s) * matched[s, s]
                        * surplus[a - s, b - s] * one_plus_t_power((a - s) * s)
                        for s in range(a + 1)
                    ),
                    Polynomial.zero(),
                )
            elif a > b:
                surplus[a, b] = rest(a, b, (0, 0))
                if not surplus[a, b].is_zero():
                    raise RuntimeError(f"deficiency split leaves surplus at {a}x{b}")
            else:
                surplus[a, a] = Polynomial.zero()
                matched[a, a] = rest(a, a, (a, a))
    poly = one_plus_t_power(n * n) - matched[n, n]
    return CoefficientTable.from_counts(
        TypeSpec("A", n), poly.coefficients, ROUTE_GENERATING_FUNCTION
    )


def a_end_coefficients(n: int) -> dict[int, int]:
    """Proven entries E(i) of family A's table (all m = n^2 cells variable).

    - E(i) = C(m, i) for i < n: fewer than n ones hold no permutation.
    - E(n) = C(m, n) - n! for n >= 2: n ones have permanent 0 unless they
      form one of the n! permutation matrices.
    - E(top - 1), top = n^2 - n, counts the matrices with n + 1 zeros and
      permanent 0.  By Frobenius-Koenig the zeros hold a p x q block with
      p + q = n + 1.  For n >= 4 only a zero row or column fits, plus one
      more zero: 2n * n(n - 1).  At n = 3 the nine 2 x 2 blocks add 9 to
      the 36 of that count, for 45.
    """
    m = n * n
    ends = {i: math.comb(m, i) for i in range(n)}
    if n >= 2:
        ends[n] = math.comb(m, n) - math.factorial(n)
    if n == 3:
        ends[m - n - 1] = 45
    elif n >= 4:
        ends[m - n - 1] = 2 * n * n * (n - 1)
    return ends


def b_end_coefficients(n: int) -> dict[int, int]:
    """Proven entries E(i) of family B's table (x_11 variable, the rest of
    the diagonal fixed at 1; m = n^2 - n + 1 variable cells).

    The permanent is 0 exactly when x_11 = 0 and no cycle passes through
    vertex 1 of the off-diagonal digraph.
    - E(1) = m - 1 for n >= 2: one arc closes no cycle.
    - E(2) = C(m - 1, 2) - (n - 1) for n >= 3: two arcs close a cycle
      through 1 only as one of the n - 1 two-cycles 1 -> j -> 1.
    """
    m = n * n - n + 1
    ends = {}
    if n >= 2:
        ends[1] = m - 1
    if n >= 3:
        ends[2] = math.comb(m - 1, 2) - (n - 1)
    return ends


# --- probability -----------------------------------------------------------


def evaluate_power_sum(poly, r) -> Fraction:
    """sum_i E(i) r^i (1-r)^(m-i) term by term in Fractions."""
    r = Fraction(r)
    s = 1 - r
    m = poly.table.spec.m
    r_pow = [Fraction(1)]
    s_pow = [Fraction(1)]
    for _ in range(m):
        r_pow.append(r_pow[-1] * r)
        s_pow.append(s_pow[-1] * s)
    return sum(c * r_pow[i] * s_pow[m - i] for i, c in enumerate(poly.table.coeffs))


def monomial_coefficients(poly) -> tuple[int, ...]:
    """Exact expansion into powers of r, degree 0..m."""
    m = poly.table.spec.m
    out = [0] * (m + 1)
    for i, c in enumerate(poly.table.coeffs):
        if c == 0:
            continue
        for k in range(m - i + 1):
            out[i + k] += c * math.comb(m - i, k) * (-1) ** k
    return tuple(out)


def evaluate_monomial(poly, r) -> Fraction:
    """Horner evaluation of the monomial expansion."""
    acc = Fraction(0)
    for c in reversed(monomial_coefficients(poly)):
        acc = acc * r + c
    return acc


def find_order_violation_three_pass(n, lo, hi, step, tables) -> ChainReport:
    """The chain scan as three passes: sample the grid, then find the last
    failure, then the first holding sample above it."""
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    polys = [ProbabilityPolynomial(tables[f]) for f in "ABC"]
    grid, outcomes = [], []
    r = lo
    while r <= hi:
        if 0 < r < 1:
            grid.append(r)
            outcomes.append(_chain_holds(CurveSample(r, *(p.evaluate(r) for p in polys))))
        r += step
    holding = sum(outcomes)
    largest_failing = None
    smallest_holding_above = None
    for r, ok in zip(grid, outcomes):
        if not ok:
            largest_failing = r
    if largest_failing is not None:
        for r, ok in zip(grid, outcomes):
            if r > largest_failing and ok:
                smallest_holding_above = r
                break
    return ChainReport(
        n, lo, hi, step, holding, len(grid) - holding, largest_failing,
        smallest_holding_above,
    )
