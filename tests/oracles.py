"""Slow, obviously correct versions of what the package computes fast.

Each function here is the definition, or an earlier independent route, that
a test holds a product path to; none of them is part of the package.
"""

import functools
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
    genfunc,
    one_plus_t_power,
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


def permanent_expansion(matrix):
    """Permanent as the literal sum over all n! permutations.

    Accepts a BinaryMatrix (returns int) or RationalMatrix (returns
    Fraction).  Branches with a zero partial product are skipped, but
    every surviving permutation is visited individually.
    """
    n = matrix.n
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
    rows = np.empty((spec.n, len(counters)), dtype=np.uint8)
    shift = 0
    for i, cols in enumerate(spec.variable_columns):
        # the row's mask for each value of its counter bits, looked up
        masks = [
            spec.fixed_rows[i] | sum(1 << j for k, j in enumerate(cols) if s >> k & 1)
            for s in range(1 << len(cols))
        ]
        field = (counters >> np.uint32(shift)) & np.uint32(len(masks) - 1)
        rows[i] = np.array(masks, dtype=np.uint8)[field]
        shift += len(cols)
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


def complement_by_polynomials() -> tuple:
    """The C2 complement identity in ``Polynomial`` arithmetic, from the
    definitions: each 0/1 assignment weighs the product over its variable
    cells of r for a one and 1 - r for a zero; the continuous side sums the
    pertinent assignments, the discrete side those with det 0.  The four
    fields of ``valuesets.ComplementReport``, in its order."""
    spec = TypeSpec("C", 2)
    r, one_minus_r = Polynomial((0, 1)), Polynomial((1, -1))
    cnt = dis = Polynomial.zero()
    for counter in range(1 << spec.m):
        member = assignment_matrix(spec, (0, 1), counter)
        weight = Polynomial.one()
        for i, j in spec.variable_positions:
            weight = weight * (r if member.entries[i - 1][j - 1] else one_minus_r)
        if permanent_expansion(member) == spec.target_permanent:
            cnt = cnt + weight
        if determinant_expansion(member) == 0:
            dis = dis + weight
    total = cnt + dis
    return cnt.coefficients, dis.coefficients, total.coefficients, total == Polynomial.one()


def power_sum_by_polynomials(nonzeros, m: int) -> Polynomial:
    """sum_i r^i (1-r)^(m-i) over ``nonzeros`` with repeats, by products."""
    r, one_minus_r = Polynomial((0, 1)), Polynomial((1, -1))
    terms = (polynomial_power(r, i) * polynomial_power(one_minus_r, m - i) for i in nonzeros)
    return sum(terms, Polynomial.zero())


# --- genfunc ---------------------------------------------------------------


def polynomial_power(base: Polynomial, exponent: int) -> Polynomial:
    """base^exponent as exponent products, one factor at a time."""
    result = Polynomial.one()
    for _ in range(exponent):
        result = result * base
    return result


class WeightedSeries:
    """Truncated series in a weighted basis: position n stands for the z^n
    coefficient a_n(t) / (n! * (1+t)^C(n,2)).  In that basis the product rule

        c_n(t) = sum_j binom(n, j) * (1+t)^(j*(n-j)) * a_j(t) * b_(n-j)(t)

    keeps every computation inside integer-coefficient polynomials.  The
    generic form of the explicit recurrences in ``genfunc``, which the tests
    hold them to.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(_coerce(t) for t in terms)
        if not self.terms:
            raise ValueError("a series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def __mul__(self, other: "WeightedSeries") -> "WeightedSeries":
        if not isinstance(other, WeightedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return WeightedSeries(
            [_convolve(self.terms, other.terms, n, 0) for n in range(order + 1)]
        )


def z_series_neg(order: int) -> WeightedSeries:
    """Base series with z negated: term n is (-1)^n."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return WeightedSeries([Polynomial(((-1) ** n,)) for n in range(order + 1)])


def reciprocal(series: WeightedSeries) -> WeightedSeries:
    """Multiplicative inverse under the weighted convolution.

    Forward recurrence: R_0 = 1 and
    R_n = -sum_(k=1..n) binom(n, k) * (1+t)^(k*(n-k)) * S_k * R_(n-k).
    """
    if series.terms[0] != Polynomial.one():
        raise ValueError("series must have constant term 1 to be inverted")
    out = [Polynomial.one()]
    for n in range(1, series.order + 1):
        out.append(-_convolve(series.terms, out, n, 1))
    return WeightedSeries(out)


def _convolve(a, b, n: int, start: int) -> Polynomial:
    """sum_(j=start..n) binom(n, j) * (1+t)^(j*(n-j)) * a_j * b_(n-j)."""
    acc = Polynomial.zero()
    for j in range(start, n + 1):
        if not a[j].coefficients or not b[n - j].coefficients:
            continue
        acc = acc + math.comb(n, j) * one_plus_t_power(j * (n - j)) * a[j] * b[n - j]
    return acc


def edge_polynomial_by_series(n: int) -> Polynomial:
    """Family C's polynomial as term n of the reciprocal of the alternating
    base series: inverting it is the inclusion-exclusion over source sets."""
    return reciprocal(z_series_neg(n)).terms[n]


def reachability_by_series(n: int) -> Polynomial:
    """Family B's polynomial as term n-1 of e * reciprocal(d) * e, with
    d_j = (1+t)^(j(j-1)) and e_j = (1+t)^(j^2): the reachability split of
    ``genfunc.gf_reachability_table`` as two weighted products."""
    d = WeightedSeries([one_plus_t_power(j * (j - 1)) for j in range(n)])
    e = WeightedSeries([one_plus_t_power(j * j) for j in range(n)])
    return (e * reciprocal(d) * e).terms[n - 1]


def edge_polynomial_by_recurrence(n: int) -> Polynomial:
    """Family C's polynomial by the source split of ``genfunc`` in
    ``Polynomial`` arithmetic, one product a term: the route that the
    one-point evaluation replaced."""
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    r = [Polynomial.one()]  # R_k: labeled DAGs on k vertices by edges
    for k in range(1, n + 1):
        acc = Polynomial.zero()
        for j in range(1, k + 1):
            term = math.comb(k, j) * one_plus_t_power(j * (k - j)) * r[k - j]
            acc = acc + term if j % 2 else acc - term
        r.append(acc)
    return r[n]


def reachability_by_recurrence(n: int) -> Polynomial:
    """Family B's polynomial by the reachability split of ``genfunc`` in
    ``Polynomial`` arithmetic, one product a term: the route that the
    one-point evaluation replaced."""
    check_reach(ROUTE_GENERATING_FUNCTION, n)
    # nearly every power here is read once, so caching them only holds memory
    power = one_plus_t_power.__wrapped__
    # g_k: digraphs on 1 plus k vertices, with no arc into 1, in which 1 reaches all k
    g = [Polynomial.one()]
    for k in range(1, n):
        acc = power(k * k)
        for j in range(k):
            acc = acc - math.comb(k, j) * power((k - j) * (k - 1)) * g[j]
        g.append(acc)
    poly = Polynomial.zero()
    for j in range(n):
        poly = poly + math.comb(n - 1, j) * power((n - 1) * (n - 1 - j)) * g[j]
    return poly


def schoolbook_product(p: Polynomial, q) -> Polynomial:
    """Polynomial product by the double loop over coefficient pairs."""
    q = _coerce(q)
    if not p.coefficients or not q.coefficients:
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
                if surplus[a, b].coefficients:
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
    - E(n + 1) = C(m, n + 1) - n!(m - n) and E(n + 2) = C(m, n + 2) -
      n! C(m - n, 2) + n! C(n, 2) / 2 for n >= 3.  Two distinct permutation
      matrices differ in at least two rows, so together they cover at least
      n + 2 cells: n + 1 ones hold at most one of them, and n + 2 ones hold
      two only when they differ by one of the C(n, 2) transpositions, and
      then exactly those two.  Inclusion-exclusion stops at pairs.
    """
    m, f = n * n, math.factorial(n)
    ends = {i: math.comb(m, i) for i in range(n)}
    if n >= 2:
        ends[n] = math.comb(m, n) - f
    if n == 3:
        ends[m - n - 1] = 45
    elif n >= 4:
        ends[m - n - 1] = 2 * n * n * (n - 1)
    if n >= 3:
        low = {
            n + 1: math.comb(m, n + 1) - f * (m - n),
            n + 2: math.comb(m, n + 2) - f * math.comb(m - n, 2) + f * math.comb(n, 2) // 2,
        }
        # at n = 3, E(n + 2) is E(top - 1): the two derivations must agree
        if any(ends.get(i, count) != count for i, count in low.items()):
            raise ValueError(f"two derivations of one entry of A{n} disagree")
        ends.update(low)
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


def c_end_coefficients(n: int) -> dict[int, int]:
    """Proven entries E(i) of family C's table (unit diagonal; m = n^2 - n
    variable cells), counting labeled DAGs on n vertices by edges.

    A digraph is a DAG unless it holds a cycle; top = C(n, 2) is the most
    edges a DAG has.
    - E(1) = m: one arc closes no cycle.
    - E(2) = C(m, 2) - C(n, 2): two arcs close only a two-cycle.
    - E(3) = C(m, 3) - C(n, 2)(m - 2) - 2 C(n, 3): three arcs hold a cycle
      when they hold a two-cycle plus any third arc, or form one of the two
      directed triangles on each vertex triple.
    - E(top) = n!: a DAG with C(n, 2) edges is a transitive tournament, one
      per vertex order.
    - E(top - 1) = n! C(n, 2) - n!(n - 1)/2: deleting one of the C(n, 2)
      edges of a transitive tournament gives every such DAG, and one lacking
      the edge between two vertices adjacent in its order arises from both
      orders of that pair.
    """
    if n < 3:
        raise ValueError(f"the five forms index entries of the table from n = 3 on, got {n}")
    m, top = n * n - n, math.comb(n, 2)
    ends = {1: m, 2: math.comb(m, 2) - top}
    ends[3] = math.comb(m, 3) - top * (m - 2) - 2 * math.comb(n, 3)
    ends[top] = math.factorial(n)
    ends[top - 1] = math.factorial(n) * top - math.factorial(n) * (n - 1) // 2
    return ends


def edge_polynomials_by_sources(n_max: int) -> list[Polynomial]:
    """Family C's polynomials for n = 0..n_max by Robinson's split refined by
    the exact number of sources, sharing no identity with the series route.

    a(n, k) counts the labeled DAGs on n vertices with exactly k sources by
    edges: a(n, k) = C(n, k) * sum_j a(n - k, j) * ((1+t)^k - 1)^j *
    (1+t)^(k(n - k - j)), with a(0, 0) = 1.  Each of the j sources of the rest
    takes at least one edge from the k sources; the other n - k - j vertices
    take any.  No term is negative.  E_C(n) = sum_k a(n, k).
    """
    a = [{0: Polynomial.one()}]
    for n in range(1, n_max + 1):
        row = {}
        for k in range(1, n + 1):
            hit = one_plus_t_power(k) - 1
            acc = Polynomial.zero()
            for j, rest in a[n - k].items():
                acc = acc + rest * polynomial_power(hit, j) * one_plus_t_power(k * (n - k - j))
            row[k] = math.comb(n, k) * acc
        a.append(row)
    return [sum(row.values(), Polynomial.zero()) for row in a]


def reachability_by_layers(n: int) -> Polynomial:
    """Family B's polynomial by the breadth-first layers L1, L2, ... that
    vertex 1 reaches, sharing no identity with the series route.

    With x_11 = 0, a pertinent B pattern is a digraph on n vertices in which
    1 lies on no cycle.  Of the m = n - 1 other vertices, 1 sends arcs to
    exactly the k1 of L1; each of the k' vertices of a next layer takes at
    least one arc from the k of the layer before; a layer's vertices send
    any arc back into the p + k' vertices placed with it, loops excluded, and
    none to 1, to a later layer past the next or outside; the m - p vertices
    that 1 does not reach send arcs anywhere.  So, with p placed before it,
    the first layer gives C(m, k1) t^k1 (1+t)^(k1(k1 - 1)), a next layer
    C(m - p, k') ((1+t)^k - 1)^k' (1+t)^(k'(p + k' - 1)), the vertices
    outside (1+t)^((m - p) m), and the empty split (1+t)^(m^2).  No term is
    negative.
    """
    m = n - 1
    power = functools.cache(one_plus_t_power.__wrapped__)

    @functools.cache
    def hit(k: int, j: int) -> Polynomial:
        """((1+t)^k - 1)^j, read at every p that a layer of size k ends."""
        return Polynomial.one() if j == 0 else hit(k, j - 1) * (power(k) - 1)

    # placed[p][k]: every sequence of layers that places p vertices, the last of size k
    placed = [{} for _ in range(m + 1)]
    for k in range(1, m + 1):
        placed[k][k] = math.comb(m, k) * Polynomial((0,) * k + (1,)) * power(k * (k - 1))
    total = power(m * m)
    for p in range(1, m + 1):
        total = total + sum(placed[p].values(), Polynomial.zero()) * power((m - p) * m)
        for size in range(1, m - p + 1):
            reached = sum((hit(k, size) * poly for k, poly in placed[p].items()), Polynomial.zero())
            placed[p + size][size] = math.comb(m - p, size) * power(size * (p + size - 1)) * reached
    return total


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
