"""Labeled acyclic digraphs and the census by edge count.

A unit-diagonal binary matrix has permanent 1 exactly when the digraph with
adjacency matrix M - I is acyclic, so counting DAGs on n labeled vertices by
edges is a second, independent route to the family-C tables.  The census
walks the 3^(n(n-1)/2) states of the vertex pairs (absent, forward or
backward), never the 2^(n^2-n) off-diagonal masks, and reaches n = 6.  The
scalar ``_peel`` backs ``is_acyclic``; the census alone counts with the
vectorized ``acyclic_mask`` (the enumeration splits the rows instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .matrices import BinaryMatrix, TypeSpec
from .tables import ROUTE_DAG_CENSUS, CoefficientTable, check_reach


@dataclass(frozen=True)
class Digraph:
    """Loop-free digraph on vertices 1..n; edges are ordered pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for k, l in self.edges:
            if k == l:
                raise ValueError(f"loop ({k}, {k}) not allowed")
            if not (1 <= k <= self.n and 1 <= l <= self.n):
                raise ValueError(f"edge ({k}, {l}) outside vertex range 1..{self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Digraph":
        return cls(n, frozenset((int(k), int(l)) for k, l in edges))

    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency_rows(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for k, l in self.edges:
            rows[k - 1] |= 1 << (l - 1)
        return tuple(rows)


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


def digraph_to_matrix(digraph: Digraph) -> BinaryMatrix:
    rows = tuple(r | (1 << i) for i, r in enumerate(digraph.adjacency_rows()))
    return BinaryMatrix(digraph.n, rows)


def is_acyclic(digraph: Digraph) -> bool:
    """Iterative source peeling; no recursion depth to worry about."""
    return _peel(digraph.adjacency_rows(), digraph.n)


def _peel(adjacency: tuple[int, ...], n: int) -> bool:
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


@cache
def count_dags_by_edges(n: int) -> CoefficientTable:
    """Census of labeled DAGs on n vertices by edge count, for n = 1..6.

    Memoized per n: the census is exhaustive, so one run per process suffices.

    Each unordered vertex pair is absent, forward or backward; both
    directions at once is a 2-cycle, so that state never appears.  The
    3^(n(n-1)/2) pair states are decoded in numpy batches and kept where the
    vectorized source peel empties the graph.
    """
    check_reach(ROUTE_DAG_CENSUS, n)
    spec = TypeSpec("C", n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total_states = 3 ** len(pairs)
    counts = np.zeros(spec.m + 1, dtype=np.int64)
    batch = 1 << 19
    for lo in range(0, total_states, batch):
        hi = min(lo + batch, total_states)
        states = np.arange(lo, hi, dtype=np.int64)
        adjacency = [np.zeros(states.shape, dtype=np.uint8) for _ in range(n)]
        edge_count = np.zeros(states.shape, dtype=np.int64)
        digits = states
        for i, j in pairs:
            d = digits % 3
            digits = digits // 3
            adjacency[i] |= np.where(d == 1, np.uint8(1 << j), np.uint8(0))
            adjacency[j] |= np.where(d == 2, np.uint8(1 << i), np.uint8(0))
            edge_count += (d != 0).astype(np.int64)
        acyclic = acyclic_mask(adjacency, n)
        counts += np.bincount(edge_count[acyclic], minlength=spec.m + 1)
    return CoefficientTable.from_counts(spec, counts, ROUTE_DAG_CENSUS)


def acyclic_mask(adjacency: list[np.ndarray], n: int) -> np.ndarray:
    """Vectorized source peeling over batches of adjacency row arrays.

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
