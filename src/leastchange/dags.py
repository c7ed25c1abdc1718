"""Labeled acyclic digraphs and the census by edge count.

A unit-diagonal binary matrix has permanent 1 exactly when the digraph with
adjacency matrix M - I is acyclic, so counting DAGs on n labeled vertices by
edges is a second, independent route to the family-C tables.  The census
walks the 3^(n(n-1)/2) states of the vertex pairs (absent, forward or
backward), never the 2^(n^2-n) off-diagonal masks, and reaches n = 6.  A set
of states is a Python int used as a bit plane (bit s is state s), so the one
source peel, ``acyclic_bits``, acts on all of them at once with no array
library; ``is_acyclic`` runs it on one graph.
"""

from __future__ import annotations

import itertools
from functools import cache

from .matrices import TypeSpec, _Record
from .tables import ROUTE_DAG_CENSUS, CoefficientTable, check_reach

LOW_DIGITS = 10  # pair digits per plane in the census


class Digraph(_Record):
    """Loop-free digraph on vertices 1..n; edges are ordered pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        for k, l in edges:
            if k == l:
                raise ValueError(f"loop ({k}, {k}) not allowed")
            if not (1 <= k <= n and 1 <= l <= n):
                raise ValueError(f"edge ({k}, {l}) outside vertex range 1..{n}")
        super().__init__(n, edges)


def is_acyclic(digraph: Digraph) -> bool:
    """The census's source peel on one graph, as planes of one bit."""
    edges = dict.fromkeys(((k - 1, l - 1) for k, l in digraph.edges), 1)
    return acyclic_bits(edges, digraph.n, 1) == 1


@cache
def count_dags_by_edges(n: int) -> CoefficientTable:
    """Census of labeled DAGs on n vertices by edge count, for n = 1..6,
    memoized per n (it is exhaustive, so one run per process suffices).

    Each unordered vertex pair is absent, forward or backward (base-3 digit
    0, 1 or 2), never both: that is a 2-cycle.  The low ``LOW_DIGITS``
    digits index the bits of a plane, with a forward and a backward edge
    plane per digit and, by a DP over the digits, a plane per edge count.
    Each value of the high digits is one peel, its edges in all states or
    none; planes of 3^10 bits stay in cache.
    """
    check_reach(ROUTE_DAG_CENSUS, n)
    pairs = list(itertools.combinations(range(n), 2))
    low = min(len(pairs), LOW_DIGITS)
    size = 3**low
    full = (1 << size) - 1
    planes, classes = {}, [1]
    for q, (i, j) in enumerate(pairs[:low]):
        unit = 3**q
        classes = [a | b << unit | b << 2 * unit for a, b in zip(classes + [0], [0] + classes)]
        for edge, digit in (((i, j), 1), ((j, i), 2)):
            # one period of 3^(q+1) states, doubled by shift-and-OR
            plane, period = ((1 << unit) - 1) << digit * unit, 3 * unit
            while period < size:
                plane |= plane << period
                period *= 2
            planes[edge] = plane & full
    counts = [0] * (n * n - n + 1)
    for high in itertools.product(range(3), repeat=len(pairs) - low):
        edges = dict(planes)
        for (i, j), digit in zip(pairs[low:], high):
            if digit:
                edges[(i, j) if digit == 1 else (j, i)] = full
        acyclic, offset = acyclic_bits(edges, n, full), len(high) - high.count(0)
        for count, states in enumerate(classes):
            counts[offset + count] += (acyclic & states).bit_count()
    return CoefficientTable.from_counts(TypeSpec("C", n), counts, ROUTE_DAG_CENSUS)


def acyclic_bits(edges: dict[tuple[int, int], int], n: int, full: int) -> int:
    """Source peeling on bit planes: bit s of ``edges[u, v]`` says graph s
    has the edge u -> v, and bit s of ``full`` that graph s exists.  Returns
    the plane of the graphs that deleting in-degree-0 vertices empties; each
    round keeps the live vertices with a live predecessor, and a DAG on n
    vertices is empty after n rounds."""
    alive = [full] * n
    for _ in range(n):
        fed = [0] * n
        for (u, v), plane in edges.items():
            fed[v] |= alive[u] & plane
        alive = [a & f for a, f in zip(alive, fed)]
    for a in alive:
        full &= ~a
    return full
