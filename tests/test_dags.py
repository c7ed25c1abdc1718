import pytest
from oracles import census_batched, identity_matrix, matrix_to_digraph, peel

from leastchange import (
    BinaryMatrix,
    Digraph,
    DimensionError,
    PatternError,
    TypeSpec,
    count_dags_by_edges,
    count_pertinent,
    is_acyclic,
    permanent_expansion,
)
from leastchange import dags
from leastchange.dags import acyclic_bits
from leastchange.reference import REFERENCE_COUNTS
from leastchange.tables import ROUTE_DAG_CENSUS


def mask_recount(n):
    """Scalar census over all 2^(n^2-n) off-diagonal masks: the oracle.

    A mask holding both (k, l) and (l, k) is a 2-cycle and is skipped before
    the scalar peel.
    """
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    m = len(cells)
    pair_masks = [
        (1 << a) | (1 << cells.index((j, i)))
        for a, (i, j) in enumerate(cells)
        if i < j
    ]
    counts = [0] * (m + 1)
    for mask in range(1 << m):
        if any(mask & pm == pm for pm in pair_masks):
            continue
        adjacency = [0] * n
        for a, (i, j) in enumerate(cells):
            if (mask >> a) & 1:
                adjacency[i] |= 1 << j
        if peel(tuple(adjacency), n):
            counts[mask.bit_count()] += 1
    i_max = (n * n - n) // 2
    assert not any(counts[i_max + 1 :]), "acyclic mask above the edge bound"
    return tuple(counts[: i_max + 1])


class TestDigraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Digraph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range_vertices(self):
        with pytest.raises(ValueError):
            Digraph(2, frozenset({(1, 3)}))


class TestMatrixToDigraph:
    def test_identity_gives_empty_digraph(self):
        d = matrix_to_digraph(identity_matrix(3))
        assert d.edges == frozenset()

    def test_upper_triangular_ones(self):
        m = BinaryMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert matrix_to_digraph(m).edges == {(1, 2), (1, 3), (2, 3)}

    def test_published_nontriangular_witness(self):
        m = BinaryMatrix.from_rows([[1, 0, 1], [1, 1, 1], [0, 0, 1]])
        assert matrix_to_digraph(m).edges == {(1, 3), (2, 1), (2, 3)}

    def test_requires_unit_diagonal(self):
        with pytest.raises(PatternError):
            matrix_to_digraph(BinaryMatrix.from_rows([[1, 1], [1, 0]]))

    def test_edge_count_equals_variable_ones(self):
        spec = TypeSpec("C", 3)
        for bits in range(1 << spec.m):
            m = spec.matrix_from_bits(bits)
            assert len(matrix_to_digraph(m).edges) == bin(bits).count("1")

    def test_injective_on_family_c(self):
        spec = TypeSpec("C", 3)
        images = {matrix_to_digraph(spec.matrix_from_bits(b)) for b in range(1 << spec.m)}
        assert len(images) == 1 << spec.m


class TestIsAcyclic:
    def test_empty_digraph(self):
        assert is_acyclic(Digraph(3, frozenset()))

    def test_two_cycle(self):
        assert not is_acyclic(Digraph(2, frozenset({(1, 2), (2, 1)})))

    def test_transitive_tournament(self):
        assert is_acyclic(Digraph(3, frozenset({(1, 2), (2, 3), (1, 3)})))

    def test_long_cycle(self):
        assert not is_acyclic(Digraph(4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1)})))


class TestCensus:
    def test_tiny_cases(self):
        assert count_dags_by_edges(1).coeffs == (1,)
        assert count_dags_by_edges(2).coeffs == (1, 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reference_rows(self, n):
        table = count_dags_by_edges(n)
        assert table.coeffs == REFERENCE_COUNTS["C"][n]
        assert table.route == ROUTE_DAG_CENSUS

    def test_totals_match_published_sequence(self):
        assert [count_dags_by_edges(n).total for n in range(1, 6)] == [
            1, 3, 25, 543, 29281,
        ]

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            count_dags_by_edges(0)
        with pytest.raises(DimensionError):
            count_dags_by_edges(7)

    def test_matches_enumeration_route(self):
        for n in range(1, 6):
            assert count_dags_by_edges(n).coeffs == count_pertinent(TypeSpec("C", n)).coeffs

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pair_census_agrees(self, n):
        if n <= 5:
            assert count_dags_by_edges(n).coeffs == mask_recount(n)
        else:
            table = count_dags_by_edges(n)
            assert table.total == 3781503  # labeled DAGs on 6 vertices
            assert len(table.coeffs) == 16

    @pytest.mark.parametrize("n", range(1, 6))
    def test_plane_census_equals_batched_census(self, n):
        # the numpy census decodes every state's base-3 digits in batches
        counts = census_batched(n).tolist()
        table = count_dags_by_edges(n)
        assert counts == list(table.coeffs) + [0] * (len(counts) - len(table.coeffs))

    @pytest.mark.parametrize("low_digits, n_max", [(0, 4), (3, 5), (7, 5)])
    def test_high_digits_take_one_peel_each(self, monkeypatch, low_digits, n_max):
        # with n <= 5 every digit fits in one plane; fewer low digits send
        # the rest through the loop over the high digits, as at n = 6
        monkeypatch.setattr(dags, "LOW_DIGITS", low_digits)
        for n in range(1, n_max + 1):
            table = count_dags_by_edges.__wrapped__(n)
            assert table.coeffs == REFERENCE_COUNTS["C"][n]

    def test_memoized_per_process(self):
        assert count_dags_by_edges(5) is count_dags_by_edges(5)

    def test_edge_bound(self):
        # a DAG on n vertices carries at most n*(n-1)/2 edges
        for n in range(1, 6):
            assert len(count_dags_by_edges(n).coeffs) == (n * n - n) // 2 + 1


class TestPlanePeel:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_the_scalar_peel_on_every_digraph(self, n):
        # bit s of each edge plane is bit (u, v) of the off-diagonal mask s
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        size = 1 << len(cells)
        planes = {}
        for k, cell in enumerate(cells):
            plane = 0
            for mask in range(size):
                plane |= (mask >> k & 1) << mask
            planes[cell] = plane
        acyclic = acyclic_bits(planes, n, (1 << size) - 1)
        for mask in range(size):
            adjacency = [0] * n
            for k, (i, j) in enumerate(cells):
                adjacency[i] |= (mask >> k & 1) << j
            assert (acyclic >> mask & 1) == peel(tuple(adjacency), n)
        assert acyclic >> size == 0


class TestPermanentBridge:
    def test_permanent_one_iff_acyclic_n3(self):
        spec = TypeSpec("C", 3)
        for bits in range(1 << spec.m):
            m = spec.matrix_from_bits(bits)
            assert (permanent_expansion(m) == 1) == is_acyclic(matrix_to_digraph(m))
