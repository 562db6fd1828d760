import numpy as np
import pytest
from hypothesis import given, strategies as st

from dgmlp import ParameterError, ValidationError, build_graph, normalize

from conftest import dense_normalized, random_graph


class TestBuildGraph:
    def test_single_edge_symmetry(self):
        g = build_graph([(0, 1)], 2)
        assert g.num_edges == 1
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0]
        assert g.degrees.tolist() == [1, 1]

    def test_empty_graph(self):
        g = build_graph([], 3)
        assert g.num_edges == 0
        assert g.degrees.tolist() == [0, 0, 0]
        assert g.row_offsets.tolist() == [0, 0, 0, 0]

    def test_duplicates_and_self_loops_dropped(self):
        g = build_graph([(0, 1), (1, 0), (1, 1)], 2)
        ref = build_graph([(0, 1)], 2)
        assert g.row_offsets.tolist() == ref.row_offsets.tolist()
        assert g.col_indices.tolist() == ref.col_indices.tolist()
        assert g.degrees.tolist() == ref.degrees.tolist()

    def test_out_of_range_id_names_line(self):
        with pytest.raises(ValidationError, match="edge 1"):
            build_graph([(0, 1), (0, 5)], 3)
        with pytest.raises(ValidationError, match="edge 0"):
            build_graph([(-1, 2)], 3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permutation_and_direction_invariance(self, seed):
        rng = np.random.default_rng(seed)
        edges = [(int(u), int(v)) for u, v in rng.integers(0, 12, (40, 2)) if u != v]
        g1 = build_graph(edges, 12)
        shuffled = [edges[i] for i in rng.permutation(len(edges))]
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in shuffled]
        g2 = build_graph(flipped, 12)
        assert np.array_equal(g1.row_offsets, g2.row_offsets)
        assert np.array_equal(g1.col_indices, g2.col_indices)
        assert np.array_equal(g1.degrees, g2.degrees)

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=40))))
    def test_array_input_matches_tuple_list(self, case):
        n, pairs = case
        pairs = pairs + pairs[:2] + [(n - 1, n - 1)]  # a duplicate and a self-loop
        edges = np.array(pairs, dtype=np.int64)
        before = edges.copy()
        from_array = build_graph(edges, n)
        from_list = build_graph(pairs, n)
        for field in ("row_offsets", "col_indices", "degrees"):
            got, want = getattr(from_array, field), getattr(from_list, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(edges, before)  # the caller's array is not written

    @pytest.mark.parametrize("seed", [3, 4])
    def test_csr_invariants(self, seed):
        g = random_graph(20, 60, seed)
        assert g.row_offsets[-1] == g.degrees.sum() == 2 * g.num_edges
        for v in range(g.num_nodes):
            nbrs = g.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)  # sorted, no duplicates
            assert v not in nbrs
            for u in nbrs:  # symmetric
                assert v in g.neighbors(int(u))


class TestNormalize:
    def test_single_edge_symmetric_half(self):
        g = build_graph([(0, 1)], 2)
        dense = normalize(g, 0.5).to_dense()
        assert np.allclose(dense, 0.5)
        assert dense.shape == (2, 2)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
    def test_isolated_node_diagonal_one(self, r):
        g = build_graph([(0, 1)], 3)  # node 2 isolated
        adj = normalize(g, r)
        dense = adj.to_dense()
        assert dense[2, 2] == 1.0
        assert dense[2, :2].sum() == 0.0

    def test_path_row_stochastic(self):
        # In the family Dtil^(r-1) (A+I) Dtil^(-r) the row-stochastic
        # (reverse transition) member is r = 0: entry (i, j) = 1/dtil_i.
        g = build_graph([(0, 1), (1, 2)], 3)
        dense = normalize(g, 0.0).to_dense()
        assert np.allclose(dense[1], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_sums_one_at_r0(self, seed):
        g = random_graph(25, 80, seed)
        dense = normalize(g, 0.0).to_dense()
        assert np.abs(dense.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 5])
    def test_symmetric_values_at_half(self, seed):
        g = random_graph(15, 40, seed)
        adj = normalize(g, 0.5)
        dense = adj.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_every_diagonal_present_and_values_positive(self):
        g = random_graph(18, 50, 7)
        adj = normalize(g, 0.3)
        assert (adj.values > 0.0).all()
        dense = adj.to_dense()
        assert (np.diag(dense) > 0.0).all()

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1.0])
    def test_matches_dense_oracle(self, r):
        g = random_graph(24, 70, 11)
        assert np.abs(normalize(g, r).to_dense() - dense_normalized(g, r)).max() < 1e-14

    @pytest.mark.parametrize("r", [-0.1, 1.5, 2.0])
    def test_r_out_of_range(self, r):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(ParameterError):
            normalize(g, r)
