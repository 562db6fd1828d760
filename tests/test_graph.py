import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from dgmlp import ParameterError, ValidationError, build_graph, drop_edges, erdos_renyi, \
    load_dataset, normalize
from dgmlp.graph import MAX_NODES

from conftest import FIXTURES, dense_normalized, random_graph


def scipy_reference(pairs, n):
    """(row_offsets, col_indices, degrees) of the simple undirected graph on
    pairs, from scipy alone: symmetrize, drop the diagonal, merge duplicates."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    a = sparse.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    a = (a + a.T).tocsr()
    a = (sparse.triu(a, 1) + sparse.tril(a, -1)).tocsr()
    a.sum_duplicates()
    a.sort_indices()
    return (a.indptr.astype(np.int64), a.indices.astype(np.int64),
            np.diff(a.indptr).astype(np.int64))


def assert_matches_reference(graph, pairs, n):
    want = scipy_reference(pairs, n)
    for field, ref in zip(("row_offsets", "col_indices", "degrees"), want):
        got = getattr(graph, field)
        assert got.dtype == np.int64 and got.tobytes() == ref.tobytes(), field


def graph_digest(graph) -> str:
    """SHA-256 over the bytes of row_offsets, col_indices and degrees."""
    h = hashlib.sha256()
    for a in (graph.row_offsets, graph.col_indices, graph.degrees):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


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

    def test_empty_list_stays_valid(self):
        for empty in ([], np.empty((0, 2)), np.empty(0, dtype=np.int32)):
            g = build_graph(empty, 2)
            assert g.num_edges == 0 and g.row_offsets.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("edges", [
        [(0.7, 1)], [(0, 1), (1.0, 2)], np.array([[0.7, 1.0]]), np.array([[0.0, 1.0]]),
        [(True, 1)], np.array([[True, False]]), [("0", "1")], np.array([["0", "1"]]),
        [(0, None)], np.array([[0, 1.5]], dtype=object),
    ])
    def test_non_integer_ids_rejected(self, edges):
        # numpy would truncate 0.7 to node 0 and read True as 1
        with pytest.raises(ValidationError, match="node ids must be integers"):
            build_graph(edges, 3)

    @pytest.mark.parametrize("edges,shown", [
        ([(2**70, 1)], "(1180591620717411303424, 1)"),
        ([(0, 1), (1, -2**64)], "(1, -18446744073709551616)"),
        ([(2**63, 1)], "(9223372036854775808, 1)"),  # numpy reads this list as floats
        (np.array([[1, 2**63]], dtype=np.uint64), "(1, 9223372036854775808)"),
        (np.array([[2**70, 0]], dtype=object), "(1180591620717411303424, 0)"),
    ])
    def test_ids_past_int64_are_out_of_range(self, edges, shown):
        line = len(edges) - 1
        with pytest.raises(ValidationError, match=rf"edge {line}: node id out of range") as exc:
            build_graph(edges, 3)
        assert str(exc.value).endswith(shown)

    def test_other_integer_dtypes_accepted(self):
        ref = build_graph([(0, 1), (2, 1)], 3)
        for dtype in (np.int8, np.int32, np.uint16, np.uint64, object):
            g = build_graph(np.array([[0, 1], [2, 1]], dtype=dtype), 3)
            assert g.col_indices.tobytes() == ref.col_indices.tobytes()

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0, 1), (2,)], np.zeros((3, 3), np.int64),
                                       np.zeros(4, np.int64)])
    def test_not_pairs(self, edges):
        with pytest.raises(ValidationError, match="pairs"):
            build_graph(edges, 3)

    def test_num_nodes_range(self):
        for n in (0, -1, MAX_NODES + 1):
            with pytest.raises(ValidationError, match="num_nodes"):
                build_graph([], n)

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


class TestBuildGraphOracle:
    """Bitwise agreement with a plain scipy construction."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_edge_lists(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pairs = rng.integers(0, max(1, n // 2 + 1), (int(rng.integers(0, 3 * n)), 2))
        pairs = np.concatenate([
            pairs,                                 # ids below n // 2 + 1: isolated nodes above
            pairs[::-1, ::-1],                     # every pair reversed
            pairs[rng.integers(0, len(pairs), len(pairs) // 2)] if len(pairs) else pairs,
            np.repeat(rng.integers(0, n, (3, 1)), 2, axis=1),  # self-loops
        ])
        pairs = pairs[rng.permutation(len(pairs))]
        assert_matches_reference(build_graph(pairs, n), pairs, n)
        assert_matches_reference(build_graph(pairs.tolist(), n), pairs, n)

    @pytest.mark.parametrize("pairs,n", [
        ([], 1), ([], 5), ([(0, 0)], 1), ([(0, 0), (0, 0)], 2), ([(1, 0)], 2),
        ([(0, 1), (1, 0), (0, 1)], 2), ([(3, 3), (2, 0)], 7), ([(4, 0), (0, 4), (4, 4)], 5),
    ])
    def test_small_cases(self, pairs, n):
        assert_matches_reference(build_graph(pairs, n), pairs, n)

    def test_many_nodes_few_edges(self):
        rng = np.random.default_rng(7)
        n = 1_000_003
        pairs = rng.integers(0, n, (500, 2))
        assert_matches_reference(build_graph(pairs, n), pairs, n)


class TestGoldenGraphs:
    """SHA-256 of (row_offsets, col_indices, degrees), recorded from the
    construction by np.unique and np.lexsort that the single key sort
    replaced: the graphs are bitwise those of that construction."""

    @pytest.mark.parametrize("n,p,seed,digest", [
        (30000, 1e-4, 83, "d12fe4471fccadc8fc3b32a51345dabea5dc0833c8a288c871a1d5fa2a377523"),
        (800, 4e-3, 0, "2283caaa0d12d0e812652b5a61a475e1e8564f7c0de283c5a69c54ccdf63fd5b"),
        (200, 0.05, 7, "1becfa77ff2934a6932a5705e70894d4657a469f36edae9c72be8cefd5d53cfc"),
        (60, 1.0, 0, "42bd78cdfad7bf394a5c3571818a0f1df741195223716d9cef0979628187c2c5"),
        (1, 0.5, 0, "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
        (5000, 1e-3, 1, "1af3ef3d6c2f0a5f8319adf172645ea746350ae09d003b796b7083e9ccb70a61"),
    ])
    def test_erdos_renyi(self, n, p, seed, digest):
        assert graph_digest(erdos_renyi(n, p, seed)) == digest

    @pytest.mark.parametrize("n,p,seed,digest", [
        (30000, 1e-4, 83, "513e0b8f4246e7692f57794f358cca8421756205e42e8ec7e224f33b5f318186"),
        (800, 4e-3, 0, "27ac291bde927288d77187a239253884614fa6b1f9529817e7bcc3a8c9ae5dc4"),
    ])
    def test_erdos_renyi_edge_list(self, n, p, seed, digest):
        # the hash perfbench keys its cached "er" input on, at the sizes it uses
        edges = erdos_renyi(n, p, seed).undirected_edges()
        assert hashlib.sha256(
            np.ascontiguousarray(edges, dtype=np.int64).tobytes()).hexdigest() == digest

    def test_drop_edges(self):
        g = drop_edges(erdos_renyi(5000, 1e-3, 1), 0.5, 3)
        assert graph_digest(g) == \
            "3439debb6a7f6d051447d58c9b982ff92fffa347f76fa8e249e24aea613cd1dd"

    def test_tiny_fixture(self):
        g = load_dataset(FIXTURES / "tiny").graph
        assert graph_digest(g) == \
            "6c31d947e3473620ccea80fc1380178e02b78138ea3afb199b9521c11482fe9d"


class TestNormalize:
    def test_single_edge_symmetric_half(self):
        g = build_graph([(0, 1)], 2)
        dense = normalize(g, 0.5).matrix.toarray()
        assert np.allclose(dense, 0.5)
        assert dense.shape == (2, 2)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
    def test_isolated_node_diagonal_one(self, r):
        g = build_graph([(0, 1)], 3)  # node 2 isolated
        adj = normalize(g, r)
        dense = adj.matrix.toarray()
        assert dense[2, 2] == 1.0
        assert dense[2, :2].sum() == 0.0

    def test_path_row_stochastic(self):
        # In the family Dtil^(r-1) (A+I) Dtil^(-r) the row-stochastic
        # (reverse transition) member is r = 0: entry (i, j) = 1/dtil_i.
        g = build_graph([(0, 1), (1, 2)], 3)
        dense = normalize(g, 0.0).matrix.toarray()
        assert np.allclose(dense[1], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_sums_one_at_r0(self, seed):
        g = random_graph(25, 80, seed)
        dense = normalize(g, 0.0).matrix.toarray()
        assert np.abs(dense.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 5])
    def test_symmetric_values_at_half(self, seed):
        g = random_graph(15, 40, seed)
        adj = normalize(g, 0.5)
        dense = adj.matrix.toarray()
        assert np.array_equal(dense, dense.T)

    def test_every_diagonal_present_and_values_positive(self):
        g = random_graph(18, 50, 7)
        adj = normalize(g, 0.3)
        assert (adj.matrix.data > 0.0).all()
        dense = adj.matrix.toarray()
        assert (np.diag(dense) > 0.0).all()

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1.0])
    def test_matches_dense_oracle(self, r):
        g = random_graph(24, 70, 11)
        assert np.abs(normalize(g, r).matrix.toarray() - dense_normalized(g, r)).max() < 1e-14

    @pytest.mark.parametrize("r", [-0.1, 1.5, 2.0])
    def test_r_out_of_range(self, r):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(ParameterError):
            normalize(g, r)
