import csv
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from dgmlp import DimensionError, ParameterError, SmoothnessProfile, ValidationError, \
    build_graph, combine, combine_streaming, compute_nsl, cosine_similarity, erdos_renyi, \
    matrix_nsl, normalize, nsl_streaming, propagate, propagation_pass, propagation_weights, \
    row_normalize, smoothness_profile, stationary_direction, stationary_features
import dgmlp
from dgmlp import data, propagation, smoothness
from dgmlp.graph import NormalizedAdjacency
from dgmlp.propagation import PropagatedStack
from dgmlp.smoothness import MIN_TEMPERATURE, write_gsl_csv, write_node_profile_csv

from conftest import linux_only, random_graph


class TestCosine:
    def test_identical(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_zero_norm_rule(self):
        assert cosine_similarity([0, 0], [3, 4]) == 0.0
        assert cosine_similarity([3, 4], [0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_similarity([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetry_and_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        lam = float(rng.uniform(0.1, 10.0))
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-15)
        assert cosine_similarity(lam * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-12)


class TestComputeNsl:
    def test_unsmoothed_orthogonal(self):
        # x^k = x^0 and stationary orthogonal to it -> nsl = 1 * (1 - 0) = 1
        x0 = np.array([[1.0, 0.0], [0.0, 2.0]])
        stat = np.array([[0.0, 1.0], [3.0, 0.0]])
        profile = compute_nsl(PropagatedStack((x0, x0.copy())), stat)
        assert np.allclose(profile.nsl[:, 1], 1.0)

    def test_fully_smoothed(self):
        # x^k = x^inf -> beta = 1 -> nsl = 0
        x0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        stat = np.array([[0.5, 0.5], [0.5, 0.5]])
        profile = compute_nsl(PropagatedStack((x0, stat.copy())), stat)
        assert np.allclose(profile.nsl[:, 1], 0.0)

    def test_two_node_hand_example(self):
        # one step reaches stationarity on the single-edge graph
        g = build_graph([(0, 1)], 2)
        stack = propagate(normalize(g, 0.5), np.eye(2), 1)
        stat = stationary_features(g, np.eye(2), 0.5)
        profile = compute_nsl(stack, stat)
        assert np.allclose(profile.nsl[:, 1], 0.0, atol=1e-15)
        # at k = 0, alpha = 1 so nsl = 1 - cos(x0, xinf) = 1 - sqrt(2)/2
        assert profile.nsl[0, 0] == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-15)

    def test_gsl_is_exact_mean(self):
        g = random_graph(20, 50, 0)
        x = np.random.default_rng(1).random((20, 4))
        stack = propagate(normalize(g, 0.5), x, 4)
        profile = compute_nsl(stack, stationary_features(g, x, 0.5))
        assert np.array_equal(profile.gsl, profile.nsl.mean(axis=0))

    def test_step0_identity(self):
        # alpha = 1 at k = 0, so nsl[:, 0] = 1 - cos(x0, xinf) exactly
        g = random_graph(15, 40, 2)
        x = np.random.default_rng(3).random((15, 4))
        stack = propagate(normalize(g, 0.5), x, 2)
        stat = stationary_features(g, x, 0.5)
        profile = compute_nsl(stack, stat)
        expected = np.array([1 - cosine_similarity(x[v], stat[v]) for v in range(15)])
        assert np.abs(profile.nsl[:, 0] - expected).max() < 1e-12

    def test_shape_mismatch(self):
        stack = PropagatedStack((np.zeros((3, 2)),))
        with pytest.raises(DimensionError):
            compute_nsl(stack, np.zeros((4, 2)))


class TestPropagationWeights:
    def _profile(self, nsl):
        nsl = np.asarray(nsl, dtype=np.float64)
        return SmoothnessProfile(nsl=nsl, gsl=nsl.mean(axis=0))

    def test_constant_rows_uniform(self):
        w = propagation_weights(self._profile([[0.4, 0.4, 0.4]]), 1.0)
        assert np.allclose(w, 1 / 3)
        w = propagation_weights(self._profile([[0.2, 0.2]]), 0.05)
        assert np.allclose(w, 0.5)

    def test_softmax_frozen_value(self):
        w = propagation_weights(self._profile([[1.0, 0.0]]), 1.0)
        e = np.e
        assert w[0, 0] == pytest.approx(e / (e + 1), abs=1e-12)   # 0.73106
        assert w[0, 1] == pytest.approx(1 / (e + 1), abs=1e-12)   # 0.26894

    def test_hard_temperature_one_hot(self):
        w = propagation_weights(self._profile([[0.9, 0.1, 0.1]]), 0.001)
        assert abs(w[0, 0] - 1.0) < 1e-6
        assert w[0, 1] < 1e-6 and w[0, 2] < 1e-6

    def test_bad_temperature(self):
        # below 2**-1021, nsl / T can overflow and the softmax turns NaN
        for t in (0.0, -1.0, 2.0 ** -1022, 1e-320, 5e-324, float("nan"), -np.inf):
            with pytest.raises(ParameterError, match=r"temperature must be >= 2\*\*-1021"):
                propagation_weights(self._profile([[1.0, 0.0]]), t)

    @pytest.mark.parametrize("t", [np.inf, float("inf")])
    def test_infinite_temperature_rejected(self, t):
        # T = inf is the uniform limit, but it cannot be written to strict JSON
        with pytest.raises(ParameterError, match="temperature must be .* and finite, got inf"):
            propagation_weights(self._profile([[1.0, 0.0]]), t)
        g = random_graph(12, 20, 0)
        x = np.random.default_rng(0).random((12, 3))
        with pytest.raises(ParameterError, match="and finite, got inf"):
            propagation_pass(g, x, k=2, r=0.5, temperature=t)

    def test_largest_finite_temperature_is_uniform(self):
        g = random_graph(12, 20, 1)
        x = np.random.default_rng(1).standard_normal((12, 3))
        walk = propagation_pass(g, x, k=4, r=0.5, temperature=np.finfo(np.float64).max)
        assert (walk.profile.weights == 0.2).all()

    def test_floor_temperature_gives_finite_weights(self):
        # |nsl| <= 2: at the floor each logit is within 2**1022, and each
        # difference from the row max within 2**1023
        assert MIN_TEMPERATURE == 2.0 ** -1021
        nsl = [[2.0, -2.0, 0.0, 1e-300], [-2.0, -2.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0],
               [-2.0, -1.0, 5e-324, -2.0]]
        w = propagation_weights(self._profile(nsl), MIN_TEMPERATURE)
        assert w.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5],
                              [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 1.0, 0.0]]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_sum_to_one(self, seed):
        nsl = np.random.default_rng(seed).random((50, 9))
        w = propagation_weights(self._profile(nsl), 0.7)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
        assert (w >= 0.0).all()

    def test_high_temperature_approaches_uniform(self):
        nsl = np.random.default_rng(2).random((10, 5))
        w = propagation_weights(self._profile(nsl), 1e8)
        assert np.abs(w - 0.2).max() < 1e-6

    def test_argmax_invariant_under_scaling(self):
        nsl = np.random.default_rng(3).random((20, 6))
        w1 = propagation_weights(self._profile(nsl), 0.01)
        w2 = propagation_weights(self._profile(3.7 * nsl), 0.01)
        assert np.array_equal(w1.argmax(axis=1), w2.argmax(axis=1))


class TestCombine:
    def _stack(self, seed, n=12, d=3, k=4):
        g = random_graph(n, 3 * n, seed)
        x = np.random.default_rng(seed + 10).random((n, d))
        return propagate(normalize(g, 0.5), x, k)

    def test_one_hot_selects_step(self):
        stack = self._stack(0)
        for j in range(stack.max_step + 1):
            w = np.zeros((stack.num_nodes, stack.max_step + 1))
            w[:, j] = 1.0
            assert np.array_equal(combine(stack, w), stack.steps[j])

    def test_k0_passthrough(self):
        x = np.random.default_rng(1).random((5, 3))
        stack = PropagatedStack((x,))
        assert np.array_equal(combine(stack, np.ones((5, 1))), x)

    def test_uniform_average(self):
        stack = self._stack(2, k=1)
        w = np.full((stack.num_nodes, 2), 0.5)
        expected = (stack.steps[0] + stack.steps[1]) / 2
        assert np.abs(combine(stack, w) - expected).max() < 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_convex_envelope(self, seed):
        stack = self._stack(seed)
        nsl = np.random.default_rng(seed).random((stack.num_nodes, stack.max_step + 1))
        w = propagation_weights(SmoothnessProfile(nsl=nsl, gsl=nsl.mean(0)), 0.5)
        out = combine(stack, w)
        cube = np.stack(stack.steps)  # (K+1, N, d)
        assert (out >= cube.min(axis=0) - 1e-12).all()
        assert (out <= cube.max(axis=0) + 1e-12).all()

    def test_shape_mismatch(self):
        stack = self._stack(3)
        with pytest.raises(DimensionError):
            combine(stack, np.ones((stack.num_nodes, stack.max_step + 3)))


class TestStreamingEquivalence:
    def test_nsl_streaming_matches_stack(self):
        g = random_graph(25, 70, 5)
        x = np.random.default_rng(6).random((25, 4))
        adj = normalize(g, 0.5)
        stat = stationary_features(g, x, 0.5)
        stacked = compute_nsl(propagate(adj, x, 6), stat)
        streamed = nsl_streaming(adj, x, stat, 6)
        assert np.array_equal(stacked.nsl, streamed.nsl)
        assert np.array_equal(stacked.gsl, streamed.gsl)

    def test_combine_streaming_holds_three_arrays(self):
        # out and the walk's two step buffers: the per-step product is
        # accumulated in place, so no fourth N x d array is alive
        graph = erdos_renyi(5000, 1e-3, 2)
        x = np.random.default_rng(2).random((5000, 64))
        weights = np.full((5000, 11), 1.0 / 11)
        adj = normalize(graph, 0.5)
        tracemalloc.start()
        try:
            combine_streaming(adj, x, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3 * x.nbytes <= peak < 3.5 * x.nbytes

    def test_combine_streaming_matches_stack(self):
        g = random_graph(25, 70, 7)
        x = np.random.default_rng(8).random((25, 4))
        adj = normalize(g, 0.5)
        stack = propagate(adj, x, 6)
        stat = stationary_features(g, x, 0.5)
        profile = smoothness_profile(stack, stat, 0.5)
        assert np.array_equal(
            combine(stack, profile.weights),
            combine_streaming(adj, x, profile.weights),
        )


@st.composite
def graphs_with_features(draw):
    """Small graphs (isolated nodes and several components are common) with
    signed, dyadic features and some all-zero rows."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    d = draw(st.integers(1, 4))
    x = draw(arrays(np.int64, (n, d), elements=st.integers(-4, 4))) / 4.0
    x[draw(arrays(np.bool_, n))] = 0.0
    return build_graph(pairs, n), x


def max_rel_error(got, oracle) -> float:
    """max |got - oracle| / max |oracle|; 0 when both are all zero."""
    err = float(np.abs(got - oracle).max())
    scale = float(np.abs(oracle).max())
    return err / scale if scale > 0.0 else err


# nsl and GSL are cosine products, bounded by 2, and are compared
# absolutely; the combined features relative to their largest entry.
ORACLE_TOL = 1e-12


def check_against_stack(graph, x, k, r, temperature):
    """The pass with every cap against compute_nsl and combine on the stored
    stack, within ORACLE_TOL."""
    adj = normalize(graph, r)
    stack = propagate(adj, x, k)
    stat = stationary_features(graph, x, r)
    oracle = compute_nsl(stack, stat)
    walk = propagation_pass(graph, x, k=k, r=r, temperature=temperature,
                            caps=range(k + 1))
    profile = walk.profile

    assert np.abs(profile.nsl - oracle.nsl).max() <= ORACLE_TOL
    assert np.abs(profile.gsl - oracle.gsl).max() <= ORACLE_TOL
    weights = propagation_weights(profile, temperature)
    assert np.array_equal(profile.weights, weights)
    assert profile.temperature == temperature
    combined = combine(stack, propagation_weights(oracle, temperature))
    assert max_rel_error(walk.combined, combined) <= ORACLE_TOL

    # each cap's combined GSL against truncate-then-combine
    for cap in range(k + 1):
        truncated = SmoothnessProfile(nsl=oracle.nsl[:, :cap + 1],
                                      gsl=oracle.gsl[:cap + 1])
        m = combine(PropagatedStack(stack.steps[:cap + 1]),
                    propagation_weights(truncated, temperature))
        assert abs(walk.cap_gsl[cap] - matrix_nsl(m, x, stat).mean()) <= ORACLE_TOL
    assert walk.cap_gsl[0] == profile.gsl[0]

    for values in (profile.nsl, profile.gsl, profile.weights, walk.combined,
                   list(walk.cap_gsl.values())):
        assert np.isfinite(values).all()


class TestPropagationPass:
    @settings(max_examples=300)
    @given(case=graphs_with_features(), k=st.integers(0, 6),
           r=st.sampled_from([0.0, 0.5, 1.0]),
           temperature=st.sampled_from([1e-3, 0.2, 1.0]))
    def test_matches_stack_oracle(self, case, k, r, temperature):
        graph, x = case
        check_against_stack(graph, x, k, r, temperature)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("temperature", [1e-3, 0.2, 1.0])
    def test_zero_stationary_direction(self, r, temperature):
        # two mirrored components; each feature column holds one value and
        # its negation at mirrored nodes, so s = 0 exactly for every r
        g = random_graph(6, 10, 4)
        edges = g.undirected_edges()
        mirrored = build_graph(np.concatenate([edges, edges + 6]), 12)
        x = np.zeros((12, 3))
        for col, (node, value) in enumerate([(0, 1.3), (2, -0.7), (5, 2.1)]):
            x[node, col], x[node + 6, col] = value, -value
        assert not stationary_direction(mirrored, x, r).any()
        check_against_stack(mirrored, x, 5, r, temperature)

    def test_row_cancelled_to_a_rounding_residue(self):
        # node 3's step-1 row is exactly 0 in exact arithmetic but a residue
        # of about 1e-17 in floating point: its cosines must come from the
        # residue itself, as the stack oracle's do
        edges = [(1, 2), (1, 3), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 5)]
        graph = build_graph(edges, 8)
        x = np.array([[-1.0], [0.0], [0.25], [-0.75], [0.25], [0.25], [0.0], [0.5]])
        step1 = normalize(graph, 0.0).matrix @ x
        assert 0.0 < abs(step1[3, 0]) < 1e-16
        check_against_stack(graph, x, 8, 0.0, 1.0)

    def test_stationary_features_are_multiples_of_direction(self):
        g = random_graph(15, 30, 6)
        x = np.random.default_rng(7).standard_normal((15, 4))
        s = stationary_direction(g, x, 0.5)
        dtil = g.degrees + 1.0
        expected = np.outer(dtil ** 0.5, s) / (2 * g.num_edges + g.num_nodes)
        assert np.array_equal(stationary_features(g, x, 0.5), expected)

    def test_bad_arguments(self):
        g = random_graph(5, 6, 0)
        x = np.ones((5, 2))
        for t in (0.0, 1e-320):
            with pytest.raises(ParameterError, match="temperature"):
                propagation_pass(g, x, k=2, r=0.5, temperature=t)
        with pytest.raises(ParameterError, match="cap 3"):
            propagation_pass(g, x, k=2, r=0.5, temperature=1.0, caps=[0, 3])
        with pytest.raises(ParameterError):
            propagation_pass(g, x, k=-3, r=0.5, temperature=1.0)
        with pytest.raises(DimensionError):
            propagation_pass(g, np.ones((4, 2)), k=2, r=0.5, temperature=1.0)


    @pytest.mark.parametrize("rows", [None, [0, 3, 7]])
    def test_floor_temperature_is_finite(self, rows):
        # signed rows: nsl spans most of [-2, 2]
        g = random_graph(12, 20, 4)
        x = np.random.default_rng(4).standard_normal((12, 3))
        walk = propagation_pass(g, x, k=4, r=0.5, temperature=MIN_TEMPERATURE, rows=rows)
        w = walk.profile.weights
        assert np.isfinite(w).all() and np.abs(w.sum(axis=1) - 1.0).max() < 1e-15
        assert np.isfinite(walk.combined).all()


def sequential_pass(graph, x, k, r, temperature, caps=()):
    """Reference walk: each step's spmm (a plain adj.matrix @ x), scoring and
    fold one after another, on whole matrices; x.s and acc.s are read from
    the rows. Returns (nsl, gsl, combined, cap_gsl)."""
    adj = normalize(graph, r)
    s = stationary_direction(graph, x, r)
    x0, x0_sq = x, np.einsum("ij,ij->i", x, x)
    nsl_of = smoothness._rank_one_nsl(x0_sq, s)
    nsl = np.empty((x.shape[0], k + 1))
    gsl = np.empty(k + 1)
    cap_gsl = {}
    for step in range(k + 1):
        if step:
            x = adj.matrix @ x
            level = nsl_of(np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", x, x0),
                           np.einsum("ij,j->i", x, s))
        else:
            level = nsl_of(x0_sq, x0_sq, np.einsum("ij,j->i", x, s))
        nsl[:, step] = level
        gsl[step] = level.mean()
        logit = level / temperature
        if step == 0:
            m, acc, z = logit, x.copy(), np.ones(x.shape[0])
        else:
            rise = logit > m
            rescale = np.exp(m[rise] - logit[rise])
            acc[rise] *= rescale[:, None]
            z[rise] *= rescale
            m = np.maximum(m, logit)
            e = np.exp(logit - m)
            acc += e[:, None] * x
            z += e
        if step in caps:
            cap_gsl[step] = float(nsl_of(np.einsum("ij,ij->i", acc, acc),
                                         np.einsum("ij,ij->i", acc, x0),
                                         np.einsum("ij,j->i", acc, s)).mean())
    acc /= z[:, None]
    return nsl, gsl, acc, cap_gsl


def assert_pass_equals_sequential(graph, x, k, r, temperature, caps=()):
    walk = propagation_pass(graph, x, k=k, r=r, temperature=temperature, caps=caps)
    nsl, gsl, combined, cap_gsl = sequential_pass(graph, x, k, r, temperature, caps)
    for got, want in [(walk.profile.nsl, nsl), (walk.profile.gsl, gsl),
                      (walk.combined, combined)]:
        assert got.tobytes() == want.tobytes()
    assert walk.profile.weights.tobytes() == \
        propagation_weights(SmoothnessProfile(nsl=nsl, gsl=gsl), temperature).tobytes()
    assert walk.cap_gsl == cap_gsl


def signed_case(n=40, pairs=50, d=5, seed=0, isolated=8):
    """A random graph whose last `isolated` nodes have no edge, with signed
    features and some zero rows, so running maxima rise at small T."""
    g = random_graph(n - isolated, pairs, seed)
    g = build_graph(g.undirected_edges(), n)
    x = np.random.default_rng(seed).standard_normal((n, d))
    x[::7] = 0.0
    return g, x


def small_blocks(monkeypatch, shards):
    """`shards` shards and fold blocks of 99 rows of 12-wide features: small
    graphs then span several blocks and shards."""
    monkeypatch.setattr(smoothness, "_num_shards", lambda: shards)
    monkeypatch.setattr(smoothness, "_BLOCK_VALUES", 99 * 12)
    monkeypatch.setattr(propagation, "_num_shards", lambda: shards)


class TestPipelinedPass:
    """propagation_pass splits each step's spmm and its scoring and fold
    over row shards, with the bits of the sequential walk."""

    @pytest.mark.parametrize("k", [0, 1, 2, 7])
    @pytest.mark.parametrize("temperature", [1e-3, 0.2, 1.0])
    @pytest.mark.parametrize("caps", [(), "all"])
    def test_bitwise_equals_sequential_walk(self, k, temperature, caps):
        graph, x = signed_case(seed=k)
        caps = range(k + 1) if caps == "all" else caps
        assert_pass_equals_sequential(graph, x, k, 0.5, temperature, caps)

    @settings(max_examples=150)
    @given(case=graphs_with_features(), k=st.integers(0, 6),
           r=st.sampled_from([0.0, 0.5, 1.0]),
           temperature=st.sampled_from([1e-3, 0.2, 1.0]))
    def test_bitwise_equals_sequential_walk_on_small_graphs(self, case, k, r, temperature):
        graph, x = case
        assert_pass_equals_sequential(graph, x, k, r, temperature, range(k + 1))

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [50, 301, 517])
    def test_bitwise_independent_of_shard_count(self, monkeypatch, shards, n):
        # 99-row blocks: 1, 4 and 6 of them, so 7 shards are more than
        # there are blocks
        small_blocks(monkeypatch, shards)
        graph, x = signed_case(n=n, pairs=2 * n, d=12, seed=n, isolated=n // 10)
        assert_pass_equals_sequential(graph, x, 6, 0.5, 1e-3, (0, 3, 6))

    @pytest.mark.parametrize("fail_at", [1, 3, 6])
    def test_spmm_failure_reraised_and_worker_joined(self, monkeypatch, fail_at):
        small_blocks(monkeypatch, 3)
        graph, x = signed_case(n=300, pairs=600, d=12)
        boom = RuntimeError("spmm failed")
        callers = []
        real_spmm = propagation.spmm

        def failing_spmm(adj, cur, out=None):
            callers.append(threading.current_thread())
            if len(callers) == fail_at:
                raise boom
            return real_spmm(adj, cur, out=out)

        monkeypatch.setattr(propagation, "spmm", failing_spmm)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            propagation_pass(graph, x, k=6, r=0.5, temperature=0.2, caps=[2, 6])
        assert info.value is boom
        assert threading.active_count() == before
        assert callers == [threading.current_thread()] * fail_at

    @pytest.mark.parametrize("fail_at", [1, 3, 7])
    def test_fold_failure_reraised_after_spmm_and_worker_joined(self, monkeypatch,
                                                                fail_at):
        # 99-row blocks on 300 rows: shard 2 holds rows 198..299, and its
        # second block (rows 297..299) of step fail_at - 1 fails
        small_blocks(monkeypatch, 3)
        graph, x = signed_case(n=300, pairs=600, d=12)
        boom = RuntimeError("scoring failed")
        spmm_calls = {"started": 0, "finished": 0}
        scorers, failed_on = [], []
        real_spmm, real_rank_one = propagation.spmm, smoothness._rank_one_nsl

        def counted_spmm(adj, cur, out=None):
            spmm_calls["started"] += 1
            out = real_spmm(adj, cur, out=out)
            spmm_calls["finished"] += 1
            return out

        def failing_rank_one(x0_sq, s):
            nsl_of = real_rank_one(x0_sq, s)

            def nsl(xx, xx0, xs, rows=slice(None)):
                scorers.append(threading.current_thread())
                if rows.start >= 297 and len(scorers) > 4 * (fail_at - 1):
                    failed_on.append(threading.current_thread())
                    raise boom
                return nsl_of(xx, xx0, xs, rows)
            return nsl

        monkeypatch.setattr(propagation, "spmm", counted_spmm)
        monkeypatch.setattr(smoothness, "_rank_one_nsl", failing_rank_one)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            propagation_pass(graph, x, k=6, r=0.5, temperature=1.0)
        assert info.value is boom
        # every spmm up to the failing step ran to its end, none after it
        expected = fail_at - 1
        assert spmm_calls == {"started": expected, "finished": expected}
        assert threading.active_count() == before
        assert threading.current_thread() in scorers
        assert len(failed_on) == 1 and failed_on[0] is not threading.current_thread()

    def test_fortran_order_features(self):
        graph, x = signed_case(seed=3)
        want = propagation_pass(graph, x, k=5, r=0.5, temperature=0.2, caps=(0, 5))
        got = propagation_pass(graph, np.asfortranarray(x), k=5, r=0.5,
                               temperature=0.2, caps=(0, 5))
        for a, b in [(got.profile.nsl, want.profile.nsl), (got.combined, want.combined)]:
            assert a.tobytes() == b.tobytes()
        assert got.cap_gsl == want.cap_gsl

    def test_steps_alternate_between_two_buffers(self, monkeypatch):
        # spmm writes x_{j+1} into the buffer that held x_{j-1}: two N x d
        # buffers serve every step, and none is x0 or the step being read
        graph, x = signed_case()
        real_spmm = propagation.spmm
        outs = []

        def checking_spmm(adj, cur, out=None):
            assert out is not None and out is not cur and out is not x
            outs.append(out)
            return real_spmm(adj, cur, out=out)

        monkeypatch.setattr(propagation, "spmm", checking_spmm)
        propagation_pass(graph, x, k=8, r=0.5, temperature=1.0, caps=(4,))
        assert len(outs) == 8 and outs[0] is not outs[1]
        assert all(a is b for a, b in zip(outs, outs[2:]))
        assert all(out.shape == x.shape for out in outs)

    def test_adjacency_read_only_by_spmm(self, monkeypatch):
        # the pass makes no product with adj.matrix of its own: the walk's
        # spmm, once a step, is its only read of the adjacency
        class NoProduct(sparse.csr_matrix):
            def __matmul__(self, other):
                raise AssertionError("adj.matrix @ v outside spmm")

        real_normalize, real_spmm = smoothness.normalize, propagation.spmm
        calls = []

        def guarded_normalize(graph, r):
            adj = real_normalize(graph, r)
            return NormalizedAdjacency(adj.num_nodes, NoProduct(adj.matrix))

        def counted_spmm(adj, cur, out=None):
            calls.append(adj)
            return real_spmm(adj, cur, out=out)

        monkeypatch.setattr(smoothness, "normalize", guarded_normalize)
        monkeypatch.setattr(propagation, "spmm", counted_spmm)
        graph, x = signed_case()
        with pytest.raises(AssertionError, match="outside spmm"):
            guarded_normalize(graph, 0.5).matrix @ x[:, 0]
        for extra in ({"rows": [0, 5, 17]}, {"caps": (0, 3, 6)}):
            calls.clear()
            propagation_pass(graph, x, k=6, r=0.5, temperature=0.2, **extra)
            assert len(calls) == 6
            assert all(isinstance(adj.matrix, NoProduct) for adj in calls)

    def test_concurrent_calls_stay_independent(self, monkeypatch):
        # more threads than cores, each call on three shards, and a short
        # switch interval: each call still matches its own sequential walk
        # bit for bit
        small_blocks(monkeypatch, 3)
        cases = [signed_case(n=300, pairs=600, d=12, seed=s) for s in range(4)]
        failures = []

        def run(case):
            try:
                assert_pass_equals_sequential(*case, 9, 0.5, 1e-3, (0, 4, 9))
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(c,)) for c in cases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_traced_peak_within_sequential_walk(self):
        # at most x0, acc, x_k and x_{k+1} are alive at once; keeping one
        # more N x d step (as a generator's consumer would) breaks the bound.
        # The fold has no N x d scratch; the slack covers a few N-vectors
        # and each fold block's row vectors.
        graph = erdos_renyi(20_000, 2e-4, 3)
        x = np.random.default_rng(3).random((20_000, 64))
        slack = 8 * 8 * x.shape[0]
        assert x.nbytes > 2 * slack

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        want = peak(lambda: sequential_pass(graph, x, 6, 0.5, 1.0, (3,)))
        got = peak(lambda: propagation_pass(graph, x, k=6, r=0.5, temperature=1.0,
                                            caps=(3,)))
        assert got <= want + slack


def assert_rows_match_full_pass(graph, x, k, r, temperature, rows):
    """The pass with rows keeps exactly those rows of the whole combination,
    bit for bit, and the same complete profile."""
    full = propagation_pass(graph, x, k=k, r=r, temperature=temperature)
    walk = propagation_pass(graph, x, k=k, r=r, temperature=temperature, rows=rows)
    assert walk.combined.shape == (len(rows), x.shape[1])
    assert walk.combined.tobytes() == full.combined[np.asarray(rows, dtype=np.int64)].tobytes()
    for got, want in [(walk.profile.nsl, full.profile.nsl), (walk.profile.gsl, full.profile.gsl),
                      (walk.profile.weights, full.profile.weights)]:
        assert got.tobytes() == want.tobytes()
    assert walk.profile.temperature == full.profile.temperature
    assert walk.cap_gsl == {}


def row_choices(n, seed):
    """No row, one row, every row and a random subset of n nodes."""
    subset = np.sort(np.random.default_rng(seed).choice(n, n // 3, replace=False))
    return [np.array([], dtype=np.int64), [n - 1], np.arange(n), subset]


class TestPassRows:
    """propagation_pass(rows=...) accumulates only the picked rows."""

    @pytest.mark.parametrize("k", [0, 1, 7])
    @pytest.mark.parametrize("temperature", [1e-3, 1.0])
    def test_rows_of_the_whole_combination(self, k, temperature):
        # signed features, zero rows and isolated nodes
        graph, x = signed_case(seed=k)
        for rows in row_choices(x.shape[0], k):
            assert_rows_match_full_pass(graph, x, k, 0.5, temperature, rows)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_rows_across_blocks_and_shards(self, monkeypatch, shards):
        # 99-row blocks on 517 rows: picked rows in every block, and blocks
        # that pick none
        small_blocks(monkeypatch, shards)
        graph, x = signed_case(n=517, pairs=1000, d=12, seed=2, isolated=50)
        sparse = np.array([0, 98, 99, 300, 516])
        for rows in row_choices(517, 3) + [sparse]:
            assert_rows_match_full_pass(graph, x, 6, 0.5, 1e-3, rows)

    def test_row_cancelled_to_a_rounding_residue(self):
        # the graph of TestPropagationPass's case: node 3's step-1 row is a
        # rounding residue
        edges = [(1, 2), (1, 3), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 5)]
        graph = build_graph(edges, 8)
        x = np.array([[-1.0], [0.0], [0.25], [-0.75], [0.25], [0.25], [0.0], [0.5]])
        for rows in ([3], [0, 3, 7], range(8)):
            assert_rows_match_full_pass(graph, x, 8, 0.0, 1.0, rows)

    @settings(max_examples=100)
    @given(case=graphs_with_features(), k=st.integers(0, 6),
           r=st.sampled_from([0.0, 0.5, 1.0]),
           temperature=st.sampled_from([1e-3, 0.2, 1.0]), data=st.data())
    def test_rows_on_small_graphs(self, case, k, r, temperature, data):
        graph, x = case
        rows = data.draw(st.sets(st.integers(0, x.shape[0] - 1)).map(sorted))
        assert_rows_match_full_pass(graph, x, k, r, temperature, rows)

    @pytest.mark.parametrize("rows, caps, match", [
        ([3, 1], (), "sorted"),
        ([1, 1, 2], (), "sorted"),
        ([-1, 2], (), r"lie in \[0, 2000\)"),
        ([5, 2000], (), r"lie in \[0, 2000\)"),
        ([0.0, 1.0], (), "node ids"),
        ([True, False], (), "node ids"),
        ([[0, 1]], (), "node ids"),
        ([0, 1], [0], "exclusive"),
    ])
    def test_bad_rows_raise_before_any_feature_sized_array(self, rows, caps, match):
        # float32 features: the walk's checks would make a float64 copy, so
        # the traced peak shows whether rows were checked first
        graph = erdos_renyi(2000, 2e-3, 1)
        x = np.random.default_rng(1).random((2000, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=match):
                propagation_pass(graph, x, k=3, r=0.5, temperature=1.0, caps=caps,
                                 rows=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes

    def test_traced_peak_holds_no_whole_accumulator(self):
        # x0 (made before tracing), the walk's two step buffers and a
        # len(rows) x d accumulator; the whole-matrix pass holds a third
        # N x d array. The slack covers the N-vectors, nsl and the adjacency.
        graph = erdos_renyi(20_000, 2e-4, 3)
        x = np.random.default_rng(3).random((20_000, 64))
        rows = np.sort(np.random.default_rng(4).choice(20_000, 1500, replace=False))
        slack = 32 * 8 * x.shape[0]
        assert x.nbytes > slack

        def peak(rows):
            tracemalloc.start()
            try:
                propagation_pass(graph, x, k=6, r=0.5, temperature=1.0, rows=rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(None) >= 3 * x.nbytes
        assert peak(rows) <= 2 * x.nbytes + rows.size * x.shape[1] * 8 + slack


def extreme_rows(seed, n=40, d=5):
    """signed_case's graph and features, with rows that are zero, all -0.0,
    subnormal, tiny, large, and of an L1 norm within a factor d of
    DBL_MAX (its squares overflow, so row_divisor takes its L2 norm from
    the scaled row)."""
    g, x = signed_case(n=n, d=d, seed=seed)
    big = np.finfo(np.float64).max / d
    x[1] = -0.0
    x[2] = [5e-324, -1e-323, 1.5e-323, 0.0, -5e-324]
    x[3] = [0.9 * big, -0.5 * big, 0.7 * big, 0.0, 0.99 * big]
    x[4] = [1e-300, -3e-301, 0.0, 0.0, 7e-302]
    x[5] = [3e150, -2e150, 1e149, 0.0, 5e150]
    x[6] = [-2.0, 1.5, -0.25, 1e-3, 0.5]
    return g, x


def hub_of_large_rows(leaves=6, d=3):
    """A star whose rows all have an L1 norm near DBL_MAX: at r = 1 the hub's
    step rows grow to about leaves / 2 times the normalized rows."""
    g = build_graph([(0, leaf) for leaf in range(1, leaves + 1)], leaves + 1)
    big = np.finfo(np.float64).max / d
    x = np.tile([0.9 * big, 0.05 * big, -0.04 * big], (leaves + 1, 1))
    return g, x


class TestDivisorWalk:
    """The pass on features divided by their row divisors (row_normalize,
    as the loader applies --feature-norm) from extreme rows, against the
    stack oracle at ORACLE_TOL."""

    @pytest.mark.parametrize("mode", ["l1", "l2"])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("temperature", [1e-3, 1.0])
    def test_extreme_rows_with_caps(self, mode, k, r, temperature):
        graph, x = extreme_rows(seed=k)
        check_against_stack(graph, row_normalize(x, mode), k, r, temperature)

    @pytest.mark.parametrize("mode", ["l1", "l2"])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_extreme_rows_with_rows(self, mode, k):
        graph, x = extreme_rows(seed=k + 10)
        x = row_normalize(x, mode)
        check_against_stack(graph, x, k, 0.5, 0.2)
        for rows in row_choices(x.shape[0], k) + [np.arange(1, 7)]:
            assert_rows_match_full_pass(graph, x, k, 0.5, 0.2, rows)

    @pytest.mark.parametrize("mode", ["l1", "l2"])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    def test_no_overflow_where_the_divided_rows_have_none(self, mode, r):
        graph, x = hub_of_large_rows()
        check_against_stack(graph, row_normalize(x, mode), 5, r, 0.2)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_across_blocks_and_shards(self, monkeypatch, shards):
        small_blocks(monkeypatch, shards)
        graph, x = signed_case(n=517, pairs=1000, d=12, seed=6, isolated=50)
        x[100] = 1e-318
        x[300, :6] = np.finfo(np.float64).max / 20
        for mode in ("l1", "l2"):
            divided = row_normalize(x, mode)
            check_against_stack(graph, divided, 6, 0.5, 1e-3)
            assert_pass_equals_sequential(graph, divided, 6, 0.5, 1e-3, (0, 3, 6))
            assert_rows_match_full_pass(graph, divided, 6, 0.5, 1e-3,
                                        [0, 98, 99, 100, 300, 516])

    @settings(max_examples=100)
    @given(case=graphs_with_features(), k=st.integers(0, 6),
           r=st.sampled_from([0.0, 0.5, 1.0]), mode=st.sampled_from(["l1", "l2"]),
           temperature=st.sampled_from([1e-3, 0.2, 1.0]))
    def test_small_graphs(self, case, k, r, mode, temperature):
        graph, x = case
        check_against_stack(graph, row_normalize(x, mode), k, r, temperature)

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_no_divisor_bitwise_equals_sequential_walk(self, k):
        graph, x = signed_case(seed=k)
        walk = propagation_pass(graph, x, k=k, r=0.5, temperature=0.2,
                                caps=range(k + 1))
        nsl, gsl, combined, cap_gsl = sequential_pass(graph, x, k, 0.5, 0.2, range(k + 1))
        for got, want in [(walk.profile.nsl, nsl), (walk.profile.gsl, gsl),
                          (walk.combined, combined)]:
            assert got.tobytes() == want.tobytes()
        assert walk.cap_gsl == cap_gsl

    @pytest.mark.parametrize("caps", [(), (0, 2, 3)])
    @pytest.mark.parametrize("case", ["one huge row", "every row large"])
    def test_undivided_overflow_raises(self, caps, case):
        # x.x of a row with entries above about 1.3e154 overflows, and so
        # does s.s when many rows sum past it; either once made the nsl NaN
        # with no error
        graph = erdos_renyi(30, 0.2, 1)
        x = np.random.default_rng(2).random((30, 3))
        if case == "one huge row":
            x[4] = [1e200, 2e200, 0.0]
        else:
            x *= 1e153
        with pytest.raises(ValidationError, match=r"overflow.*--feature-norm l1\|l2"):
            propagation_pass(graph, x, k=3, r=0.5, temperature=1.0, caps=caps)
        for mode in ("l1", "l2"):  # the divided rows do not overflow
            walk = propagation_pass(graph, row_normalize(x, mode), k=3, r=0.5,
                                    temperature=1.0, caps=caps)
            assert np.isfinite(walk.profile.nsl).all() and np.isfinite(walk.combined).all()


# Runs the pass on a 1502 x 500 input with K = 6 and caps 0, 3, 6, and
# prints the sha256 of nsl, gsl, weights, combined and cap_gsl.
PASS_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from dgmlp import erdos_renyi, propagation_pass
x = np.random.default_rng(5).standard_normal((1502, 500))
x[::7] = 0.0
walk = propagation_pass(erdos_renyi(1502, 4e-3, 5), x, k=6, r=0.5,
                        temperature=0.2, caps=(0, 3, 6))
digest = hashlib.sha256()
for values in (walk.profile.nsl, walk.profile.gsl, walk.profile.weights,
               walk.combined, np.array([walk.cap_gsl[c] for c in (0, 3, 6)])):
    digest.update(values.tobytes())
print(digest.hexdigest())
"""


def pass_digest_at_blas_threads(threads: int, src=Path(dgmlp.__file__).parents[1]) -> str:
    """PASS_DIGEST_SCRIPT's digest in a child Python whose BLAS runs on
    `threads` threads (set before numpy loads), importing dgmlp from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-c", PASS_DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestBlasThreads:
    def test_pass_bits_independent_of_blas_thread_count(self):
        # the pass makes no BLAS call, so a threaded BLAS cannot split a
        # product at another row and change its bits
        assert pass_digest_at_blas_threads(1) == pass_digest_at_blas_threads(2)


class TestMatrixNsl:
    def test_matches_per_step_nsl(self):
        g = random_graph(18, 44, 9)
        x = np.random.default_rng(10).random((18, 5))
        adj = normalize(g, 0.5)
        stack = propagate(adj, x, 3)
        stat = stationary_features(g, x, 0.5)
        profile = compute_nsl(stack, stat)
        for k, xk in enumerate(stack.steps):
            assert np.array_equal(matrix_nsl(xk, x, stat), profile.nsl[:, k])


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        g = random_graph(6, 12, 0)
        x = np.random.default_rng(0).random((6, 3))
        stack = propagate(normalize(g, 0.5), x, 2)
        profile = smoothness_profile(stack, stationary_features(g, x, 0.5), 1.0)

        node_csv = tmp_path / "profile.csv"
        gsl_csv = tmp_path / "gsl.csv"
        write_node_profile_csv(profile, node_csv)
        write_gsl_csv(profile, gsl_csv)

        with open(node_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 * 3
        for row in rows:
            v, k = int(row["node_id"]), int(row["step"])
            assert float(row["nsl"]) == profile.nsl[v, k]
            assert float(row["weight"]) == profile.weights[v, k]

        with open(gsl_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["gsl"]) for r in rows] == list(profile.gsl)

    @staticmethod
    def odd_profile() -> SmoothnessProfile:
        nsl = np.array([[0.0, -0.0, 5e-324], [1e300, -2.5e-310, 1 / 3], [-1.5, 2.0, 0.25]])
        weights = np.array([[-0.0, 1e300, 0.1], [np.nextafter(0, 1), 0.5, -1e-300],
                            [1.0, 0.0, 1e-5]])
        return SmoothnessProfile(nsl=nsl, gsl=nsl.mean(axis=0), weights=weights)

    @staticmethod
    def csv_writer_bytes(profile: SmoothnessProfile, path) -> bytes:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", "step", "nsl", "weight"])
            for v, k in np.ndindex(profile.nsl.shape):
                writer.writerow([v, k, repr(float(profile.nsl[v, k])),
                                 repr(float(profile.weights[v, k]))])
        return Path(path).read_bytes()

    @pytest.mark.parametrize("block_rows", [1 << 16, 6, 1])  # blocks of 3, 2 and 1 nodes
    def test_node_profile_bytes_match_csv_writer(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(smoothness, "_CSV_BLOCK_ROWS", block_rows)
        profile = self.odd_profile()
        write_node_profile_csv(profile, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == \
            self.csv_writer_bytes(profile, tmp_path / "ref.csv")

    @linux_only
    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("block_rows", [1 << 16, 6, 1])
    def test_workers_write_the_same_bytes(self, tmp_path, monkeypatch, no_worker_left, forks,
                                          block_rows, shards):
        monkeypatch.setattr(smoothness, "_CSV_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(smoothness, "_CSV_MIN_PART_ROWS", 1)
        monkeypatch.setattr(data, "_num_shards", lambda: shards)
        profile = self.odd_profile()
        write_node_profile_csv(profile, tmp_path / "out.csv")
        assert len(forks) == shards - 1  # part 0 is written here
        assert (tmp_path / "out.csv").read_bytes() == \
            self.csv_writer_bytes(profile, tmp_path / "ref.csv")

    @linux_only
    @pytest.mark.parametrize("how", ["raise", "exit", "kill"])
    def test_failed_worker_writes_in_this_process(self, tmp_path, monkeypatch,
                                                  no_worker_left, how):
        monkeypatch.setattr(smoothness, "_CSV_MIN_PART_ROWS", 1)
        monkeypatch.setattr(smoothness, "_CSV_BLOCK_ROWS", 1)
        monkeypatch.setattr(data, "_num_shards", lambda: 3)
        parent, profile_rows, in_process = os.getpid(), smoothness._profile_rows, []

        def failing(profile, lo, hi):
            rows = profile_rows(profile, lo, hi)
            if os.getpid() == parent:
                in_process.append((lo, hi))
            elif lo == 1:  # the middle part's worker (one node each) fails after a row
                yield next(rows)  # reaches its memfd when the raise closes the file
                if how == "raise":
                    raise MemoryError
                if how == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            yield from rows

        monkeypatch.setattr(smoothness, "_profile_rows", failing)
        profile = self.odd_profile()
        write_node_profile_csv(profile, tmp_path / "out.csv")
        assert in_process == [(0, 1), (1, 2)]  # part 0, then the failed part alone
        assert (tmp_path / "out.csv").read_bytes() == \
            self.csv_writer_bytes(profile, tmp_path / "ref.csv")

    def test_small_profiles_never_fork(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(data, "_num_shards", lambda: 2)
        monkeypatch.setattr(smoothness, "_CSV_MIN_PART_ROWS", 5)
        write_node_profile_csv(self.odd_profile(), tmp_path / "out.csv")  # 9 rows < 2 * 5
        assert forks == []

    def test_export_requires_weights(self, tmp_path):
        profile = SmoothnessProfile(nsl=np.zeros((2, 2)), gsl=np.zeros(2))
        with pytest.raises(ParameterError):
            write_node_profile_csv(profile, tmp_path / "x.csv")
