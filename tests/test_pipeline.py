"""End-to-end behavior on synthetic graphs: the pipeline must actually use
graph structure, and the smoothness machinery must show the documented
qualitative trends (these mirror the dataset-bound acceptance criteria at
desk scale)."""

import numpy as np
import pytest

from dgmlp import Splits, build_graph, erdos_renyi, normalize, nsl_streaming, \
    propagation_weights, stationary_features
from dgmlp.runner import RunConfig, _propagated_step, _train_on, prepare_combined
from dgmlp.smoothness import combine_streaming, matrix_nsl


def sbm(n_per: int, k: int, p_in: float, p_out: float, seed: int):
    """Planted-partition graph with k equal communities."""
    rng = np.random.default_rng(seed)
    n = n_per * k
    comm = np.repeat(np.arange(k), n_per)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < (p_in if comm[i] == comm[j] else p_out):
                edges.append((i, j))
    return build_graph(edges, n), comm


def noisy_features(labels, dim, noise, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((labels.size, dim)) * noise
    for c in range(labels.max() + 1):
        x[labels == c, c] += 1.0
    return x


@pytest.fixture(scope="module")
def community_graph():
    g, y = sbm(60, 3, 0.08, 0.004, seed=0)
    x = noisy_features(y, 16, noise=3.0, seed=1)
    return g, y, x


@pytest.fixture(scope="module")
def hub_graph():
    # sparse background plus a few hubs -> heavy-tailed degrees
    rng = np.random.default_rng(0)
    base = erdos_renyi(300, 0.01, seed=3)
    edges = base.undirected_edges().tolist()
    for hub in range(5):
        targets = rng.choice(300, 60, replace=False)
        edges += [(hub, int(t)) for t in targets if t != hub]
    g = build_graph(edges, 300)
    x = rng.random((300, 12))
    return g, x


BASE_CFG = RunConfig(dp=8, dt=1, lr=0.1, epochs=200,
                     weight_decay=5e-6, dropout=0.1, seed=0)


class TestPropagationHelps:
    def test_dgmlp_beats_raw_logistic(self, community_graph):
        g, y, x = community_graph
        rng = np.random.default_rng(1)
        perm = rng.permutation(g.num_nodes)
        sp = Splits(train=perm[:9], val=perm[9:39], test=perm[39:139])
        combined, _ = prepare_combined(g, x, dp=8, r=0.5, temperature=1.0)
        dgmlp, raw = [], []
        for seed in range(3):
            dgmlp.append(_train_on(combined, y, sp, 3, BASE_CFG, seed=seed)[1].test_accuracy)
            raw.append(_train_on(x, y, sp, 3, BASE_CFG, seed=seed)[1].test_accuracy)
        assert np.mean(dgmlp) >= 0.7
        assert np.mean(dgmlp) >= np.mean(raw) + 0.2

    def test_residual_head_trains_on_combined_features(self, community_graph):
        g, y, x = community_graph
        rng = np.random.default_rng(2)
        perm = rng.permutation(g.num_nodes)
        sp = Splits(train=perm[:30], val=perm[30:60], test=perm[60:160])
        combined, _ = prepare_combined(g, x, dp=4, r=0.5, temperature=1.0)
        cfg = RunConfig(dp=4, dt=4, hidden=32, lr=0.01, epochs=200,
                        weight_decay=5e-6, dropout=0.1, seed=0)
        _, metrics = _train_on(combined, y, sp, 3, cfg)
        assert metrics.test_accuracy >= 0.7


class TestLabelSparsityNeedsDepth:
    def test_one_label_per_class_prefers_deep_propagation(self):
        g, y = sbm(150, 3, 0.02, 0.0008, seed=5)  # avg degree ~3: slow mixing
        x = noisy_features(y, 16, noise=4.0, seed=6)
        acc = {2: [], 16: []}
        for seed in range(5):
            rs = np.random.default_rng(100 + seed)
            train = np.concatenate(
                [rs.choice(np.flatnonzero(y == c), 1) for c in range(3)])
            rest = np.setdiff1d(np.arange(g.num_nodes), train)
            rs.shuffle(rest)
            sp = Splits(train=train, val=rest[:100], test=rest[100:300])
            for k in (2, 16):
                xk = _propagated_step(g, x, k=k, r=0.5)
                acc[k].append(_train_on(xk, y, sp, 3, BASE_CFG, seed=seed)[1].test_accuracy)
        assert np.mean(acc[16]) > np.mean(acc[2]) + 0.1


class TestZeroFeatureRows:
    def test_masked_nodes_get_uniform_weights(self, community_graph):
        # a zeroed feature row makes every per-step cosine 0, so nsl is 0
        # across steps and the softmax falls back to uniform weighting
        g, _, x = community_graph
        x = x.copy()
        masked = [3, 17, 40]
        x[masked] = 0.0
        adj = normalize(g, 0.5)
        stat = stationary_features(g, x, 0.5)
        profile = nsl_streaming(adj, x, stat, 4)
        weights = propagation_weights(profile, 1.0)
        assert not profile.nsl[masked].any()
        assert np.allclose(weights[masked], 1.0 / 5.0, atol=1e-15)
        # propagation still fills those nodes from their neighbors
        combined = combine_streaming(adj, x, weights)
        assert (np.abs(combined[masked]).sum(axis=1) > 0).all()


class TestSmoothnessTrends:
    def test_gsl_decays_with_depth(self, hub_graph):
        g, x = hub_graph
        adj = normalize(g, 0.5)
        stat = stationary_features(g, x, 0.5)
        profile = nsl_streaming(adj, x, stat, 30)
        assert profile.gsl[1] > profile.gsl[5] > profile.gsl[10] >= profile.gsl[30]

    def test_high_degree_nodes_smooth_faster(self, hub_graph):
        g, x = hub_graph
        adj = normalize(g, 0.5)
        stat = stationary_features(g, x, 0.5)
        profile = nsl_streaming(adj, x, stat, 5)
        order = np.argsort(g.degrees, kind="stable")
        low, _, high = np.array_split(order, 3)
        assert profile.nsl[high, 5].mean() < profile.nsl[low, 5].mean()

    def test_adaptive_combination_resists_oversmoothing(self, hub_graph):
        # at equal depth, the node-adaptive mixture keeps far more of the
        # original signal than plain power iteration
        g, x = hub_graph
        adj = normalize(g, 0.5)
        stat = stationary_features(g, x, 0.5)
        profile = nsl_streaming(adj, x, stat, 30)
        weights = propagation_weights(profile, temperature=0.2)
        combined = combine_streaming(adj, x, weights)
        combined_gsl = matrix_nsl(combined, x, stat).mean()
        assert combined_gsl > 2.0 * profile.gsl[30]
