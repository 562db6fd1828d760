from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dgmlp import ConfigurationError, ResidualMlp, combine, compute_nsl, \
    load_dataset, normalize, propagate, propagation_weights, runner, \
    smoothness, stationary_features, train
from dgmlp.runner import RunConfig, _propagated_step, _train_on, prepare_combined, \
    row_normalize, run_profile, run_scale, run_sweep, run_train

from conftest import FIXTURES, random_graph


class TestRunConfig:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            RunConfig(dp=-1)
        with pytest.raises(ConfigurationError):
            RunConfig(dt=0)
        with pytest.raises(ConfigurationError):
            RunConfig(temperature=0.0)
        with pytest.raises(ConfigurationError):
            RunConfig(feature_norm="bogus")
        with pytest.raises(ConfigurationError):
            RunConfig(baseline="gcn")
        with pytest.raises(ConfigurationError, match="dt does not apply"):
            RunConfig(baseline="sgc", dt=3)

    def test_num_seeds_must_be_positive(self):
        # checked when the config is built, before any data is read
        with pytest.raises(ConfigurationError, match="num_seeds must be >= 1"):
            RunConfig(dp_grid=[1], num_seeds=0)

    def test_echo_contains_seed(self):
        cfg = RunConfig(seed=42)
        assert cfg.to_dict()["seed"] == 42


class TestRowNormalize:
    def test_l1_rows_sum_to_one(self):
        x = np.abs(np.random.default_rng(0).standard_normal((10, 4))) + 0.1
        out = row_normalize(x, "l1")
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_zero_rows_untouched(self):
        x = np.zeros((3, 4))
        x[1] = [1.0, 1.0, 2.0, 0.0]
        out = row_normalize(x, "l2")
        assert not out[0].any() and not out[2].any()
        assert np.abs(np.linalg.norm(out[1]) - 1.0) < 1e-12

    def test_none_is_identity(self):
        x = np.random.default_rng(1).standard_normal((5, 3))
        assert row_normalize(x, "none") is x

    @pytest.mark.parametrize("mode", ["l1", "l2"])
    def test_bits_equal_boolean_index_formula(self, mode):
        x = np.random.default_rng(2).standard_normal((9, 4))
        x[2] = 0.0
        x[5] = [-0.0, 0.0, -0.0, -0.0]
        x[7, :2] = 0.0
        x[8] = [1e-300, -5e-324, 0.0, 3e150]
        norms = np.abs(x).sum(axis=1) if mode == "l1" else np.linalg.norm(x, axis=1)
        want = x.copy()
        nz = norms > 0.0
        want[nz] /= norms[nz, None]
        got = row_normalize(x, mode)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.signbit(got[5]).tolist() == [True, False, True, True]


class TestPrepareCombined:
    def test_matches_stack_oracle(self):
        g = random_graph(40, 120, 0)
        x = np.random.default_rng(1).random((40, 6))
        combined, profile = prepare_combined(g, x, dp=6, r=0.5, temperature=0.7)
        stack = propagate(normalize(g, 0.5), x, 6)
        oracle = compute_nsl(stack, stationary_features(g, x, 0.5))
        weights = propagation_weights(oracle, 0.7)
        expected = combine(stack, weights)
        assert np.abs(combined - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(profile.nsl - oracle.nsl).max() <= 1e-12
        assert np.abs(profile.weights - weights).max() <= 1e-12


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_dataset(FIXTURES / "tiny")


class TestRunProfile:
    @given(dp=st.integers(0, 8), data=st.data())
    def test_one_spmm_per_step_for_any_caps(self, tiny_dataset, dp, data):
        caps = data.draw(st.lists(st.integers(0, dp), max_size=dp + 2))
        calls = []
        spmm = smoothness.spmm

        def counted(*args, **kwargs):
            calls.append(1)
            return spmm(*args, **kwargs)

        cfg = RunConfig(dp=dp, caps=caps, temperature=0.2)
        with mock.patch.object(smoothness, "spmm", counted):
            result = run_profile(tiny_dataset, cfg)
        assert len(calls) == dp
        assert len(result["gsl_combined"]) == len(result["caps"])


class TestRunTrain:
    def test_deterministic_given_seed(self, tiny_dir):
        ds = load_dataset(tiny_dir)
        cfg = RunConfig(dataset=str(tiny_dir), dp=2, dt=2, hidden=8,
                        epochs=20, lr=0.05, dropout=0.2, seed=5)
        r1, _, _ = run_train(ds, cfg)
        r2, _, _ = run_train(ds, cfg)
        assert r1["metrics"] == r2["metrics"]
        assert r1["test_accuracy"] == r2["test_accuracy"]

    def test_sgc_and_dgmlp_share_reporting(self, tiny_dir):
        ds = load_dataset(tiny_dir)
        base = dict(dataset=str(tiny_dir), dp=2, epochs=10, lr=0.05,
                    dropout=0.0, seed=0)
        dg, _, _ = run_train(ds, RunConfig(**base))
        sgc, _, _ = run_train(ds, RunConfig(baseline="sgc", **base))
        assert set(dg.keys()) == set(sgc.keys())
        assert len(sgc["metrics"]["val_accuracy"]) == 10


class TestSgcBaseline:
    BASE = dict(baseline="sgc", dp=2, epochs=15, lr=0.05, seed=3)

    def test_dp0_equals_plain_logistic(self, tiny_dataset):
        cfg = RunConfig(**{**self.BASE, "dp": 0})
        _, model, metrics = run_train(tiny_dataset, cfg)
        x = row_normalize(tiny_dataset.features, cfg.feature_norm)
        plain = ResidualMlp.create(x.shape[1], tiny_dataset.num_classes,
                                   dropout_rate=cfg.dropout, seed=cfg.seed)
        plain, expected = train(plain, x, tiny_dataset.labels, tiny_dataset.splits,
                                cfg.train_config())
        assert metrics.to_dict() == expected.to_dict()
        assert model.num_layers == 1
        assert all(np.array_equal(a, b)
                   for a, b in zip(model.parameters(), plain.parameters()))

    @pytest.mark.parametrize("use_bias", [False, True])
    def test_run_train_matches_train_on(self, tiny_dataset, use_bias):
        cfg = RunConfig(use_bias=use_bias, **self.BASE)
        result, model, _ = run_train(tiny_dataset, cfg)
        x = row_normalize(tiny_dataset.features, cfg.feature_norm)
        xk = _propagated_step(tiny_dataset.graph, x, k=cfg.dp, r=cfg.r)
        _, expected = _train_on(xk, tiny_dataset.labels, tiny_dataset.splits, cfg)
        assert result["metrics"] == expected.to_dict()
        assert model.num_layers == 1 and model.use_bias == use_bias


class TestRunSweepCache:
    def test_one_classifier_input_per_structural_key(self, tiny_dataset, monkeypatch):
        # dt and the unperturbed graph's seeds repeat keys; keep < 1 makes
        # the seed part of the key
        real = runner._classifier_input
        calls = []

        def counting(graph, features, cfg, dp):
            calls.append(dp)
            return real(graph, features, cfg, dp)

        monkeypatch.setattr(runner, "_classifier_input", counting)
        cfg = RunConfig(dp_grid=[1, 2], dt_grid=[1, 2], keep_edges_grid=[1.0, 0.5],
                        num_seeds=2, epochs=2, lr=0.05, dropout=0.0)
        rows = run_sweep(tiny_dataset, cfg)
        assert len(rows) == 8
        # per dp: one unperturbed key plus one per seed with keep 0.5
        assert len(calls) == 2 * (1 + 2)


class TestRunScale:
    def test_traced_peak_repeats(self):
        # the evaluation, on a worker thread, overlaps the next gradient;
        # its hidden activations are made once, so the peak does not move
        # with the thread timing (it spread over 73-79 MB when they were
        # made at each epoch)
        cfg = RunConfig(dp=2, dt=6, hidden=512, epochs=3, lr=1e-3, dropout=0.5,
                        seed=0, sizes=[3000], edge_prob=1e-3, dim=16, classes=3,
                        train_nodes=500, val_nodes=500, test_nodes=1000)
        first, second = (run_scale(cfg)[0]["peak_traced_mb"] for _ in range(2))
        assert abs(first - second) <= 0.5
