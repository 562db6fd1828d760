import tracemalloc
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dgmlp import ConfigurationError, Dataset, ResidualMlp, Splits, ValidationError, \
    combine, compute_nsl, drop_edges, erdos_renyi, load_checkpoint, load_dataset, \
    normalize, propagate, propagation, propagation_pass, propagation_weights, runner, \
    save_checkpoint, stationary_features, subsample_labels, train
from dgmlp.runner import RunConfig, _propagated_step, _train_on, prepare_combined, \
    row_divisor, row_normalize, run_profile, run_scale, run_sweep, run_train, \
    synthetic_node_data

from conftest import FIXTURES, random_graph


class TestRunConfig:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            RunConfig(dp=-1)
        with pytest.raises(ConfigurationError):
            RunConfig(dt=0)
        for t in (0.0, 2.0 ** -1022, float("nan")):
            with pytest.raises(ConfigurationError, match="temperature"):
                RunConfig(temperature=t)
        assert RunConfig(temperature=2.0 ** -1021).temperature == 2.0 ** -1021
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


DBL_MAX = np.finfo(np.float64).max


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


class TestRowDivisor:
    @pytest.mark.parametrize("mode", ["l1", "l2"])
    @pytest.mark.parametrize("block_values", [1 << 16, 12, 1])  # 3-row, 1-row blocks
    def test_bits_equal_whole_matrix_norms(self, monkeypatch, mode, block_values):
        monkeypatch.setattr(runner, "_DIVISOR_BLOCK_VALUES", block_values)
        x = np.random.default_rng(3).standard_normal((11, 4))
        x[2] = 0.0
        x[5] = -0.0
        x[8] = [1e-300, -5e-324, 0.0, 3e150]
        x[9] = np.finfo(np.float64).max / 5
        with np.errstate(over="ignore"):
            norms = np.abs(x).sum(axis=1) if mode == "l1" else np.linalg.norm(x, axis=1)
        got = row_divisor(x, mode)
        want = np.where(norms > 0.0, norms, 1.0)
        # row 9's squares overflow, so its L2 norm is taken from the scaled row
        plain = np.isfinite(want)
        assert plain.sum() == (11 if mode == "l1" else 10)
        assert got[plain].tobytes() == want[plain].tobytes()
        assert got[9] == pytest.approx(np.sqrt(4.0) * x[9, 0] if mode == "l2" else want[9],
                                       rel=1e-15)
        assert got[2] == got[5] == 1.0

    # rows whose plain norm overflows, underflows or has lost bits to
    # subnormal squares, beside rows with subnormal entries
    EXTREME_ROWS = [
        [1e200, 0.0, 0.0],
        [1e-200, 0.0, 0.0],
        [1e-160, -3e-160, 2e-161],
        [1e308, 1e308, 0.0],
        [0.9 * DBL_MAX, -0.4 * DBL_MAX, 1.0],
        [5e-324, -1e-323, 1.5e-323],
        [1e-310, 3e-309, -2.5e-320],
        [5e-324, 1e-300, -0.0],
        [-0.0, 0.0, -0.0],
        [3.0, -4.0, 12.0],
    ]

    @staticmethod
    def exact_norm(row, mode) -> float:
        """The row's norm, correctly rounded to float64 (inf above DBL_MAX)."""
        with localcontext() as ctx:
            ctx.prec = 80
            values = [Decimal(float(v)) for v in row]
            norm = (sum(abs(v) for v in values) if mode == "l1"
                    else sum(v * v for v in values).sqrt())
            return float(norm) if norm <= Decimal(DBL_MAX) else np.inf

    @pytest.mark.parametrize("mode", ["l1", "l2"])
    def test_extreme_rows_match_exact_norms(self, mode):
        rows = [r for r in self.EXTREME_ROWS if self.exact_norm(r, mode) < np.inf]
        got = row_divisor(np.array(rows), mode)
        for row, divisor in zip(rows, got):
            want = self.exact_norm(row, mode) or 1.0
            # an ulp of the norm: of the subnormal grid where the norm is subnormal
            assert abs(divisor - want) <= 2 * np.spacing(want), row

    @pytest.mark.parametrize("mode", ["l1", "l2"])
    def test_extreme_rows_normalize_to_exact_quotients(self, mode):
        # a subnormal L1 norm is exact; a subnormal L2 norm is rounded to
        # the subnormal grid, so its quotients are not exact
        lowest = 0.0 if mode == "l1" else 2.0 ** -1022
        rows = [r for r in self.EXTREME_ROWS if lowest < self.exact_norm(r, mode) < np.inf]
        got = row_normalize(np.array(rows), mode)
        for row, out in zip(rows, got):
            norm = Decimal(self.exact_norm(row, mode))
            want = [float(Decimal(v) / norm) for v in row]
            assert np.abs(out - want).max() <= 4e-16, row
        assert got[0].tolist() == got[1].tolist() == [1.0, 0.0, 0.0]

    def test_norm_beyond_dbl_max_is_an_error(self):
        x = np.array([[1.0, 2.0], [1e308, 1e308]])
        assert row_normalize(x, "l2")[1] == pytest.approx([0.5 ** 0.5] * 2, rel=2e-16)
        with pytest.raises(ValidationError, match="row 1 .* L1 norm above DBL_MAX"):
            row_normalize(x, "l1")
        with pytest.raises(ValidationError, match="row 0 .* L2 norm above DBL_MAX"):
            row_divisor(np.full((1, 5), DBL_MAX), "l2")

    def test_none_and_bad_modes(self):
        x = np.ones((3, 2))
        assert row_divisor(x, "none") is None
        with pytest.raises(ConfigurationError, match="feature_norm"):
            row_divisor(x, "l3")
        with pytest.raises(ValidationError, match="2-D"):
            row_divisor(np.ones(3), "l1")


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
        spmm = propagation.spmm

        def counted(*args, **kwargs):
            calls.append(1)
            return spmm(*args, **kwargs)

        cfg = RunConfig(dp=dp, caps=caps, temperature=0.2)
        with mock.patch.object(propagation, "spmm", counted):
            result = run_profile(tiny_dataset, cfg)
        assert len(calls) == dp
        assert len(result["gsl_combined"]) == len(result["caps"])


def labeled_er(n=20_000, d=64, labeled=400, seed=3) -> Dataset:
    """G(n, 2e-4) with uniform features and `labeled` nodes in the splits."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    a, b = labeled // 4, labeled // 2
    splits = Splits(train=np.sort(perm[:a]), val=np.sort(perm[a:b]),
                    test=np.sort(perm[b:labeled]))
    return Dataset(erdos_renyi(n, 2e-4, seed), rng.random((n, d)),
                   rng.integers(0, 4, n), splits, 4)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRunnerMemory:
    """The features are divided into the walk's first step buffer: no
    normalized N x d copy beside them. The features are made before
    tracing; the slack covers the N-vectors (nsl, weights, the pass's
    scalars per node, the divisor), the adjacency and its construction,
    and the training of a small model on the labeled rows."""

    def test_profile_holds_two_step_buffers_and_the_accumulator(self):
        ds = labeled_er()
        nd = ds.features.nbytes
        slack = 48 * 8 * ds.num_nodes
        assert slack < nd
        peak = traced_peak(lambda: run_profile(ds, RunConfig(dp=6, temperature=0.2)))
        assert peak <= 3 * nd + slack

    def test_train_holds_two_step_buffers(self):
        ds = labeled_er()
        nd = ds.features.nbytes
        slack = 48 * 8 * ds.num_nodes
        peak = traced_peak(lambda: run_train(ds, RunConfig(dp=6, epochs=3, hidden=16)))
        assert peak <= 2 * nd + slack

    def test_sgc_baseline_holds_two_step_buffers(self):
        ds = labeled_er()
        peak = traced_peak(lambda: run_train(ds, RunConfig(baseline="sgc", dp=6, epochs=3)))
        assert peak <= 2 * ds.features.nbytes + 48 * 8 * ds.num_nodes


class TestFeatureNormNone:
    def test_profile_walks_the_features_as_given(self, tiny_dataset):
        cfg = RunConfig(dp=4, caps=[0, 2, 4], temperature=0.2, feature_norm="none")
        result = run_profile(tiny_dataset, cfg)
        walk = propagation_pass(tiny_dataset.graph, tiny_dataset.features, k=4, r=cfg.r,
                                temperature=0.2, caps=[0, 2, 4])
        assert result["profile"].nsl.tobytes() == walk.profile.nsl.tobytes()
        assert result["profile"].weights.tobytes() == walk.profile.weights.tobytes()
        assert result["gsl_combined"] == [walk.cap_gsl[c] for c in (0, 2, 4)]


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
        _, expected = _train_on(xk, tiny_dataset.labels, tiny_dataset.splits,
                                tiny_dataset.num_classes, cfg)
        assert result["metrics"] == expected.to_dict()
        assert model.num_layers == 1 and model.use_bias == use_bias


class TestSgcDivisorWalk:
    @pytest.mark.parametrize("mode", ["l1", "l2"])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_bitwise_equals_walk_on_normalized_features(self, mode, k):
        # the walk divides x0 as row_normalize does, and the steps are its
        # spmm products
        g = random_graph(40, 120, k)
        x = np.random.default_rng(k).standard_normal((40, 5))
        x[1] = -0.0
        x[2] = [5e-324, -1e-323, 1.5e-323, 0.0, -5e-324]
        x[3] = np.finfo(np.float64).max / 6
        with np.errstate(over="ignore"):
            want = _propagated_step(g, row_normalize(x, mode), k=k, r=0.5)
            got = _propagated_step(g, x, k=k, r=0.5, divisor=row_divisor(x, mode))
        assert got.tobytes() == want.tobytes()


class TestRunSweepCache:
    def test_one_classifier_input_per_structural_key(self, tiny_dataset, monkeypatch):
        # dt and the unperturbed graph's seeds repeat keys; keep < 1 makes
        # the seed part of the key
        real = runner._classifier_input
        calls = []

        def counting(graph, features, cfg, dp, *rest):
            calls.append(dp)
            return real(graph, features, cfg, dp, *rest)

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


def whole_matrix_run(graph, features, labels, splits, num_classes, cfg, *, dp, dt, seed,
                     divisor=None):
    """The classifier trained on a classifier input with a row for every
    node, indexed by node id, from the (features, divisor) input the
    runners hand the walk; returns (model, metrics)."""
    if cfg.baseline == "sgc":
        x = _propagated_step(graph, features, k=dp, r=cfg.r, divisor=divisor)
    else:
        x, _ = prepare_combined(graph, features, dp=dp, r=cfg.r,
                                temperature=cfg.temperature, divisor=divisor)
    model = ResidualMlp.create(x.shape[1], num_classes, num_layers=dt,
                               hidden_dim=cfg.hidden, use_bias=cfg.use_bias,
                               dropout_rate=cfg.dropout, seed=seed)
    return train(model, x, labels, splits, cfg.train_config(seed))


def partly_labeled(top_class_unlabeled=False) -> Dataset:
    """90 nodes in 3 classes, 42 of them in a split. With
    top_class_unlabeled, node 89 alone holds a fourth class."""
    graph = random_graph(90, 200, 11)
    labels = np.arange(90) % 3
    features = np.random.default_rng(12).random((90, 5))
    features[np.arange(90), labels] += 1.0
    num_classes = 3
    if top_class_unlabeled:
        labels[89], num_classes = 3, 4
    perm = np.random.default_rng(13).permutation(89)
    splits = Splits(train=np.sort(perm[:12]), val=np.sort(perm[12:22]),
                    test=np.sort(perm[22:42]))
    return Dataset(graph, features, labels, splits, num_classes)


class TestLabeledRows:
    """The runners combine only the labeled rows; their outputs are those
    of the classifier trained on every node's row."""

    @pytest.mark.parametrize("which", ["tiny", "partly labeled"])
    @pytest.mark.parametrize("baseline", [None, "sgc"])
    def test_run_train_equals_whole_matrix_run(self, tiny_dataset, tmp_path, which,
                                               baseline):
        ds = tiny_dataset if which == "tiny" else partly_labeled()
        cfg = RunConfig(baseline=baseline, dp=3, dt=1 if baseline else 3, hidden=8,
                        epochs=25, lr=0.05, dropout=0.2, seed=5, use_bias=True)
        result, model, metrics = run_train(ds, cfg)
        want_model, want = whole_matrix_run(ds.graph, ds.features, ds.labels, ds.splits,
                                            ds.num_classes, cfg, dp=cfg.dp, dt=cfg.dt,
                                            seed=cfg.seed,
                                            divisor=row_divisor(ds.features,
                                                                cfg.feature_norm))
        assert result["metrics"] == want.to_dict() == metrics.to_dict()
        assert result["test_accuracy"] == want.test_accuracy
        assert result["best_epoch"] == want.best_epoch
        save_checkpoint(model, tmp_path / "got.npz")
        save_checkpoint(want_model, tmp_path / "want.npz")
        assert (tmp_path / "got.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()

    def test_run_sweep_equals_whole_matrix_run(self):
        # labels_per_class shrinks the train split inside the labeled rows
        ds = partly_labeled()
        cfg = RunConfig(dp_grid=[1, 3], keep_edges_grid=[1.0, 0.6],
                        labels_per_class_grid=[2], num_seeds=2, dt=2, hidden=8,
                        epochs=5, lr=0.05, seed=4)
        rows = run_sweep(ds, cfg)
        divisor = row_divisor(ds.features, cfg.feature_norm)
        assert len(rows) == 4
        for row in rows:
            accs = []
            for seed in (cfg.seed, cfg.seed + 1):
                keep = row["keep_edges"]
                graph = ds.graph if keep >= 1.0 else drop_edges(ds.graph, keep, seed)
                sub = subsample_labels(ds, row["labels_per_class"], seed)
                _, metrics = whole_matrix_run(graph, ds.features, sub.labels, sub.splits,
                                              ds.num_classes, cfg, dp=row["dp"],
                                              dt=row["dt"], seed=seed, divisor=divisor)
                accs.append(metrics.test_accuracy)
            assert row["test_acc_mean"] == float(np.mean(accs))
            assert row["test_acc_std"] == float(np.std(accs))

    def test_run_scale_equals_whole_matrix_run(self):
        cfg = RunConfig(dp=3, dt=2, hidden=16, epochs=8, lr=0.01, seed=2,
                        sizes=[80, 200], edge_prob=0.05, dim=6, classes=4,
                        train_nodes=20, val_nodes=10, test_nodes=20)
        for row, n in zip(run_scale(cfg), cfg.sizes):
            features, labels, splits = synthetic_node_data(n, cfg, cfg.seed + 1)
            _, want = whole_matrix_run(erdos_renyi(n, cfg.edge_prob, cfg.seed), features,
                                       labels, splits, cfg.classes, cfg, dp=cfg.dp,
                                       dt=cfg.dt, seed=cfg.seed)
            assert row["final_train_accuracy"] == want.train_accuracy[-1]
            assert row["test_accuracy"] == want.test_accuracy

    def test_class_count_comes_from_the_dataset(self, tmp_path):
        # the labeled rows hold classes 0-2 only; the output layer still
        # has a column for class 3
        ds = partly_labeled(top_class_unlabeled=True)
        assert ds.labels[runner._labeled_rows(ds.splits)].max() == 2
        _, model, _ = run_train(ds, RunConfig(dp=2, dt=2, hidden=8, epochs=3))
        save_checkpoint(model, tmp_path / "model.npz")
        assert load_checkpoint(tmp_path / "model.npz").weights[-1].shape == (8, 4)

    def test_scale_class_count_comes_from_the_config(self, monkeypatch):
        # 12 nodes: each split holds 3, too few to show every one of 10 classes
        models = []
        real_train = runner.train

        def keeping(model, *args):
            models.append(model)
            return real_train(model, *args)

        monkeypatch.setattr(runner, "train", keeping)
        run_scale(RunConfig(sizes=[12], edge_prob=0.3, dim=4, classes=10, epochs=2))
        assert [m.num_classes for m in models] == [10]
