import json
import math
import sys
import threading
import time

import numpy as np
import pytest

import dgmlp.nn
from dgmlp import Adam, ConfigurationError, DimensionError, ParameterError, \
    ResidualMlp, Splits, TrainConfig, ValidationError, forward, load_checkpoint, \
    loss_and_grad, save_checkpoint, softmax, train

from conftest import FIXTURES

GOLDEN = FIXTURES / "checkpoints"


def finite_difference_grads(model, x, y, idx, weight_decay, h=1e-5):
    """Central finite differences through the (dropout-free) loss."""
    grads = []
    for p in model.parameters():
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(model, x, y, idx, weight_decay, training=False)
            flat[i] = orig - h
            lm, _ = loss_and_grad(model, x, y, idx, weight_decay, training=False)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def toy_blobs(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(-2, 0.5, (n // 2, 2)), rng.normal(2, 0.5, (n // 2, 2))])
    y = np.repeat([0, 1], n // 2)
    perm = rng.permutation(n)
    splits = Splits(train=perm[:n // 2], val=perm[n // 2:3 * n // 4], test=perm[3 * n // 4:])
    return x, y, splits


class TestForward:
    def test_zero_network_uniform_softmax(self):
        model = ResidualMlp.create(5, 7, num_layers=1, seed=0)
        model.weights[-1][:] = 0.0
        x = np.random.default_rng(0).random((10, 5))
        logits = forward(model, x)
        assert np.array_equal(logits, np.zeros((10, 7)))
        probs = softmax(logits)
        assert np.allclose(probs, 1 / 7)

    def test_zero_hidden_residual_identity(self):
        # identity projections around a zeroed hidden stack pass x through
        model = ResidualMlp.create(4, 4, num_layers=5, hidden_dim=4, seed=1)
        model.weights[0][:] = np.eye(4)
        model.weights[-1][:] = np.eye(4)
        for w in model.weights[1:-1]:
            w[:] = 0.0
        x = np.abs(np.random.default_rng(2).standard_normal((8, 4)))
        assert np.array_equal(forward(model, x), x)

    def test_bitwise_deterministic(self):
        model = ResidualMlp.create(6, 3, num_layers=3, hidden_dim=8,
                                   dropout_rate=0.5, seed=3)
        x = np.random.default_rng(4).random((12, 6))
        eval1, eval2 = forward(model, x), forward(model, x)
        assert np.array_equal(eval1, eval2)
        tr1 = forward(model, x, training=True, rng=np.random.default_rng(7))
        tr2 = forward(model, x, training=True, rng=np.random.default_rng(7))
        assert np.array_equal(tr1, tr2)

    def test_width_mismatch(self):
        model = ResidualMlp.create(6, 3, num_layers=1, seed=0)
        with pytest.raises(DimensionError):
            forward(model, np.zeros((4, 5)))

    def test_dropout_needs_rng(self):
        model = ResidualMlp.create(3, 2, num_layers=1, dropout_rate=0.5, seed=0)
        with pytest.raises(ParameterError):
            forward(model, np.zeros((2, 3)), training=True)

    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(5).standard_normal((40, 9)) * 30
        assert np.abs(softmax(logits).sum(axis=1) - 1.0).max() < 1e-12


class TestLossAndGrad:
    def test_zero_network_log_c(self):
        model = ResidualMlp.create(5, 7, num_layers=1, seed=0)
        model.weights[-1][:] = 0.0
        x = np.random.default_rng(1).random((9, 5))
        y = np.random.default_rng(2).integers(0, 7, 9)
        loss, _ = loss_and_grad(model, x, y, np.arange(9), training=False)
        assert loss == pytest.approx(math.log(7), abs=1e-12)

    @pytest.mark.parametrize("kwargs,wd", [
        (dict(num_layers=1), 0.0),
        (dict(num_layers=2, hidden_dim=6, use_bias=True), 0.0),
        (dict(num_layers=4, hidden_dim=6), 0.01),
    ])
    def test_gradients_match_finite_differences(self, kwargs, wd):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 5))
        y = rng.integers(0, 3, 12)
        idx = np.arange(12)
        model = ResidualMlp.create(5, 3, seed=11, **kwargs)
        assert sum(p.size for p in model.parameters()) <= 1000
        _, grads = loss_and_grad(model, x, y, idx, weight_decay=wd, training=False)
        fd = finite_difference_grads(model, x, y, idx, wd)
        for a, b in zip(grads, fd):
            assert np.allclose(a, b, rtol=1e-4, atol=1e-7)

    def test_weight_decay_decomposition(self):
        model = ResidualMlp.create(4, 3, num_layers=3, hidden_dim=5, seed=6)
        x = np.random.default_rng(7).random((10, 4))
        y = np.random.default_rng(8).integers(0, 3, 10)
        idx = np.arange(10)
        base, _ = loss_and_grad(model, x, y, idx, weight_decay=0.0, training=False)
        lam = 0.037
        with_wd, _ = loss_and_grad(model, x, y, idx, weight_decay=lam, training=False)
        penalty = lam * sum(float((w * w).sum()) for w in model.weights)
        assert with_wd - base == pytest.approx(penalty, rel=1e-12)

    def test_empty_labeled_set(self):
        model = ResidualMlp.create(3, 2, num_layers=1, seed=0)
        with pytest.raises(ConfigurationError):
            loss_and_grad(model, np.zeros((4, 3)), np.zeros(4, dtype=int), [])
        with pytest.raises(ConfigurationError):
            loss_and_grad(model, np.zeros((0, 3)), np.zeros(0, dtype=int), None)

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_no_indices_reads_every_row(self, dropout):
        model = ResidualMlp.create(5, 3, num_layers=3, hidden_dim=6, use_bias=True,
                                   dropout_rate=dropout, seed=2)
        x = np.random.default_rng(4).standard_normal((20, 5))
        y = np.random.default_rng(5).integers(0, 3, 20)
        idx = np.array([3, 17, 0, 8, 9, 12])
        want = loss_and_grad(model, x, y, idx, weight_decay=0.01,
                             rng=np.random.default_rng(6))
        got = loss_and_grad(model, x[idx], y[idx], None, weight_decay=0.01,
                            rng=np.random.default_rng(6))
        assert got[0] == want[0]
        assert [g.tobytes() for g in got[1]] == [g.tobytes() for g in want[1]]


class TestTrain:
    def test_separable_toy_reaches_full_train_accuracy(self):
        x, y, splits = toy_blobs()
        model = ResidualMlp.create(2, 2, num_layers=2, hidden_dim=8, seed=1)
        _, metrics = train(model, x, y, splits,
                           TrainConfig(learning_rate=0.05, epochs=50, seed=1))
        assert metrics.train_accuracy[-1] == 1.0

    @pytest.mark.parametrize("lr", [1e-3, 1e-2, 1e-1])
    def test_loss_decreases_first_ten_epochs(self, lr):
        x, y, splits = toy_blobs()
        model = ResidualMlp.create(2, 2, num_layers=2, hidden_dim=8, seed=1)
        _, metrics = train(model, x, y, splits,
                           TrainConfig(learning_rate=lr, epochs=10, seed=1))
        assert all(b < a for a, b in zip(metrics.train_loss, metrics.train_loss[1:]))

    def test_same_seed_identical_different_seed_differs(self):
        x, y, splits = toy_blobs(seed=3)
        def run(seed):
            model = ResidualMlp.create(2, 2, num_layers=3, hidden_dim=8,
                                       dropout_rate=0.3, seed=seed)
            _, m = train(model, x, y, splits,
                         TrainConfig(learning_rate=0.05, epochs=25, seed=seed))
            return m
        a, b, c = run(0), run(0), run(1)
        assert a.to_dict() == b.to_dict()
        assert a.train_loss != c.train_loss

    def test_best_val_selection(self):
        x, y, splits = toy_blobs(seed=5)
        model = ResidualMlp.create(2, 2, num_layers=1, seed=2)
        _, m = train(model, x, y, splits, TrainConfig(learning_rate=0.02, epochs=30, seed=2))
        assert m.best_val_accuracy == max(m.val_accuracy)
        assert m.best_epoch == m.val_accuracy.index(max(m.val_accuracy))
        assert m.test_accuracy == m.test_accuracy_per_epoch[m.best_epoch]
        assert all(0.0 <= v <= 1.0 for curve in
                   (m.train_accuracy, m.val_accuracy, m.test_accuracy_per_epoch)
                   for v in curve)

    def test_overlapping_splits_rejected(self):
        x, y, _ = toy_blobs()
        model = ResidualMlp.create(2, 2, num_layers=1, seed=0)
        with pytest.raises(ValidationError):
            bad = Splits.__new__(Splits)  # bypass constructor validation
            object.__setattr__(bad, "train", np.array([0, 1]))
            object.__setattr__(bad, "val", np.array([1, 2]))
            object.__setattr__(bad, "test", np.array([3]))
            train(model, x, y, bad, TrainConfig(epochs=1))

    def test_empty_train_split_rejected(self):
        x, y, _ = toy_blobs()
        splits = Splits(train=np.array([], dtype=int), val=np.array([0]), test=np.array([1]))
        model = ResidualMlp.create(2, 2, num_layers=1, seed=0)
        with pytest.raises(ConfigurationError):
            train(model, x, y, splits, TrainConfig(epochs=1))


def sequential_train(model, x, y, splits, config):
    """Reference loop: gradient, update, then evaluation, one after another."""
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    opt = Adam(params, config.learning_rate)
    union = np.concatenate([splits.train, splits.val, splits.test])
    ends = np.cumsum([splits.train.size, splits.val.size, splits.test.size])
    curves = {"train_loss": [], "train_accuracy": [], "val_accuracy": [],
              "test_accuracy_per_epoch": []}
    best_val, best_epoch, best_test = -1.0, -1, 0.0
    for epoch in range(config.epochs):
        loss, grads = loss_and_grad(model, x, y, splits.train, config.weight_decay,
                                    training=True, rng=rng)
        opt.step(params, grads)
        pred_ok = forward(model, x[union]).argmax(axis=1) == y[union]
        accs = [float(part.mean()) if part.size else 0.0
                for part in np.split(pred_ok, ends[:-1])]
        for key, value in zip(curves, [loss] + accs):
            curves[key].append(value)
        if accs[1] > best_val:
            best_val, best_epoch, best_test = accs[1], epoch, accs[2]
    return dict(curves, best_epoch=best_epoch, best_val_accuracy=best_val,
                test_accuracy=best_test)


def pipeline_case(dt=3, use_bias=False, dropout=0.0, epochs=6, empty_eval=False, seed=0):
    rng = np.random.default_rng(seed)
    n, d = 90, 7
    x = rng.normal(size=(n, d))
    x[::9] = 0.0
    y = rng.integers(0, 4, n)
    perm = rng.permutation(n)
    splits = Splits(train=perm[:40],
                    val=perm[40:40 if empty_eval else 65],
                    test=perm[65:65 if empty_eval else n])
    config = TrainConfig(learning_rate=0.05, epochs=epochs, weight_decay=1e-3,
                         seed=seed + 11)

    def model():
        return ResidualMlp.create(d, 4, num_layers=dt, hidden_dim=12, use_bias=use_bias,
                                  dropout_rate=dropout, seed=seed + 5)
    return model, x, y, splits, config


def assert_matches_sequential(case):
    make_model, x, y, splits, config = case
    got_model, got = train(make_model(), x, y, splits, config)
    ref_model = make_model()
    want = sequential_train(ref_model, x, y, splits, config)
    assert got.to_dict() == want
    assert [p.tobytes() for p in got_model.parameters()] == \
        [p.tobytes() for p in ref_model.parameters()]


class TestPipelinedTrain:
    """train overlaps epoch t's evaluation with epoch t+1's gradient."""

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("use_bias", [False, True])
    @pytest.mark.parametrize("dt", [1, 3, 6])
    def test_bitwise_equals_sequential_loop(self, dt, use_bias, dropout):
        assert_matches_sequential(pipeline_case(dt, use_bias, dropout))

    @pytest.mark.parametrize("kwargs", [dict(epochs=1), dict(empty_eval=True),
                                        dict(epochs=1, empty_eval=True, dropout=0.5)])
    def test_edge_cases_equal_sequential_loop(self, kwargs):
        assert_matches_sequential(pipeline_case(**kwargs))

    def recorded_gradient_inputs(self, monkeypatch, case):
        """train's result and the (features, train_indices) of each of
        its gradient passes; the result must equal the sequential loop's."""
        seen = []
        real = dgmlp.nn.loss_and_grad

        def recording(model, features, labels, train_indices, **kwargs):
            seen.append((features, train_indices))
            return real(model, features, labels, train_indices, **kwargs)

        monkeypatch.setattr(dgmlp.nn, "loss_and_grad", recording)
        assert_matches_sequential(case)
        return seen

    def test_training_rows_gathered_once(self, monkeypatch):
        case = pipeline_case(dropout=0.5)
        seen = self.recorded_gradient_inputs(monkeypatch, case)
        _, x, _, splits, config = case
        assert len(seen) == config.epochs
        assert all(features is seen[0][0] and idx is None for features, idx in seen)
        assert seen[0][0].tobytes() == x[splits.train].tobytes()

    def test_concurrent_train_calls_stay_independent(self):
        # more threads than cores and a short switch interval: each call
        # still matches its own sequential run bit for bit
        cases = [pipeline_case(dt=3, dropout=0.5, epochs=8, seed=s) for s in range(4)]
        failures = []

        def run(case):
            try:
                assert_matches_sequential(case)
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

    def test_evaluation_failure_reraised_and_worker_joined(self, monkeypatch):
        make_model, x, y, splits, config = pipeline_case(epochs=10)
        boom = RuntimeError("evaluation failed")
        callers = []
        real_forward = dgmlp.nn.forward

        def failing_forward(*args, **kwargs):
            callers.append(threading.current_thread())
            if len(callers) == 3:
                raise boom
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(dgmlp.nn, "forward", failing_forward)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            train(make_model(), x, y, splits, config)
        assert info.value is boom
        assert threading.active_count() == before
        assert len(callers) == 3
        assert threading.current_thread() not in callers

    @pytest.mark.parametrize("fail_at", [3, 10])  # a middle epoch's update, the last one's
    def test_update_failure_reraised_and_worker_joined(self, monkeypatch, fail_at):
        make_model, x, y, splits, config = pipeline_case(dt=6, use_bias=True, epochs=10)
        boom = RuntimeError("update failed")
        callers = []
        real_step = Adam.step

        def failing_step(self, params, grads, done=None):
            callers.append(threading.current_thread())
            if len(callers) == fail_at:
                raise boom
            return real_step(self, params, grads, done=done)

        monkeypatch.setattr(Adam, "step", failing_step)
        before = threading.active_count()
        start = time.perf_counter()
        with pytest.raises(RuntimeError) as info:
            train(make_model(), x, y, splits, config)
        assert time.perf_counter() - start < 10.0
        assert info.value is boom
        assert threading.active_count() == before
        assert len(callers) == fail_at
        assert threading.current_thread() not in callers

    @pytest.mark.parametrize("use_bias", [False, True])
    @pytest.mark.parametrize("dt", [3, 6])
    def test_slow_update_never_read_early(self, monkeypatch, dt, use_bias):
        # the update sleeps before each parameter it writes, so a gradient
        # pass that read a layer before its update would see the old weights
        real_step = Adam.step

        def slow_step(self, params, grads, done=None):
            def slow_done(j):
                if done is not None:
                    done(j)
                time.sleep(0.002)

            time.sleep(0.002)
            real_step(self, params, grads, done=slow_done)

        monkeypatch.setattr(Adam, "step", slow_step)
        assert_matches_sequential(pipeline_case(dt, use_bias, dropout=0.5))


class TestAdam:
    def test_in_place_step_equals_textbook_update(self):
        rng = np.random.default_rng(4)
        shapes = [(5, 3), (3,), (7, 7), (1, 2)]
        params = [rng.normal(size=s) for s in shapes]
        ref = [p.copy() for p in params]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr, b1, b2, eps)
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            grads[1][0] = -0.0
            opt.step(params, grads)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            m = [b1 * mi + (1.0 - b1) * g for mi, g in zip(m, grads)]
            v = [b2 * vi + (1.0 - b2) * g * g for vi, g in zip(v, grads)]
            ref = [p - lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
                   for p, mi, vi in zip(ref, m, v)]
            assert [p.tobytes() for p in params] == [p.tobytes() for p in ref]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig(weight_decay=-1e-3)
        with pytest.raises(ParameterError):
            ResidualMlp.create(3, 2, dropout_rate=1.0)

    @pytest.mark.parametrize("hidden_dim", [-3, 0])
    def test_create_rejects_hidden_dim_below_one(self, hidden_dim):
        with pytest.raises(ParameterError, match="hidden_dim must be >= 1"):
            ResidualMlp.create(4, 2, num_layers=3, hidden_dim=hidden_dim, seed=0)


class TestCheckpoint:
    @pytest.mark.parametrize("kwargs", [
        dict(num_layers=1),
        dict(num_layers=4, hidden_dim=6, use_bias=True, dropout_rate=0.2),
    ])
    def test_round_trip(self, tmp_path, kwargs):
        model = ResidualMlp.create(5, 3, seed=13, **kwargs)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(14).random((7, 5))
        assert np.array_equal(forward(model, x), forward(loaded, x))
        assert loaded.use_bias == model.use_bias
        assert loaded.dropout_rate == model.dropout_rate

    @pytest.mark.parametrize("content", [
        b"not a checkpoint at all",
        b"\x80\x04\x95\x05\x00\x00\x00\x00\x00\x00\x00}\x94.",  # a pickled dict
        b"PK\x03\x04truncated zip",
    ])
    def test_unreadable_file_named(self, tmp_path, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="bad.npz"):
            load_checkpoint(path)

    def test_missing_file_and_plain_array_named(self, tmp_path):
        with pytest.raises(ValidationError, match="absent.npz"):
            load_checkpoint(tmp_path / "absent.npz")
        np.save(tmp_path / "array.npy", np.zeros(3))
        with pytest.raises(ValidationError, match="array.npy"):
            load_checkpoint(tmp_path / "array.npy")

    @staticmethod
    def _resave(tmp_path, drop=(), **replace):
        model = ResidualMlp.create(5, 3, num_layers=3, hidden_dim=4, use_bias=True, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k not in drop}
        arrays.update(replace)
        np.savez(path, **arrays)
        return path

    @pytest.mark.parametrize("name,layers,use_bias,dropout", [
        ("linear", 1, False, 0.0), ("deep", 4, True, 0.2),
    ])
    def test_golden_file_loads_and_resaves_identically(self, tmp_path, name, layers,
                                                       use_bias, dropout):
        path = GOLDEN / f"{name}.npz"
        model = load_checkpoint(path)
        assert (model.num_layers, model.use_bias, model.dropout_rate) == \
            (layers, use_bias, dropout)
        with np.load(GOLDEN / "logits.npz") as recorded:
            assert forward(model, recorded["input"]).tobytes() == recorded[name].tobytes()
        save_checkpoint(model, tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("meta", [
        dict(has_input_proj=True, num_hidden=-1),
        dict(has_input_proj=False, num_hidden=1),
        dict(has_input_proj=False, num_hidden=-1),
    ])
    def test_inconsistent_layer_count(self, tmp_path, meta):
        meta = dict(format="dgmlp-checkpoint-v1", use_bias=True, dropout_rate=0.0, **meta)
        path = self._resave(tmp_path, meta=json.dumps(meta))
        with pytest.raises(ValidationError, match="model.npz"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop", ["meta", "output", "hidden_0", "hidden_bias_0"])
    def test_missing_entry(self, tmp_path, drop):
        path = self._resave(tmp_path, drop=(drop,))
        with pytest.raises(ValidationError, match="model.npz"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry,value", [
        ("output", np.zeros((6, 3))),        # input_proj -> hidden -> output
        ("hidden_0", np.zeros((4, 5))),      # residual layers are square
        ("input_proj", np.zeros(5)),         # not a matrix
        ("output_bias", np.zeros(4)),        # bias width
    ])
    def test_mismatched_shapes(self, tmp_path, entry, value):
        path = self._resave(tmp_path, **{entry: value})
        with pytest.raises(ValidationError, match="model.npz"):
            load_checkpoint(path)
