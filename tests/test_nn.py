import json
import math
import sys
import threading
import time
import tracemalloc
import types
import weakref

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

    @pytest.mark.parametrize("name", ["train", "val", "test"])
    def test_repeated_node_rejected(self, name):
        x, y, _ = toy_blobs()
        parts = {"train": [0, 1], "val": [2, 3], "test": [4, 5]}
        parts[name] = parts[name] + [parts[name][1]]
        message = f"split '{name}' lists node {parts[name][1]} more than once"
        with pytest.raises(ValidationError, match=message):
            Splits(**parts)
        model = ResidualMlp.create(2, 2, num_layers=1, seed=0)
        unchecked = types.SimpleNamespace(**parts)  # any object with the three fields
        with pytest.raises(ValidationError, match=message):
            train(model, x, y, unchecked, TrainConfig(epochs=1))

    def test_empty_train_split_rejected(self):
        x, y, _ = toy_blobs()
        splits = Splits(train=np.array([], dtype=int), val=np.array([0]), test=np.array([1]))
        model = ResidualMlp.create(2, 2, num_layers=1, seed=0)
        with pytest.raises(ConfigurationError):
            train(model, x, y, splits, TrainConfig(epochs=1))


class TruthyZero(float):
    """A weight decay of 0.0 that tests true, so loss_and_grad still adds
    its 2 * 0.0 * w term, as it did before skipping it at 0."""

    def __bool__(self):
        return True


class TestZeroWeightDecay:
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_skipped_add_gives_the_same_bits(self, dropout):
        make_model, x, y, splits, config = pipeline_case(dt=4, dropout=dropout, epochs=8)
        x[:, 2] = -0.0  # a -0.0 input column: zero products of both signs
        runs = []
        for decay in (0.0, TruthyZero(0.0)):
            config.weight_decay = decay
            model, metrics = train(make_model(), x, y, splits, config)
            runs.append(([p.tobytes() for p in model.parameters()], metrics.to_dict()))
        assert runs[0] == runs[1]


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


def pipeline_case(dt=3, use_bias=False, dropout=0.0, epochs=6, empty_eval=False, seed=0,
                  zero_rows=True):
    rng = np.random.default_rng(seed)
    n, d = 90, 7
    x = rng.normal(size=(n, d))
    if zero_rows:
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
        # a deeper model, evaluated by forward at every epoch
        make_model, x, y, splits, config = pipeline_case(dt=3, epochs=10)
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
    @pytest.mark.parametrize("dt", [1, 3, 6])
    def test_each_gradient_set_freed_before_the_next_is_made(self, monkeypatch, dt,
                                                             use_bias):
        # the update frees each gradient once it has written its parameter,
        # and the next gradient pass reads the last layer only after that
        real = dgmlp.nn.loss_and_grad
        sets, stale = [], []

        def watching(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            if sets:
                stale.append(sum(ref() is not None for ref in sets[-1]))
            sets.append([weakref.ref(g) for g in grads])
            return loss, grads

        monkeypatch.setattr(dgmlp.nn, "loss_and_grad", watching)
        case = pipeline_case(dt, use_bias, dropout=0.5)
        assert_matches_sequential(case)
        assert stale == [0] * (case[-1].epochs - 1)

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


def force_batch(monkeypatch, case, size):
    """Sets the evaluation batch of a one-layer case to size epochs (None
    keeps the default), and counts the batches and the forward passes of
    train: one per batch, and one per epoch evaluated again."""
    make_model, _, _, splits, _ = case
    if size is not None:
        model = make_model()
        rows = splits.train.size + splits.val.size + splits.test.size
        per_epoch = rows * model.num_classes * 8 + sum(p.nbytes for p in model.parameters())
        monkeypatch.setattr(dgmlp.nn, "_EVAL_BATCH_BYTES", size * per_epoch)
    calls = {"batches": 0, "forward": 0}
    real_hits, real_forward = dgmlp.nn._certified_hits, dgmlp.nn.forward

    def counted_hits(*args, **kwargs):
        calls["batches"] += 1
        return real_hits(*args, **kwargs)

    def counted_forward(*args, **kwargs):
        calls["forward"] += 1
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(dgmlp.nn, "_certified_hits", counted_hits)
    monkeypatch.setattr(dgmlp.nn, "forward", counted_forward)
    return calls


class TestBatchedEvaluation:
    """A one-layer model's epochs are evaluated in batches of one product."""

    @pytest.mark.parametrize("kwargs", [dict(), dict(use_bias=True), dict(dropout=0.5),
                                        dict(use_bias=True, dropout=0.5),
                                        dict(empty_eval=True, dropout=0.5)])
    @pytest.mark.parametrize("size", [1, 2, 3, None])
    def test_batches_equal_sequential_loop(self, monkeypatch, size, kwargs):
        case = pipeline_case(dt=1, epochs=7, zero_rows=False, **kwargs)
        calls = force_batch(monkeypatch, case, size)
        assert_matches_sequential(case)
        batches = math.ceil(7 / (size or 7))
        assert calls == {"batches": batches, "forward": batches}

    @pytest.mark.parametrize("size", [2, None])
    def test_exact_ties_fall_back_to_forward(self, monkeypatch, size):
        # classes 0 and 1 have the same weight column, no training row is
        # of either, so they stay equal, and the zero rows tie all four
        # classes: every epoch has ties, which argmax breaks to the first
        # index, so a tied row of label 0 is a hit and one of label 1 not
        make_model, x, y, splits, config = pipeline_case(dt=1, epochs=7, dropout=0.5)
        y[splits.train] = 2 + y[splits.train] % 2
        y[splits.val[:8]] = [0, 1] * 4
        x[splits.val[:8]] = 0.0

        def tied_model():
            model = make_model()
            model.weights[0][:, 1] = model.weights[0][:, 0]
            return model

        case = (tied_model, x, y, splits, config)
        calls = force_batch(monkeypatch, case, size)
        assert_matches_sequential(case)
        batches = math.ceil(7 / (size or 7))
        assert calls == {"batches": batches, "forward": batches + 7}
        got_model, _ = train(tied_model(), x, y, splits, config)
        w = got_model.weights[0]
        assert w[:, 0].tobytes() == w[:, 1].tobytes()
        logits = forward(got_model, x[splits.val])
        assert np.array_equal(logits[:8], np.zeros((8, 4)))
        assert (logits.argmax(axis=1) == y[splits.val])[:8].tolist() == [True, False] * 4

    def test_labels_outside_the_classes_never_hit(self, monkeypatch):
        make_model, x, y, splits, config = pipeline_case(dt=1, epochs=5, zero_rows=False)
        y[splits.val[:3]] = [-1, 4, 9]  # no such class; the training rows keep theirs
        calls = force_batch(monkeypatch, (make_model, x, y, splits, config), 2)
        assert_matches_sequential((make_model, x, y, splits, config))
        assert calls == {"batches": 3, "forward": 3}

    @pytest.mark.parametrize("fail_at", [2, 4])  # a middle batch, the last one
    def test_batch_failure_reraised_and_worker_joined(self, monkeypatch, fail_at):
        case = pipeline_case(dt=1, epochs=10, zero_rows=False)
        force_batch(monkeypatch, case, 3)
        make_model, x, y, splits, config = case
        boom = RuntimeError("evaluation failed")
        callers = []
        real_hits = dgmlp.nn._certified_hits

        def failing_hits(*args, **kwargs):
            callers.append(threading.current_thread())
            if len(callers) == fail_at:
                raise boom
            return real_hits(*args, **kwargs)

        monkeypatch.setattr(dgmlp.nn, "_certified_hits", failing_hits)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            train(make_model(), x, y, splits, config)
        assert info.value is boom
        assert threading.active_count() == before
        assert len(callers) == fail_at
        assert threading.current_thread() not in callers


def gamma(n):
    u = 2.0 ** -53
    return n * u / (1.0 - n * u)


def evaluation_gap(logits, x_norms, w_norms, depth):
    """Bound on |l - l'| of any two evaluations of each logit (rows,
    classes): two dot products and two bias adds, plus underflow."""
    return (2.0 * gamma(depth) * (1 + 2.0 ** -53) * np.multiply.outer(x_norms, w_norms)
            + gamma(2) * np.abs(logits) + depth * 2.0 ** -1074)


def certify(logits, x_norms, w_norms, depth, labels=None):
    """_certified_hits on one epoch of (rows, classes) logits."""
    labels = np.zeros(len(logits), dtype=np.int64) if labels is None else labels
    hit, certified = dgmlp.nn._certified_hits(
        logits[:, :, None], labels, x_norms, w_norms[:, None], depth)
    return hit[:, 0], certified[:, 0]


class TestCertificate:
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e150])
    def test_perturbations_within_the_bound_keep_a_certified_argmax(self, scale):
        # logits whose runner-up trails the top by 0.25 to 100 times the
        # pair's bound, pushed against each other by the whole bound: a
        # certified top always stays on top, alone
        rng = np.random.default_rng(21)
        rows, classes, depth = 4000, 4, 300
        x_norms = rng.uniform(0.5, 2.0, rows) * scale
        w_norms = rng.uniform(0.5, 2.0, classes)
        logits = rng.normal(size=(rows, classes)) * x_norms[:, None]
        top = logits.argmax(axis=1)
        rest = (top + rng.integers(1, classes, rows)) % classes
        rows_ = np.arange(rows)
        gap = evaluation_gap(logits, x_norms, w_norms, depth)
        pair = gap[rows_, top] + gap[rows_, rest]
        factor = np.exp(rng.uniform(np.log(0.25), np.log(100.0), rows))
        logits[rows_, rest] = logits[rows_, top] - factor * pair
        gap = evaluation_gap(logits, x_norms, w_norms, depth)
        top = logits.argmax(axis=1)
        labels = rng.integers(0, classes, rows)

        hit, certified = certify(logits, x_norms, w_norms, depth, labels)
        assert certified[factor > 64].all()
        assert not certified[factor < 1].any()
        assert np.array_equal(hit[certified], (top == labels)[certified])
        worst = logits + gap
        worst[rows_, top] = logits[rows_, top] - gap[rows_, top]
        worst = worst[certified]
        kept = worst[np.arange(len(worst)), top[certified]]
        assert (np.sort(worst, axis=1)[:, -2] < kept).all()

    def test_summation_orders_agree_where_certified(self):
        # near ties: column 1 differs from column 0 by 1e-11 times a random
        # direction, so a row's margin between them runs from far above the
        # rounding bound to below it; column 2, 1e-15 away, is below it and
        # often ordered differently by different sums. Wherever the wide
        # product's argmax is certified, narrow products, exact sums and
        # sums in reverse or random order all pick the same class
        rng = np.random.default_rng(5)
        rows, depth = 300, 64
        x = rng.normal(size=(rows, depth))
        w = rng.normal(size=(depth, 3))
        w[:, 1] = w[:, 0] + 1e-11 * rng.normal(size=depth)
        w[:, 2] = w[:, 0] + 1e-15 * rng.normal(size=depth)
        wide = np.hstack([rng.normal(size=(depth, 60)), w])
        logits = (x @ wide)[:, 60:]
        x_norms = np.sqrt((x * x).sum(axis=1))
        w_norms = np.sqrt((w * w).sum(axis=0))
        _, certified = certify(logits, x_norms, w_norms, depth)
        perm = rng.permutation(depth)
        orders = [
            x @ w,
            np.array([[math.fsum(xi * w[:, c]) for c in range(3)] for xi in x]),
            np.array([[sum((xi * w[:, c])[::-1].tolist()) for c in range(3)] for xi in x]),
            np.array([[sum((xi * w[:, c])[perm].tolist()) for c in range(3)] for xi in x]),
        ]
        assert 0 < certified.sum() < rows
        differs = [other.argmax(axis=1) != logits.argmax(axis=1) for other in orders]
        assert not any(d[certified].any() for d in differs)
        assert any(d[~certified].any() for d in differs)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_ties_non_finite_logits_and_overflowed_bounds_never_certified(self, value):
        logits = np.array([[3.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 0.0],
                           [5.0, 1.0, value], [value, 0.0, 1.0], [3.0, 1.0, 0.0]])
        x_norms = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1e300])
        w_norms = np.array([1e10, 1.0, 1.0])
        hit, certified = certify(logits, x_norms, w_norms, 10)
        assert certified.tolist() == [True] + [False] * 5
        assert hit[0]


class TestAdam:
    def test_in_place_step_equals_textbook_update(self):
        # small parameters, ones of more than one block and of rows wider
        # than a block, and gradients holding -0.0
        rng = np.random.default_rng(4)
        shapes = [(5, 3), (3,), (7, 7), (1, 2), (300, 300), (100_000,), (2, 70_000)]
        params = [rng.normal(size=s) for s in shapes]
        ref = [p.copy() for p in params]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr, b1, b2, eps)
        assert all(s.size == 70_000 for s in opt._scratch)  # one row of the widest
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        for t in range(1, 6):
            grads = [rng.normal(size=s) for s in shapes]
            for g in grads:
                g.reshape(-1)[::7] = -0.0
            opt.step(params, grads)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            m = [b1 * mi + (1.0 - b1) * g for mi, g in zip(m, grads)]
            v = [b2 * vi + (1.0 - b2) * g * g for vi, g in zip(v, grads)]
            ref = [p - lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
                   for p, mi, vi in zip(ref, m, v)]
            assert [p.tobytes() for p in params] == [p.tobytes() for p in ref]


class TestTrainMemory:
    def test_traced_peak_holds_one_epoch_of_training_arrays(self):
        # what train holds: the parameters, Adam's m, v and two scratch
        # blocks, the evaluation's rows and two hidden buffers, one epoch's
        # activations (each layer's dropped-out input and its masks) and one
        # gradient set. The slack covers the backward pass's three working
        # arrays (dh, dz and a fresh product); a second gradient set, as
        # when the last epoch's stayed alive through the next backward
        # pass, breaks the bound.
        n_train, n_eval, d, hidden, classes = 200, 600, 32, 256, 5
        rng = np.random.default_rng(7)
        n = n_train + n_eval
        x = rng.normal(size=(n, d))
        y = rng.integers(0, classes, n)
        splits = Splits(train=np.arange(n_train), val=np.arange(n_train, n_train + 300),
                        test=np.arange(n_train + 300, n))
        model = ResidualMlp.create(d, classes, num_layers=6, hidden_dim=hidden,
                                   dropout_rate=0.5, seed=8)
        params = sum(p.nbytes for p in model.parameters())
        adam = 2 * params + 2 * 8 * (1 << 16)
        evaluation = n * (d + 2 * hidden) * 8
        widths = [d] + [hidden] * 5
        activations = sum(n_train * w * (8 + 1) for w in widths) + 5 * n_train * hidden
        slack = 3 * n_train * hidden * 8
        assert slack < params  # the bound tells a second gradient set apart
        config = TrainConfig(learning_rate=1e-3, epochs=4, weight_decay=1e-4, seed=9)
        tracemalloc.start()
        try:
            train(model, x, y, splits, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= params + adam + evaluation + activations + params + slack


    @pytest.mark.parametrize("use_bias", [False, True])
    def test_one_layer_peak_holds_one_evaluation_batch(self, monkeypatch, use_bias):
        # a one-layer model holds one evaluation batch on top of its
        # training arrays: the block of weight snapshots and its product,
        # at most _EVAL_BATCH_BYTES together, and the certificate's working
        # arrays, four (rows, batch) float64 arrays and two bool ones. The
        # slack covers the small arrays of a gradient pass and of the
        # accuracies, and two of numpy's ufunc buffers (8192 values each); a
        # second product alive, as when a batch's outlived the next batch,
        # breaks the bound
        n_train, n_eval, d, classes, batch = 200, 600, 32, 5, 25
        rng = np.random.default_rng(7)
        n = n_train + n_eval
        x = rng.normal(size=(n, d))
        y = rng.integers(0, classes, n)
        splits = Splits(train=np.arange(n_train), val=np.arange(n_train, n_train + 300),
                        test=np.arange(n_train + 300, n))
        model = ResidualMlp.create(d, classes, num_layers=1, use_bias=use_bias,
                                   dropout_rate=0.5, seed=8)
        params = sum(p.nbytes for p in model.parameters())
        monkeypatch.setattr(dgmlp.nn, "_EVAL_BATCH_BYTES", batch * (n * classes * 8 + params))
        adam = 4 * params  # m, v and two scratch blocks no larger than a parameter
        evaluation = n * d * 8 + n * (8 + 8 + 1)  # the rows, their norms and labels
        activations = n_train * d * (8 + 8 + 1)  # dropout's draws, its output and mask
        certificate = n * batch * (4 * 8 + 2)
        slack = n * batch * 8 + 2 * 8192 * 8
        assert slack < n * batch * classes * 8  # one product
        config = TrainConfig(learning_rate=1e-3, epochs=3 * batch - 4, weight_decay=1e-4,
                             seed=9)
        tracemalloc.start()
        try:
            train(model, x, y, splits, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (params + adam + evaluation + activations + params
                        + dgmlp.nn._EVAL_BATCH_BYTES + certificate + slack)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
    def test_rates_must_be_finite(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    def test_seed_must_not_be_negative(self):
        assert TrainConfig(seed=0).seed == 0
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

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
