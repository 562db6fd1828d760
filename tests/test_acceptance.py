"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6 need the real citation datasets (Cora, Citeseer, PubMed) in
the text layout described in the README. Point DGMLP_DATA at a directory
containing cora/, citeseer/, pubmed/ subdirectories (default: <repo>/data).
Without them those tests skip loudly; scripts/prepare_citation_data.py
fetches and converts the standard files on a networked machine.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from dgmlp import ResidualMlp, RunConfig, TrainConfig, combine, normalize, \
    propagate, propagation_weights, run_profile, smoothness_profile, spmm, \
    stationary_features, subsample_labels, train
from dgmlp.nn import loss_and_grad
from dgmlp.runner import _propagated_step, _train_on, prepare_combined, \
    row_normalize, run_scale
from dgmlp.smoothness import SmoothnessProfile

from conftest import citation_dataset, dense_normalized, random_graph
from test_nn import finite_difference_grads

CITATION_DP = {"cora": 20, "citeseer": 15, "pubmed": 20}
SEEDS = list(range(10))


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} [{detail}]")
    assert passed, f"criterion {criterion}: {detail}"


def _train_config(seed: int, lr: float = 0.1) -> TrainConfig:
    # repo defaults for the unspecified knobs: decay 5e-6 (dropout 0.1 is
    # set on the model)
    return TrainConfig(learning_rate=lr, epochs=200, weight_decay=5e-6, seed=seed)


def _dgmlp_accuracies(ds, dp: int, seeds, temperature: float = 1.0):
    feats = row_normalize(ds.features, "l1")
    combined, _ = prepare_combined(ds.graph, feats, dp=dp, r=0.5,
                                   temperature=temperature)
    accs = []
    for seed in seeds:
        model = ResidualMlp.create(combined.shape[1], ds.num_classes,
                                   num_layers=1, dropout_rate=0.1, seed=seed)
        _, metrics = train(model, combined, ds.labels, ds.splits, _train_config(seed))
        accs.append(metrics.test_accuracy)
    return np.asarray(accs)


def _sgc_accuracies(ds, k: int, seeds):
    feats = _propagated_step(ds.graph, row_normalize(ds.features, "l1"), k=k, r=0.5)
    cfg = RunConfig(baseline="sgc")  # its defaults are _train_config's knobs
    return np.asarray([
        _train_on(feats, ds.labels, ds.splits, ds.num_classes, cfg, seed=seed)[1].test_accuracy
        for seed in seeds
    ])


class TestCriterion1CoraAccuracy:
    def test_cora_dgmlp_mean_accuracy(self):
        ds = citation_dataset("cora")
        t0 = time.perf_counter()
        accs = _dgmlp_accuracies(ds, dp=20, seeds=SEEDS)
        elapsed = time.perf_counter() - t0
        mean = accs.mean()
        _report(
            "1 cora-accuracy",
            mean >= 0.80 and elapsed < 300.0,
            f"mean test acc {mean:.4f} (+-{accs.std():.4f}) over 10 seeds, "
            f"threshold 0.80, runtime {elapsed:.0f}s < 300s",
        )


class TestCriterion2OrderingVsSgc:
    @pytest.mark.parametrize("name", ["cora", "citeseer", "pubmed"])
    def test_dgmlp_beats_sgc_k2(self, name):
        ds = citation_dataset(name)
        dgmlp_mean = _dgmlp_accuracies(ds, dp=CITATION_DP[name], seeds=SEEDS).mean()
        sgc_mean = _sgc_accuracies(ds, k=2, seeds=SEEDS).mean()
        _report(
            f"2 ordering-{name}",
            dgmlp_mean > sgc_mean,
            f"DGMLP {dgmlp_mean:.4f} vs SGC(k=2) {sgc_mean:.4f}",
        )


class TestCriterion3GslDecay:
    def test_pubmed_gsl_ratio(self):
        ds = citation_dataset("pubmed")
        t0 = time.perf_counter()
        gsl = run_profile(ds, RunConfig(dp=10))["gsl_raw"]
        elapsed = time.perf_counter() - t0
        ratio = gsl[10] / gsl[1]
        _report(
            "3 gsl-decay",
            ratio <= 0.4 and elapsed < 60.0,
            f"GSL(10)/GSL(1) = {ratio:.4f} <= 0.4, runtime {elapsed:.1f}s < 60s",
        )


class TestCriterion4AntiOverSmoothing:
    def test_pubmed_combined_gsl_stays_high(self):
        ds = citation_dataset("pubmed")
        t0 = time.perf_counter()
        result = run_profile(ds, RunConfig(dp=100, caps=[100], temperature=0.2))
        combined_gsl = result["gsl_combined"][0]
        raw_gsl_5 = result["gsl_raw"][5]
        elapsed = time.perf_counter() - t0
        _report(
            "4 anti-over-smoothing",
            combined_gsl > raw_gsl_5 and elapsed < 300.0,
            f"combined GSL at depth 100 (T=0.2) {combined_gsl:.4f} > "
            f"raw GSL at depth 5 {raw_gsl_5:.4f}, runtime {elapsed:.0f}s < 300s",
        )


class TestCriterion5DegreeStratifiedSmoothing:
    def test_pubmed_degree_terciles(self):
        ds = citation_dataset("pubmed")
        result = run_profile(ds, RunConfig(dp=5))
        low_mean = result["tercile_low"][5]
        high_mean = result["tercile_high"][5]
        _report(
            "5 degree-smoothing",
            high_mean < low_mean,
            f"mean NSL at k=5: high-degree tercile {high_mean:.4f} < "
            f"low-degree tercile {low_mean:.4f}",
        )


class TestCriterion6LabelSparsityTrend:
    def test_pubmed_sgc_label_sparsity(self):
        ds = citation_dataset("pubmed")
        feats = row_normalize(ds.features, "l1")
        adj = normalize(ds.graph, 0.5)

        # one propagation chain, snapshots at the depths under test
        snapshots = {}
        cur = feats
        for k in range(1, 17):
            cur = spmm(adj, cur)
            if k in (2, 4, 16):
                snapshots[k] = cur

        def sgc_acc(features, per_class, seed):
            sub = subsample_labels(ds, per_class, seed)
            model = ResidualMlp.create(features.shape[1], ds.num_classes,
                                       num_layers=1, dropout_rate=0.1, seed=seed)
            _, metrics = train(model, features, sub.labels, sub.splits,
                               _train_config(seed))
            return metrics.test_accuracy

        one_label_2 = np.mean([sgc_acc(snapshots[2], 1, s) for s in SEEDS])
        one_label_16 = np.mean([sgc_acc(snapshots[16], 1, s) for s in SEEDS])
        full_4 = np.mean([sgc_acc(snapshots[4], 20, s) for s in SEEDS])
        full_16 = np.mean([sgc_acc(snapshots[16], 20, s) for s in SEEDS])

        sparse_gap = one_label_16 - one_label_2
        dense_gap = full_4 - full_16
        _report(
            "6 label-sparsity",
            sparse_gap >= 0.03 and dense_gap > 0.0,
            f"1 label/class: acc(dp=16) {one_label_16:.4f} - acc(dp=2) "
            f"{one_label_2:.4f} = {sparse_gap:.4f} >= 0.03; "
            f"20 labels/class: acc(dp=4) {full_4:.4f} > acc(dp=16) {full_16:.4f}",
        )


class TestCriterion7PropertySuite:
    def test_a_sparse_propagation_matches_dense_oracle(self):
        worst = 0.0
        for n, seed in [(4, 0), (8, 1), (16, 2), (32, 3), (64, 4), (64, 5)]:
            g = random_graph(n, 3 * n, seed)
            x = np.random.default_rng(seed + 20).standard_normal((n, 5))
            stack = propagate(normalize(g, 0.5), x, 4)
            dense = dense_normalized(g, 0.5)
            cur = x
            for k in range(1, 5):
                cur = dense @ cur
                worst = max(worst, float(np.abs(stack.steps[k] - cur).max()))
        _report("7a propagation-oracle", worst < 1e-10,
                f"max |sparse - dense| = {worst:.2e} < 1e-10 on graphs up to N=64")

    def test_b_stationary_fixed_point(self):
        worst = 0.0
        for r in (0.0, 0.5, 1.0):
            for seed in (0, 1):
                g = random_graph(40, 120, seed)
                x = np.random.default_rng(seed + 30).random((40, 6))
                stat = stationary_features(g, x, r)
                resid = np.abs(spmm(normalize(g, r), stat) - stat).max()
                worst = max(worst, float(resid / max(1.0, np.abs(stat).max())))
        _report("7b stationary-fixed-point", worst < 1e-10,
                f"max fixed-point residual = {worst:.2e} < 1e-10 for r in {{0, 0.5, 1}}")

    def test_c_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 5))
        y = rng.integers(0, 3, 12)
        ok = True
        worst = 0.0
        for kwargs, wd in [(dict(num_layers=1), 0.0),
                           (dict(num_layers=3, hidden_dim=6, use_bias=True), 0.005),
                           (dict(num_layers=4, hidden_dim=6), 0.01)]:
            model = ResidualMlp.create(5, 3, seed=11, **kwargs)
            assert sum(p.size for p in model.parameters()) <= 1000
            _, grads = loss_and_grad(model, x, y, weight_decay=wd)
            fd = finite_difference_grads(model, x, y, wd)
            for a, b in zip(grads, fd):
                ok = ok and np.allclose(a, b, rtol=1e-4, atol=1e-7)
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-7)
                worst = max(worst, float((np.abs(a - b) / denom).max()))
        _report("7c gradient-oracle", ok,
                f"worst relative error vs central differences = {worst:.2e} < 1e-4")

    def test_d_weight_rows_sum_to_one(self):
        g = random_graph(30, 90, 6)
        x = np.random.default_rng(7).random((30, 4))
        stack = propagate(normalize(g, 0.5), x, 8)
        profile = smoothness_profile(stack, stationary_features(g, x, 0.5), 0.7)
        err = np.abs(profile.weights.sum(axis=1) - 1.0).max()
        rnd = propagation_weights(
            SmoothnessProfile(nsl=np.random.default_rng(8).standard_normal((50, 9)),
                              gsl=np.zeros(9)), 0.3)
        err = max(err, np.abs(rnd.sum(axis=1) - 1.0).max())
        _report("7d weight-rows", err < 1e-12,
                f"max |row sum - 1| = {err:.2e} < 1e-12")

    def test_e_combine_envelope(self):
        ok = True
        for seed in (0, 1, 2):
            g = random_graph(20, 60, seed)
            x = np.random.default_rng(seed + 40).standard_normal((20, 4))
            stack = propagate(normalize(g, 0.5), x, 5)
            profile = smoothness_profile(stack, stationary_features(g, x, 0.5), 0.5)
            out = combine(stack, profile.weights)
            cube = np.stack(stack.steps)
            ok = ok and bool((out >= cube.min(axis=0) - 1e-12).all())
            ok = ok and bool((out <= cube.max(axis=0) + 1e-12).all())
        _report("7e combine-envelope", ok,
                "combined features lie inside the per-coordinate stack envelope")

    def test_f_zero_hidden_is_identity(self):
        model = ResidualMlp.create(6, 6, num_layers=6, hidden_dim=6, seed=9)
        model.weights[0][:] = np.eye(6)
        model.weights[-1][:] = np.eye(6)
        for w in model.weights[1:-1]:
            w[:] = 0.0
        x = np.abs(np.random.default_rng(10).standard_normal((15, 6)))
        from dgmlp import forward
        same = np.array_equal(forward(model, x), x)
        _report("7f residual-identity", same,
                "zero hidden weights make the residual stack the identity map")


class TestCriterion8Scalability:
    def test_er_pipeline_time_and_memory(self):
        cfg = RunConfig(dp=12, dt=6, hidden=512, epochs=50, lr=0.001,
                        dropout=0.5, weight_decay=0.0, seed=0,
                        sizes=[10_000, 30_000, 100_000],
                        edge_prob=1e-4, dim=64, classes=10)
        rows = run_scale(cfg)
        big = rows[-1]
        total_big = big["preprocess_seconds"] + big["train_seconds"]
        peaks = [r["peak_traced_mb"] for r in rows]
        prep = [r["preprocess_seconds"] for r in rows]
        monotone_mem = peaks[0] <= peaks[1] <= peaks[2]
        # ~linear: 10x nodes may grow memory at most 2x10; rules out
        # quadratic blowup without overfitting the constant terms
        linear_mem = peaks[2] <= 20.0 * peaks[0]
        monotone_prep = prep[0] <= prep[1] <= prep[2]
        # the planted labels are learnable: 0.80/0.78/0.74 measured, 0.10 chance
        accs = [r["test_accuracy"] for r in rows]
        learned = min(accs) >= 3.0 / cfg.classes
        _report(
            "8 scalability",
            total_big < 900.0 and monotone_mem and linear_mem and monotone_prep and learned,
            f"1e5-node run {total_big:.0f}s < 900s; peaks {peaks[0]:.0f}/"
            f"{peaks[1]:.0f}/{peaks[2]:.0f} MB monotone, x{peaks[2] / peaks[0]:.1f} "
            f"over x10 nodes (<= x20); test accuracy "
            f"{'/'.join(f'{a:.2f}' for a in accs)} >= {3.0 / cfg.classes:.2f}",
        )
