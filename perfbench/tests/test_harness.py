"""Toy-size smoke test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs every workload on toy inputs, traced and untraced, and checks the
result line against BENCHMARK.json; also checks the scipy oracle against
the library and the tracer's span arithmetic.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracer  # noqa: E402
from workloads import INPUTS, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# exact work counts of the toy workloads (see workloads.py)
TOY_SPMM_CALLS = {"pubmed-train": 4, "pubmed-profile": 6 + 3 + 6, "er-deep-head": 4}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_contract(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["propagation.spmm_calls"] == TOY_SPMM_CALLS[workload]
    # at toy size the benchmark's own glue (np.load, Dataset) is a visible share
    assert 50.0 < values["trace.top_level_pct"] <= 100.0
    if workload == "pubmed-profile":
        params = INPUTS["toy"]["csbm"]
        assert values["smoothness.csv_rows"] == params["nodes"] * (6 + 1)
        assert values["nn.epochs"] == 0
    else:
        assert values["nn.epochs"] == WORKLOADS["toy"][workload]["config"]["epochs"]
        assert values["nn.epoch_ms_p50"] > 0


def test_missing_library_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("pubmed-train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_oracle_matches_library():
    from dgmlp import build_graph, normalize, propagate, stationary_features
    from dgmlp.runner import row_normalize
    from dgmlp.smoothness import compute_nsl

    edges, x, _, _ = inputs.make_csbm(INPUTS["toy"]["csbm"], seed=5)
    n = x.shape[0]
    graph = build_graph(edges, n)
    feats = row_normalize(x, "l1")
    stack = propagate(normalize(graph, 0.5), feats, 5)
    gsl = compute_nsl(stack, stationary_features(graph, feats, 0.5)).gsl
    np.testing.assert_allclose(inputs.oracle_gsl(n, edges, x, 5, "l1"), gsl,
                               rtol=0, atol=1e-12)


def test_cache_rebuilds_when_its_key_changes(tmp_path):
    from dgmlp.data import erdos_renyi

    params = dict(INPUTS["toy"]["er"])
    _, _, built = inputs.cached(tmp_path, "toy", "er", params, 2, erdos_renyi)
    assert built
    _, _, built = inputs.cached(tmp_path, "toy", "er", params, 2, erdos_renyi)
    assert not built
    _, meta, built = inputs.cached(tmp_path, "toy", "er", dict(params, signal=0.4), 2,
                                   erdos_renyi)
    assert built and meta["params"]["signal"] == 0.4

    def other_sampler(n, p, seed):
        return erdos_renyi(n, p, seed + 1)

    _, _, built = inputs.cached(tmp_path, "toy", "er", dict(params, signal=0.4), 2,
                                other_sampler)
    assert built


def test_self_time_subtracts_children():
    spans = [
        [0, "runner.run_train", None, 0.0, 10.0],
        [1, "propagation.spmm", 0, 1.0, 3.0],
        [2, "nn.train", 0, 4.0, 9.0],
        [3, "nn.loss_and_grad", 2, 4.0, 5.0],
        [4, "nn.forward", 2, 5.0, 6.0],
        [5, "nn.loss_and_grad", 2, 6.0, 7.5],
        [6, "nn.forward", 2, 7.5, 8.0],
    ]
    counts = {"propagation.spmm_flops_computed": 0, "propagation.stack_bytes_computed": 0,
              "smoothness.csv_rows": 0, "nn.epochs": 2}
    m, epoch_ms = tracer.summarize(spans, counts, total_s=12.0)
    assert m["runner.self_s"] == pytest.approx(10.0 - 2.0 - 5.0)
    assert m["nn.self_s"] == pytest.approx(5.0)  # children are nn spans too
    assert m["propagation.spmm_ms_per_call"] == pytest.approx(2000.0)
    assert m["trace.top_level_pct"] == pytest.approx(100.0 * 10.0 / 12.0)
    assert epoch_ms == pytest.approx([2000.0, 2000.0])
