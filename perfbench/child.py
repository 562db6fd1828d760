"""One benchmark pass in a fresh process: set-up, pipeline, outputs, checks.

Runs the CLI's own command function (``cli._cmd_train`` or
``cli._cmd_profile``): it loads the input, calls ``run_train`` or
``run_profile`` and writes the outputs. The stages are timed by wrapping
the names the command looks up (``load_run_dataset``, ``run_train``,
``run_profile``) from outside; ``output_s`` is what remains. On
``er-deep-head``, which has no CLI command, the loader is replaced by
``erdos_renyi`` plus the generated features, and ``_cmd_train`` runs as
for the pubmed input. The pass then checks the outputs and prints one
JSON line. With ``--trace 1`` every traced public function records a span
(see tracer.py) and the per-layer summary is added to the line; the
spans go to ``--spans``.

Run by run.py, which sets PYTHONPATH to the checkout's ``src`` and pins
the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import dgmlp
import numpy as np
from dgmlp import cli, data, runner
from dgmlp.nn import load_checkpoint

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, summarize  # noqa: E402
from workloads import INPUTS, WORKLOADS  # noqa: E402


# Every pass, traced or not, repeats the set-up (each rep loads the input
# again) until REPEAT_UNTIL_S is spent, and reports the median: on
# er-deep-head a single 50 ms set-up samples the shared machine's speed at
# one instant. A traced pass keeps the spans of the last rep only.
REPEAT_UNTIL_S = 0.5
MAX_REPEATS = 25


def _finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=np.float64)).all() for v in values)


def check_outputs(spec, meta, result, profile, model, out_dir: Path) -> list[str]:
    """Every check the run failed, as one line each (empty when all pass)."""
    failures = []
    cfg = spec["config"]
    depth = cfg["dp"]
    if not _finite(profile.nsl, profile.gsl, profile.weights):
        failures.append("profile has non-finite values")
    row_err = float(np.abs(profile.weights.sum(axis=1) - 1.0).max())
    if row_err > 1e-12:
        failures.append(f"step-weight rows miss 1 by {row_err:.3g}")
    oracle = np.asarray(meta["oracle_gsl_raw"][:depth + 1])
    gsl_err = float(np.abs(np.asarray(profile.gsl) - oracle).max())
    if gsl_err > 1e-10:
        failures.append(f"gsl_raw differs from the scipy oracle by {gsl_err:.3g}")

    if spec["command"] == "train":
        curves = result["metrics"]
        if not _finite(curves["train_loss"], curves["val_accuracy"], result["test_accuracy"]):
            failures.append("train result has non-finite values")
        if result["test_accuracy"] < spec["accuracy_floor"]:
            failures.append(f"test_accuracy {result['test_accuracy']:.4f} "
                            f"below floor {spec['accuracy_floor']}")
        saved = json.loads((out_dir / "train_result.json").read_text(encoding="utf-8"))
        if saved["test_accuracy"] != result["test_accuracy"]:
            failures.append("train_result.json does not match the result")
        restored = load_checkpoint(out_dir / "model.npz").parameters()
        if not all(np.array_equal(a, b) for a, b in zip(restored, model.parameters())):
            failures.append("model.npz does not restore the trained weights")
        return failures

    if not _finite(result["gsl_raw"], result["gsl_combined"], result["tercile_low"],
                   result["tercile_mid"], result["tercile_high"]):
        failures.append("profile result has non-finite values")
    cap0 = result["gsl_combined"][result["caps"].index(0)]
    if abs(cap0 - result["gsl_raw"][0]) > 1e-12:
        failures.append(f"gsl_combined at cap 0 ({cap0!r}) != gsl_raw[0] "
                        f"({result['gsl_raw'][0]!r})")
    rows = np.loadtxt(out_dir / "node_profile.csv", delimiter=",", skiprows=1, ndmin=2)
    n, k1 = profile.nsl.shape
    if rows.shape != (n * k1, 4):
        failures.append(f"node_profile.csv has shape {rows.shape}, expected ({n * k1}, 4)")
    elif not (np.array_equal(rows[:, 0], np.repeat(np.arange(n), k1))
              and np.array_equal(rows[:, 1], np.tile(np.arange(k1), n))
              and np.array_equal(rows[:, 2], profile.nsl.ravel())
              and np.array_equal(rows[:, 3], profile.weights.ravel())):
        failures.append("node_profile.csv does not parse back to the profile")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--input", required=True, type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.size][args.workload]
    params = INPUTS[args.size][spec["input"]]
    meta = json.loads((args.input / "meta.json").read_text(encoding="utf-8"))
    args.out.mkdir(parents=True, exist_ok=True)
    train = spec["command"] == "train"

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    # Wrappers on the names the CLI command looks up at call time. They
    # time the stages and keep what the output checks need.
    seen = {}
    load_run_dataset = cli.load_run_dataset

    def load_input(cfg):
        if spec["input"] == "csbm":
            return load_run_dataset(cfg)
        graph = data.erdos_renyi(params["nodes"], params["edge_prob"], args.seed)
        features = np.load(args.input / "features.npy")
        labels = np.load(args.input / "labels.npy")
        with np.load(args.input / "splits.npz") as parts:
            splits = data.Splits(train=parts["train"], val=parts["val"], test=parts["test"])
        return data.Dataset(graph, features, labels, splits, int(labels.max()) + 1)

    def timed_setup(cfg):
        times = []
        while True:
            if tracer is not None:
                del tracer.spans[:]  # no span is open and set-up counts nothing
            seen["pass_start"] = start = time.perf_counter()
            dataset = load_input(cfg)
            times.append(time.perf_counter() - start)
            if len(times) >= MAX_REPEATS or sum(times) >= REPEAT_UNTIL_S:
                break
        seen["setup_times"] = times
        seen["setup_end"] = time.perf_counter()
        return dataset

    run_name = "run_train" if train else "run_profile"
    run_fn = getattr(cli, run_name)

    def timed_run(*a, **kw):
        start = time.perf_counter()
        out = run_fn(*a, **kw)
        seen["run_s"] = time.perf_counter() - start
        seen["result"] = out
        if not train:
            seen["profile"] = out["profile"]  # _cmd_profile pops it
        return out

    # run_train keeps the smoothness profile to itself; the output checks
    # need its step weights and gsl, so take them from prepare_combined
    prepare_combined = runner.prepare_combined

    def capture_prepare(*a, **kw):
        out = prepare_combined(*a, **kw)
        seen["profile"] = out[1]
        return out

    cli.load_run_dataset = timed_setup
    setattr(cli, run_name, timed_run)
    runner.prepare_combined = capture_prepare

    cfg = runner.RunConfig(
        dataset=str(args.input) if spec["input"] == "csbm" else None,
        feature_norm=params["feature_norm"], seed=args.seed,
        out=str(args.out / "train_result.json") if train else str(args.out),
        **spec["config"])
    if train:
        cli._cmd_train(cfg, str(args.out / "model.npz"))
        result, model, _ = seen["result"]
    else:
        cli._cmd_profile(cfg)
        result, model = seen["result"], None
    end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    setup_s = statistics.median(seen["setup_times"])
    preprocess_s = result["preprocess_seconds"] if train else seen["run_s"]
    train_s = result["train_seconds"] if train else 0.0
    output_s = end - seen["setup_end"] - seen["run_s"]
    record = {
        "setup_s": setup_s,
        "preprocess_s": preprocess_s,
        "train_s": train_s,
        "output_s": output_s,
        "total_s": setup_s + preprocess_s + train_s + output_s,
        "pass_wall_s": end - seen["pass_start"],
        "setup_reps": len(seen["setup_times"]),
        "setup_first_s": seen["setup_times"][0],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "test_accuracy": result["test_accuracy"] if train else None,
    }
    if tracer is not None:
        record["layers"], record["epoch_ms"] = summarize(
            tracer.spans, tracer.counts, record["pass_wall_s"])
        if args.spans is not None:
            args.spans.write_text(json.dumps(
                {"fields": ["id", "name", "parent", "start_s", "end_s"],
                 "spans": tracer.spans}), encoding="utf-8")
    record["failures"] = check_outputs(spec, meta, result, seen["profile"], model, args.out)
    if Path(dgmlp.__file__).resolve().parents[1] != HERE.parent / "src":
        record["failures"].append(f"library imported from {dgmlp.__file__}, not src/")
    if not all(math.isfinite(record[k]) for k in ("setup_s", "total_s", "peak_rss_mb")):
        record["failures"].append("non-finite timing")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
