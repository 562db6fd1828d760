"""dgmlp benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pubmed-train --seed 1 --seconds 30 --trace 0

Builds the seeded input (cached per seed, untimed), then starts fresh
child processes (child.py) one after another until ``--seconds`` is used
up, with at least MIN_CHILDREN of them. Each child runs the pipeline once
and checks its outputs. The last line of stdout is one JSON object:
``correct``, ``attempted`` and ``failed`` count the children, and
``metrics`` holds the medians over children of every end-to-end metric
(``--trace 0``) or of every per-layer metric (``--trace 1``), named and
unit-labeled as in BENCHMARK.json. A traced run alternates traced and
untraced children, so it can report the tracing overhead.

The full record (environment, input sizes, every child, spans) goes to
``.perfbench-work/results/``. The benchmark reads and writes only inside
the checkout and builds the library from its ``src/`` directory.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: with the default two OpenBLAS threads on a
# 2-core machine, training times were bimodal (0.21-1.23 s over six runs).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from workloads import INPUTS, WORKLOADS  # noqa: E402

MIN_CHILDREN = 3
TIME_LIMIT_S = 170.0  # no child may still run after this, counted from start
# medians kept in the run's record; BENCHMARK.json picks what is reported
STAGES = ("setup_s", "preprocess_s", "train_s", "output_s", "total_s", "peak_rss_mb")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dgmlp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_child(args, input_dir: Path, index: int, traced: bool, timeout: float) -> dict:
    out = WORK / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}-{index}"
    spans = WORK / "results" / f"{args.workload}-{args.size}-seed{args.seed}-spans-{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--size", args.size, "--input", str(input_dir), "--seed", str(args.seed),
           "--trace", str(int(traced)), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record = {"failures": [f"child timed out after {timeout:.0f} s"]}
    else:
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            record = {"failures": [f"child exited {proc.returncode}: {tail[0]}"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["process_s"] = time.monotonic() - t0
    record["traced"] = traced
    return record


def tail_percentile(n: int, tail: int = 10) -> int:
    """Highest whole percentile of n samples that leaves ``tail`` of them above it."""
    return max(50, int(100.0 * (1.0 - tail / n))) if n else 50


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(WORKLOADS), default="full",
                    help="input size; 'toy' is for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "dgmlp" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}/dgmlp", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    spec = WORKLOADS[args.size][args.workload]
    params = INPUTS[args.size][spec["input"]]
    sys.path.insert(0, str(SRC))
    from dgmlp.data import erdos_renyi
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    input_dir, meta, built = inputs.cached(WORK / "inputs", args.size, spec["input"],
                                           params, args.seed, erdos_renyi)

    measure_start = time.monotonic()
    records = []
    while True:
        traced = bool(args.trace) and len(records) % 2 == 0
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        record = run_child(args, input_dir, len(records), traced, remaining)
        records.append(record)
        status = "ok" if not record["failures"] else "; ".join(record["failures"])
        print(f"child {len(records)} traced={int(traced)} process={record['process_s']:.2f}s "
              f"total={record.get('total_s', float('nan')):.3f}s {status}", file=sys.stderr)
        walls = [r["process_s"] for r in records]
        next_end = time.monotonic() + statistics.median(walls)
        if next_end - started > TIME_LIMIT_S - 5.0:
            break
        if len(records) >= MIN_CHILDREN and next_end - measure_start > args.seconds:
            break

    ok = [r for r in records if not r["failures"]]
    failed = len(records) - len(ok)
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not ok or (args.trace and not (plain and traced)):
        print(f"error: {failed} of {len(records)} children failed; no result",
              file=sys.stderr)
        return 1

    e2e = {k: median_of(plain, k) for k in STAGES}
    values = dict(e2e)
    layers = {}
    if args.trace:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        epochs = [ms for r in traced for ms in r["epoch_ms"]]
        pct = tail_percentile(len(epochs))
        layers["nn.epoch_ms_p50"] = float(np.percentile(epochs, 50)) if epochs else 0.0
        layers["nn.epoch_ms_tail"] = float(np.percentile(epochs, pct)) if epochs else 0.0
        layers["nn.epoch_tail_percentile"] = pct
        accs = [r["test_accuracy"] for r in ok if r["test_accuracy"] is not None]
        layers["nn.test_accuracy"] = statistics.median(accs) if accs else 0.0
        layers["trace.overhead_pct"] = 100.0 * (
            median_of(traced, "total_s") / e2e["total_s"] - 1.0)
        values = layers

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "input": {k: meta[k] for k in ("nodes", "dim", "edges", "nonzero_features",
                                       "file_bytes")},
        "input_built_now": built,
        "measured_s": time.monotonic() - measure_start,
        "end_to_end": e2e,
        "per_layer": layers,
        "children": records,
        "result": result,
    }
    out = WORK / "results" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
