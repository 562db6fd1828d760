"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/report.py --seed 1 [--trace]

Runs ``run.py`` for each workload in BENCHMARK.json, one after another,
for ``run_seconds`` each, and prints every end-to-end metric (and, with
``--trace``, every per-layer metric from a separate traced run) with the
failed/attempted counts of the output checks. Exits nonzero if any run
fails or any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: run.py exited {proc.returncode}: "
              f"{(proc.stderr.strip().splitlines() or ['no output'])[-1]}")
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also make the traced run")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ((0, 1) if args.trace else (0,)):
            result = run(workload, args.seed, bench["run_seconds"], trace)
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"]
            kind = "per-layer" if trace else "end-to-end"
            print(f"{workload} [{kind}] failed/attempted = "
                  f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
