"""The benchmark's child process runs against this checkout's library.

perfbench/child.py wraps names the library must keep (the tracer's traced
functions, the CLI's command functions and the runner names it times) and
checks the outputs of each pass. One traced toy pass per workload catches a
library change that breaks the harness.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dgmlp import erdos_renyi

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = perfbench_module("inputs")
workloads = perfbench_module("workloads")
WORKLOADS, INPUTS = workloads.WORKLOADS["toy"], workloads.INPUTS["toy"]
SEED = 3


def test_every_traced_name_resolves():
    # Tracer.install looks each name up with getattr on its dgmlp module;
    # a name the library drops would fail only a traced benchmark run
    tracer = perfbench_module("tracer")
    missing = []
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"dgmlp.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):  # "Cls.meth" is a method of Cls
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert missing == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_toy_pass_has_no_failures(tmp_path, workload):
    kind = WORKLOADS[workload]["input"]
    input_dir, _, _ = inputs.cached(tmp_path / "inputs", "toy", kind, INPUTS[kind], SEED,
                                    erdos_renyi)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload", workload,
         "--size", "toy", "--input", str(input_dir), "--seed", str(SEED),
         "--trace", "1", "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["failures"] == []
    assert record["layers"]
