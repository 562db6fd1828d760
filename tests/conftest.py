"""Shared fixtures and independent dense oracles used across the suite."""

import os
import sys
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dgmlp import Graph, build_graph, load_dataset

# Property tests draw the same examples on every run: no flakes, and a
# fixed cost on a small shared machine.
settings.register_profile("dgmlp", derandomize=True, deadline=None, database=None)
settings.load_profile("dgmlp")

FIXTURES = Path(__file__).parent / "fixtures"
DATA_ROOT = Path(os.environ.get("DGMLP_DATA",
                                Path(__file__).resolve().parents[1] / "data"))


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread of its own running; each new
    thread gets a few seconds to finish first."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for thread in left:
        thread.join(timeout=5.0)
    running = [t.name for t in left if t.is_alive()]
    if running:
        pytest.fail(f"test left threads running: {running}")


# forked workers (propagation._run_forked) run on Linux only
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="forked workers run on Linux only")


def open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


def assert_no_worker_left(fds: set[str]) -> None:
    """No child process is left, reaped or not, and the open file
    descriptors are those in fds."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@pytest.fixture
def no_worker_left():
    """Fail a test that leaves a child process or a file descriptor behind."""
    fds = open_fds()
    yield
    assert_no_worker_left(fds)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pids of the processes os.fork makes during the test, in order."""
    made, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture
def tiny_dir() -> Path:
    return FIXTURES / "tiny"


@lru_cache(maxsize=None)
def citation_dataset(name: str):
    """Load a real citation dataset, or skip with fetch instructions."""
    path = DATA_ROOT / name
    if not (path / "features.csv").is_file():
        pytest.skip(
            f"{name} dataset not found at {path}; run "
            "scripts/prepare_citation_data.py on a networked machine "
            "(see README) and re-run"
        )
    return load_dataset(path)


def random_graph(n: int, num_pairs: int, seed: int) -> Graph:
    """Random simple graph from num_pairs sampled (possibly repeated) pairs."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(num_pairs, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    return build_graph(pairs, n)


def dense_normalized(graph: Graph, r: float) -> np.ndarray:
    """Dense oracle for the normalized adjacency, built with dense matrix ops."""
    n = graph.num_nodes
    a = np.zeros((n, n))
    for u, v in graph.undirected_edges():
        a[u, v] = a[v, u] = 1.0
    a_tilde = a + np.eye(n)
    dtil = a_tilde.sum(axis=1)
    return np.diag(dtil ** (r - 1.0)) @ a_tilde @ np.diag(dtil ** (-r))
