"""Multi-step feature propagation and its closed-form infinite-step limit."""

from __future__ import annotations

import os
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from .errors import DimensionError, ParameterError, ValidationError
from .graph import Graph, NormalizedAdjacency


def as_feature_matrix(x) -> np.ndarray:
    """Coerce to a 2-D C-contiguous float64 array and reject non-finite entries.

    C order makes every row a contiguous run, so a row reduction sums in
    the same order whatever the caller's layout.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    if not np.isfinite(arr).all():
        raise ValidationError("feature matrix contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class PropagatedStack:
    """The sequence [X^(0), ..., X^(K)] of propagated feature matrices."""

    steps: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValidationError("propagated stack must contain at least X^(0)")
        shape = self.steps[0].shape
        if any(s.shape != shape for s in self.steps):
            raise DimensionError("all stack steps must share one shape")

    @property
    def max_step(self) -> int:
        return len(self.steps) - 1

    @property
    def num_nodes(self) -> int:
        return self.steps[0].shape[0]


def _num_shards() -> int:
    """Row shards per sharded call: one per core this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_sharded(fn, num_rows: int, shards: int, block: int = 1) -> None:
    """Run fn(shard, lo, hi) over contiguous row ranges covering num_rows.

    There are at most `shards` ranges, each a whole number of `block`
    rows (the last may be shorter). Shard 0 runs on this thread and the
    others on threads of their own, which are all joined before the
    first error, in shard order, is re-raised.
    """
    blocks = -(-num_rows // block)
    count = max(1, min(shards, blocks))
    bounds = [min(num_rows, blocks * i // count * block) for i in range(count + 1)]
    errors = [None] * count

    def run(shard: int) -> None:
        try:
            fn(shard, bounds[shard], bounds[shard + 1])
        except BaseException as exc:  # re-raised below, on this thread
            errors[shard] = exc

    threads = [threading.Thread(target=run, args=(shard,)) for shard in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _fork_parts(size: int, min_part: int) -> int:
    """Parts for _run_forked to cut a job of `size` units into: one per
    core, each of at least min_part units. 1 (run the job in this process)
    when there is too little work, or where a forked worker is not safe:
    off Linux, or while another Python thread runs, since a worker gets
    only the forking thread and any lock another thread held stays held."""
    if not sys.platform.startswith("linux") or threading.active_count() != 1:
        return 1
    return max(1, min(_num_shards(), size // min_part))


def _run_forked(parts: int, work, collect):
    """collect(readers) over what work(part, out) wrote in `parts` forked
    workers, or None for no result.

    Worker `part` runs work(part, out), out a binary file on a pipe of its
    own, and leaves by os._exit: status 0 once work returns, 1 if it
    raised; it runs nothing else of this process. collect gets the pipes'
    read ends in part order and returns the result, or None. A failed
    fork, a worker that does not exit with 0 and a None from collect all
    give None, and the caller then runs the job in this process; an
    exception from collect propagates. Every worker is reaped before this
    returns, and killed first unless collect returned a result, which it
    does only after reading every pipe to its end.
    """
    import fcntl  # only on Linux, where _fork_parts lets a job fork

    pids, readers = [], []
    result = None
    try:
        try:
            for part in range(parts):
                fd, write_fd = os.pipe()
                readers.append(open(fd, "rb"))
                # a 1 MiB pipe in place of 64 KiB: loading a PubMed-sized
                # features.csv took 0.438 s against 0.467 s (medians of 20)
                try:
                    fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 1 << 20)
                except OSError:
                    pass
                # this process's write end is closed once the worker is made
                with open(write_fd, "wb") as out:
                    pid = os.fork()
                    if pid == 0:
                        status = 1
                        try:
                            for reader in readers:
                                reader.close()
                            work(part, out)
                            out.close()
                            status = 0
                        finally:
                            os._exit(status)
                    pids.append(pid)
        except OSError:  # out of pipes or processes
            return None
        result = collect(readers)
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            if result is None:
                os.kill(pid, signal.SIGKILL)
            if os.waitpid(pid, 0)[1] != 0:
                result = None
    return result


def spmm(adj: NormalizedAdjacency, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One propagation step: row i of the result is sum_j A_hat[i,j] * x[j].

    The CSR kernel accumulates each row over its stored entries in index
    order, so results are deterministic and equal to adj.matrix @ x bit
    for bit. The rows are split over the cores; each shard zeroes its
    rows of the result and runs scipy's kernel on them (it releases the
    GIL). `out`, a C-contiguous float64 array of the result's shape that
    shares no memory with x, receives the result in place of a new array.
    """
    if out is not None and np.may_share_memory(out, x):
        raise ValidationError("spmm output must not overlap its input")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != adj.num_nodes:
        raise DimensionError(
            f"adjacency is {adj.num_nodes}x{adj.num_nodes} but features have shape {x.shape}"
        )
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape:
        raise DimensionError(f"spmm output has shape {out.shape}, expected {x.shape}")
    elif out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValidationError("spmm output must be a C-contiguous float64 array")
    mat, width = adj.matrix, x.shape[1]

    def rows(shard: int, lo: int, hi: int) -> None:
        part = out[lo:hi]
        part.fill(0.0)
        # the kernel behind mat @ x, on rows lo..hi-1: it adds into them
        _sparsetools.csr_matvecs(hi - lo, adj.num_nodes, width, mat.indptr[lo:hi + 1],
                                 mat.indices, mat.data, x.ravel(), part.ravel())

    _run_sharded(rows, adj.num_nodes, _num_shards())
    return out


def _add_scaled_rows(acc: np.ndarray, e: np.ndarray, x: np.ndarray,
                     picked=slice(None)) -> None:
    """acc += (e[:, None] * x)[picked] in one pass over the picked rows of x
    and over acc, with no temporary.

    The kernel spmm runs, on a selection matrix with one stored entry
    e[v] per picked row v, at column v (the diagonal matrix diag(e) when
    every row is picked): row j of acc becomes acc[j] + e[v] * x[v], the
    product rounded before the sum, so the bits are those of the numpy
    expression. picked is a slice or an array of row indices; acc is a
    C-contiguous float64 array with one row per picked row of x.
    """
    if not acc.flags.c_contiguous:
        raise ValidationError("accumulator must be a C-contiguous array")
    n, width = x.shape
    diag = np.arange(n + 1)
    cols = diag[:n][picked]
    if acc.shape != (len(cols), width):
        raise DimensionError(f"accumulator has shape {acc.shape}, expected {(len(cols), width)}")
    _sparsetools.csr_matvecs(len(cols), n, width, diag[:len(cols) + 1], cols,
                             np.ascontiguousarray(e[picked], dtype=np.float64),
                             np.ascontiguousarray(x, dtype=np.float64).ravel(),
                             acc.reshape(-1))


def _checked_walk(adj: NormalizedAdjacency, features, k: int, divisor=None):
    """(features, divisor, steps): features and divisor as checked, and the
    walk of propagation_steps over them. Every argument is checked here,
    before the walk starts."""
    if k < 0:
        raise ParameterError(f"propagation depth must be >= 0, got {k}")
    features = as_feature_matrix(features)
    n = features.shape[0]
    if n != adj.num_nodes:
        raise DimensionError(
            f"adjacency is {adj.num_nodes}x{adj.num_nodes} but features have shape "
            f"{features.shape}"
        )
    if divisor is not None:
        divisor = np.asarray(divisor, dtype=np.float64)
        if divisor.shape != (n,):
            raise DimensionError(
                f"row divisors have shape {divisor.shape}, expected ({n},)")
        if not (divisor > 0.0).all():
            raise ValidationError("row divisors must be positive")

    def walk():
        buffers = [np.empty_like(features) for _ in range(min(k, 2))]
        cur = features
        if divisor is not None:
            # x0 goes where step 2 will go: the walk then holds two N x d
            # arrays beside the caller's features, as without a divisor
            cur = np.divide(features, divisor[:, None],
                            out=buffers[0] if k >= 2 else None)
        yield cur
        for step in range(1, k + 1):
            cur = spmm(adj, cur, out=buffers[step % len(buffers)])
            yield cur

    return features, divisor, walk()


def propagation_steps(adj: NormalizedAdjacency, x0, k: int, divisor=None):
    """An iterator over X, A_hat X, ..., A_hat^k X: the one propagation walk.

    k, x0 (2-D, one row per node, finite) and divisor are checked here,
    before the walk starts. X itself is the first step. Steps 1..k are
    written into two buffers made on the thread that iterates the walk:
    step j goes into the buffer that held step j-2, so a step is valid
    only until the walk yields the step after next. A caller that keeps
    steps copies them.

    With divisor (N positive row divisors), X is x0 / divisor[:, None],
    the rows of x0 divided, bit for bit, as row_normalize divides them.
    It is written into the buffer that step 2 reuses, or into an array of
    its own when k < 2; x0 is left as it is.
    """
    return _checked_walk(adj, x0, k, divisor)[2]


def propagate(adj: NormalizedAdjacency, x0, k: int) -> PropagatedStack:
    """Iteratively compute [X, A_hat X, ..., A_hat^k X], each step a copy."""
    return PropagatedStack(tuple(step.copy() for step in propagation_steps(adj, x0, k)))


def stationary_direction(graph: Graph, x0, r: float = 0.5) -> np.ndarray:
    """The (d,) vector s = dtil^(1-r) @ X shared by every stationary row.

    Row i of stationary_features is dtil_i^r / (2M + N) * s, a positive
    multiple of s, so cos(x_i, x_inf_i) = x_i . s / (|x_i| |s|) needs s
    alone and never the N x d matrix.
    """
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"normalization exponent r must lie in [0, 1], got {r}")
    x0 = as_feature_matrix(x0)
    if x0.shape[0] != graph.num_nodes:
        raise DimensionError(
            f"graph has {graph.num_nodes} nodes but features have shape {x0.shape}"
        )
    return _weighted_row_sum(graph, x0, r)


def _weighted_row_sum(graph: Graph, x0: np.ndarray, r: float) -> np.ndarray:
    """stationary_direction of a checked x0, summed by einsum: no BLAS
    call, so the bits do not depend on the BLAS thread count."""
    dtil = (graph.degrees + 1).astype(np.float64)
    return np.einsum("i,ij->j", dtil ** (1.0 - r), x0)


def stationary_features(graph: Graph, x0, r: float = 0.5) -> np.ndarray:
    """The infinite-propagation limit of A_hat^k X.

    Row i equals dtil_i^r / (2M + N) * sum_j dtil_j^(1-r) x_j, evaluated
    as a rank-1 product so A_hat^inf is never materialized. The global
    expression is used even on disconnected graphs, where the true limit
    is per-component; smoothing levels are defined against exactly this
    reference, so the approximation is intentional.
    """
    weighted_sum = stationary_direction(graph, x0, r)  # (d,)
    dtil = (graph.degrees + 1).astype(np.float64)
    total = 2.0 * graph.num_edges + graph.num_nodes
    return np.outer(dtil ** r, weighted_sum) / total
