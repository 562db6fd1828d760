"""Node and graph smoothing levels, softmax step weights, feature combination.

The per-node smoothing level after k propagation steps is

    nsl_v(k) = cos(x_v^k, x_v^0) * (1 - cos(x_v^k, x_v^inf)),

large values meaning the node still resembles its raw feature and is far
from the degree-determined stationary state. The graph-level value is the
mean over nodes. Step weights are a per-node softmax of nsl over steps
0..K, sharpened or flattened by a temperature.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from .data import _fork_parts, _run_parts
from .errors import DimensionError, ParameterError, ValidationError
from .graph import Graph, NormalizedAdjacency, normalize
from .propagation import PropagatedStack, _add_scaled_rows, _num_shards, _run_sharded, \
    _weighted_row_sum, as_feature_matrix, propagation_steps


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors; 0.0 when either norm is 0."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionError(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def _row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row cosine similarity of two equal-shape matrices (zero norm -> 0)."""
    num = np.einsum("ij,ij->i", a, b)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    out = np.zeros(a.shape[0])
    mask = (na > 0.0) & (nb > 0.0)
    out[mask] = num[mask] / (na[mask] * nb[mask])
    return out


@dataclass
class SmoothnessProfile:
    """Per-node, per-step smoothing levels plus optional step weights.

    nsl values live in [0, 1] for nonnegative feature data (cosines are
    then nonnegative); with signed features the product of two cosines
    can range over [-2, 2]. Nothing is clamped.
    """

    nsl: np.ndarray                    # (N, K+1)
    gsl: np.ndarray                    # (K+1,), per-step mean of nsl
    weights: np.ndarray | None = None  # (N, K+1), rows sum to 1
    temperature: float | None = None


def matrix_nsl(x: np.ndarray, x0: np.ndarray, stationary: np.ndarray) -> np.ndarray:
    """Smoothing level of an arbitrary feature matrix against x0 and x_inf."""
    if x.shape != x0.shape or x.shape != stationary.shape:
        raise DimensionError(
            f"shape mismatch: {x.shape} vs {x0.shape} vs {stationary.shape}"
        )
    alpha = _row_cosines(x, x0)
    beta = _row_cosines(x, stationary)
    return alpha * (1.0 - beta)


def compute_nsl(stack: PropagatedStack, stationary) -> SmoothnessProfile:
    """Per-node smoothing level for every step of a propagated stack."""
    stationary = as_feature_matrix(stationary)
    x0 = stack.steps[0]
    if stationary.shape != x0.shape:
        raise DimensionError(
            f"stationary shape {stationary.shape} does not match stack shape {x0.shape}"
        )
    nsl = np.empty((stack.num_nodes, stack.max_step + 1))
    for k, xk in enumerate(stack.steps):
        nsl[:, k] = matrix_nsl(xk, x0, stationary)
    return SmoothnessProfile(nsl=nsl, gsl=nsl.mean(axis=0))


# |nsl| <= 2 up to rounding (a product of two cosines), so at
# temperature >= 2**-1021 every logit nsl / T lies within 2**1022 and
# every softmax difference logit - max within 2**1023: both finite. Below
# it nsl / T can overflow to inf, and exp(inf - inf) makes the weights NaN.
MIN_TEMPERATURE = 2.0 ** -1021


def check_temperature(temperature: float, error: type[Exception] = ParameterError) -> None:
    """Raise error unless MIN_TEMPERATURE <= temperature < inf (NaN fails
    too). An infinite T would be the uniform-weight limit, but it cannot
    be written to strict JSON; a large finite T gives the same weights."""
    if not MIN_TEMPERATURE <= temperature < math.inf:
        raise error(f"temperature must be >= 2**-1021 (about {MIN_TEMPERATURE:.4g}) "
                    f"and finite, got {temperature}")


def propagation_weights(profile: SmoothnessProfile, temperature: float = 1.0) -> np.ndarray:
    """Per-node softmax over steps of nsl / temperature (max-subtracted)."""
    check_temperature(temperature)
    z = profile.nsl / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def combine(stack: PropagatedStack, weights: np.ndarray) -> np.ndarray:
    """Per-node convex combination m_v = sum_l w_v(l) x_v^l of the stack."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (stack.num_nodes, stack.max_step + 1):
        raise DimensionError(
            f"weights shape {weights.shape} does not match "
            f"({stack.num_nodes}, {stack.max_step + 1})"
        )
    out = np.zeros_like(stack.steps[0])
    for l, xl in enumerate(stack.steps):
        out += weights[:, l:l + 1] * xl
    return out


def smoothness_profile(stack: PropagatedStack, stationary, temperature: float = 1.0) -> SmoothnessProfile:
    """Convenience: nsl + gsl + softmax weights in one complete profile."""
    profile = compute_nsl(stack, stationary)
    profile.weights = propagation_weights(profile, temperature)
    profile.temperature = float(temperature)
    return profile


# ---------------------------------------------------------------------------
# The pipeline's propagation pass: one walk over the steps in O(N*d) memory.
# ---------------------------------------------------------------------------

def _overflow_error() -> ValidationError:
    return ValidationError(
        "feature rows too large: their products overflow float64 while smoothing "
        "levels are scored (entries above about 1e154); normalize the rows "
        "(--feature-norm l1|l2) or scale the features down")


def _rank_one_nsl(x0_sq: np.ndarray, s: np.ndarray):
    """matrix_nsl(., x0, x_inf) for an x_inf whose rows are positive multiples of s.

    cos(x_v, x_inf_v) = x_v . s / (|x_v| |s|), so the N x d stationary
    matrix is never built. nsl(xx, xx0, xs, rows) scores the rows `rows`
    of a step x from three row reductions over them: xx = x.x, xx0 = x.x0
    and xs = x.s. x0_sq holds x0.x0 per row; it is read when nsl is
    called, so it may be filled after this returns. A zero norm gives a
    zero cosine, as in _row_cosines. An overflowed reduction (inf in s.s,
    xx, xx0 or xs) raises ValidationError: its cosine would be 0 or NaN,
    with no error.
    """
    s_norm = float(np.sqrt(np.einsum("i,i->", s, s)))
    if not np.isfinite(s_norm):
        raise _overflow_error()

    def nsl(xx: np.ndarray, xx0: np.ndarray, xs: np.ndarray,
            rows: slice = slice(None)) -> np.ndarray:
        if not (np.isfinite(xx).all() and np.isfinite(xx0).all() and np.isfinite(xs).all()):
            raise _overflow_error()
        x_norm, x0_norm = np.sqrt(xx), np.sqrt(x0_sq[rows])
        alpha = np.divide(xx0, x_norm * x0_norm, out=np.zeros(len(xx)),
                          where=(x_norm > 0.0) & (x0_norm > 0.0))
        beta = np.zeros(len(xx))
        if s_norm > 0.0:
            np.divide(xs, x_norm * s_norm, out=beta, where=x_norm > 0.0)
        return alpha * (1.0 - beta)

    return nsl


@dataclass
class PropagationPass:
    """What one walk over the propagation steps yields."""

    profile: SmoothnessProfile  # nsl, gsl, step weights, temperature: every node
    combined: np.ndarray        # sum_k w_v(k) x_v^k, row i for node picked[i]:
                                # every node when rows is None
    cap_gsl: dict[int, float]   # cap c -> GSL of the combination truncated at c


# Values per fold block (2 MB of x). Each block costs about 0.1 ms of
# interpreter time under the GIL, against about 0.5 ms of GIL-free row
# reductions and accumulate at this size. On a PubMed-sized input (d =
# 500, 2 cores) blocks of 2**17 to 2**20 values timed alike; 2**16 was
# slower, 2**13 twice as slow, and one block per shard slower again.
_BLOCK_VALUES = 1 << 18


def _check_rows(rows, num_nodes: int) -> np.ndarray:
    """rows as int64 node ids, or ParameterError unless they are 1-D,
    integer, strictly increasing and in [0, num_nodes)."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and not np.issubdtype(rows.dtype, np.integer)):
        raise ParameterError(f"rows must be a 1-D array of node ids, got {rows.dtype} "
                             f"of shape {rows.shape}")
    rows = rows.astype(np.int64)
    if (np.diff(rows) <= 0).any():
        raise ParameterError("rows must be sorted and hold no node twice")
    if rows.size and not (0 <= rows[0] and rows[-1] < num_nodes):
        raise ParameterError(f"rows must lie in [0, {num_nodes})")
    return rows


def propagation_pass(graph: Graph, x0, *, k: int, r: float, temperature: float,
                     caps=(), rows=None) -> PropagationPass:
    """Smoothing levels, combined features and per-cap combined GSL in one walk.

    Walks x_k = A_hat x_{k-1} once. Each step is scored against the rank-1
    stationary state and folded into a per-node online softmax: a running
    max m, an accumulator acc and a normalizer z (Milakov & Gimelshein
    2018, arXiv:1805.02867), from m = -inf and acc = z = 0, so step 0
    folds as every other step does. acc / z after step c is the combination of
    steps 0..c weighted by propagation_weights on those steps alone, so
    every cap comes from the same walk. Agrees with compute_nsl and
    combine on the stored stack up to rounding.

    rows (sorted, unique node ids; None for every node) picks the nodes
    whose combination is kept: acc has one row per picked node, and only
    those rows are accumulated. Every node is still scored, so the
    profile is complete. caps need every row of the combination, since a
    cap's GSL is a mean over all nodes, so caps and rows are exclusive.

    Each block of a step is read while it is in cache, by three row
    reductions, x.x, x.x0 and x.s (s the stationary direction; see
    _rank_one_nsl), and by the accumulate acc += e * x, one pass of
    scipy's CSR kernel on the picked rows of diag(e). A cap scores its
    block of acc by the same three reductions. The adjacency is read only
    by the walk's spmm, once a step. Nothing calls BLAS, and each row's
    arithmetic is the same whatever the block, shard or BLAS thread
    count, so the bits are too.

    Each step's spmm and its scoring and fold are split over the cores by
    row shard: every part of the fold is row-local. The steps come from
    propagation_steps: x0, its two step buffers and acc (one row per
    picked node) are alive, O(N*d) at any depth, and no N x d array is
    made per step.
    """
    check_temperature(temperature)
    caps = set(caps)
    for cap in caps:
        if not 0 <= cap <= k:
            raise ParameterError(f"cap {cap} outside [0, {k}]")
    if rows is not None and caps:
        raise ParameterError("caps and rows are exclusive: a cap's GSL averages "
                             "the combination over every node")
    picked = (np.arange(graph.num_nodes) if rows is None
              else _check_rows(rows, graph.num_nodes))
    # normalize checks r and the walk checks k and x0: all before any array
    # below is made. x0 is then the walk's first step, the checked features.
    # adj is held until the pass returns: freed with the walk, before the
    # weights are made, it raised the peak RSS of the training that follows
    # by about 2 MB on the er-deep-head benchmark (2 cores, glibc malloc).
    adj = normalize(graph, r)
    steps = propagation_steps(adj, x0, k)
    x0 = next(steps)
    s = _weighted_row_sum(graph, x0, r)
    n, d = x0.shape
    shards = _num_shards()
    block = min(max(1, _BLOCK_VALUES // max(1, d)), n)
    # every array the pass writes is made on this thread, the walk's step
    # buffers too: arrays made on a worker land in that thread's malloc arena
    nsl = np.empty((n, k + 1))
    gsl = np.empty(k + 1)
    cap_gsl = {}
    acc = np.zeros((len(picked), d))
    x0_sq, level, m, z = np.empty(n), np.empty(n), np.full(n, -np.inf), np.zeros(n)
    if caps:
        cap_level = np.empty(n)
    nsl_of = _rank_one_nsl(x0_sq, s)

    def fold(shard: int, lo: int, hi: int) -> None:
        """Score rows lo..hi-1 of step `step` (the current x) and fold them
        into m, z and acc, one block at a time; after the last step, acc
        becomes acc / z."""
        for start in range(lo, hi, block):
            rows = slice(start, min(start + block, hi))
            x_rows = x[rows]
            # the block's picked rows, as offsets into the block
            a, b = np.searchsorted(picked, (rows.start, rows.stop))
            sel, acc_rows = picked[a:b] - start, acc[a:b]
            xx = np.einsum("ij,ij->i", x_rows, x_rows)
            if step == 0:
                x0_sq[rows] = xx0 = xx  # x is x0
            else:
                xx0 = np.einsum("ij,ij->i", x_rows, x0[rows])
            level[rows] = nsl_of(xx, xx0, np.einsum("ij,j->i", x_rows, s), rows)
            logit = level[rows] / temperature
            m_rows = m[rows]
            if (logit > m_rows).any():
                # rows whose running max rises are rescaled by
                # exp(m - logit) < 1, the others by exactly 1; at step 0,
                # from m = -inf, by 0
                rescale = np.exp(np.minimum(m_rows - logit, 0.0))
                z[rows] *= rescale
                np.maximum(m_rows, logit, out=m_rows)
                acc_rows *= rescale[sel, None]
            e = np.exp(logit - m_rows)
            _add_scaled_rows(acc_rows, e, x_rows, sel)
            z[rows] += e
            if step in caps:
                # nsl is a product of cosines, blind to the positive row
                # scale z: the GSL of acc is the GSL of acc / z
                cap_level[rows] = nsl_of(np.einsum("ij,ij->i", acc_rows, acc_rows),
                                         np.einsum("ij,ij->i", acc_rows, x0[rows]),
                                         np.einsum("ij,j->i", acc_rows, s), rows)
            if step == k:
                acc_rows /= z[rows][sel, None]

    for step, x in enumerate(itertools.chain([x0], steps)):
        _run_sharded(fold, n, shards, block)
        nsl[:, step] = level
        gsl[step] = level.mean()
        if step in caps:
            cap_gsl[step] = float(cap_level.mean())
    del x, x0  # with the walk's buffers, freed before the weights are made
    profile = SmoothnessProfile(nsl=nsl, gsl=gsl)
    profile.weights = propagation_weights(profile, temperature)
    profile.temperature = float(temperature)
    return PropagationPass(profile, acc, cap_gsl)


# ---------------------------------------------------------------------------
# Stack-free forms of compute_nsl and combine against an N x d stationary
# matrix, one spmm chain each. The pipeline uses propagation_pass instead;
# these stay as public reference functions.
# ---------------------------------------------------------------------------

def nsl_streaming(adj: NormalizedAdjacency, x0, stationary, k: int) -> SmoothnessProfile:
    """compute_nsl(propagate(adj, x0, k), stationary) without keeping the stack."""
    x0 = as_feature_matrix(x0)
    stationary = as_feature_matrix(stationary)
    if stationary.shape != x0.shape:
        raise DimensionError(
            f"stationary shape {stationary.shape} does not match features {x0.shape}"
        )
    nsl = np.column_stack([matrix_nsl(x, x0, stationary)
                           for x in propagation_steps(adj, x0, k)])
    return SmoothnessProfile(nsl=nsl, gsl=nsl.mean(axis=0))


def combine_streaming(adj: NormalizedAdjacency, x0, weights: np.ndarray) -> np.ndarray:
    """combine(propagate(adj, x0, K), weights) without keeping the stack."""
    x0 = as_feature_matrix(x0)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != x0.shape[0]:
        raise DimensionError(
            f"weights shape {weights.shape} does not match features {x0.shape}"
        )
    out = np.zeros_like(x0)
    for l, xl in enumerate(propagation_steps(adj, x0, weights.shape[1] - 1)):
        _add_scaled_rows(out, weights[:, l], xl)
    return out


# ---------------------------------------------------------------------------
# CSV export consumed by the profile subcommand.
# ---------------------------------------------------------------------------

# rows formatted per write: joining all 2M rows of a depth-100 PubMed-sized
# profile at once took ~550 MB, one block of this size ~16 MB
_CSV_BLOCK_ROWS = 1 << 16
# Smallest part of node_profile.csv, in rows (see write_node_profile_csv):
# on 2 cores (medians of 25 in three runs), two parts (one in a worker, one
# in this process) took 13.0-21.4 ms against 14.1-15.0 ms for one part on
# 8,203 rows, 21.9-32.2 against 28.6-32.0 ms on 16,393 and 39.6-59.2
# against 57.8-61.4 ms on 32,773.
_CSV_MIN_PART_ROWS = 1 << 13
_CSV_HEADER = b"node_id,step,nsl,weight\r\n"


def _profile_rows(profile: SmoothnessProfile, lo: int, hi: int):
    """The CSV rows of nodes lo..hi-1, as bytes, one block of rows at a time."""
    num_steps = profile.nsl.shape[1]
    block = max(1, _CSV_BLOCK_ROWS // num_steps)
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        cells = zip(itertools.product(range(start, stop), range(num_steps)),
                    profile.nsl[start:stop].ravel().tolist(),
                    profile.weights[start:stop].ravel().tolist())
        # the bytes csv.writer writes: a float repr never needs quoting
        yield "".join([f"{v},{k},{nsl!r},{weight!r}\r\n"
                       for (v, k), nsl, weight in cells]).encode()


def write_node_profile_csv(profile: SmoothnessProfile, path) -> None:
    """One row per (node, step): node_id, step, nsl, weight.

    A profile of two _CSV_MIN_PART_ROWS rows or more is cut into ranges of
    nodes, one per core, run by data._run_parts: this process writes the
    header and the first range straight into the file, while each later
    range is formatted by a forked worker into a memfd of its own, made
    before the fork (or here, if its worker failed). The memfds are then
    appended to the file in node order, so the file is the same byte for
    byte whatever the part count.
    """
    if profile.weights is None:
        raise ParameterError("profile has no weights; compute them before exporting")
    num_nodes = profile.nsl.shape[0]
    parts = _fork_parts(profile.nsl.size, _CSV_MIN_PART_ROWS)
    fds = []

    def work(part: int) -> None:
        rows = _profile_rows(profile, bounds[part], bounds[part + 1])
        if part == 0:
            fh.writelines(rows)
            return
        with open(fds[part - 1], "wb", closefd=False) as out:
            out.seek(0)  # a failed worker may have written some of these rows
            out.writelines(rows)

    try:
        with contextlib.suppress(OSError):  # out of memfds: fewer parts
            for _ in range(1, parts):
                fds.append(os.memfd_create("node_profile", os.MFD_CLOEXEC))
        parts = len(fds) + 1
        bounds = [num_nodes * i // parts for i in range(parts + 1)]
        with open(path, "wb") as fh:
            fh.write(_CSV_HEADER)
            _run_parts(parts, work)
            for fd in fds:
                os.lseek(fd, 0, os.SEEK_SET)  # its writer left the shared offset at the end
                with open(fd, "rb", closefd=False) as rows:
                    shutil.copyfileobj(rows, fh)
    finally:
        for fd in fds:
            os.close(fd)


def write_gsl_csv(profile: SmoothnessProfile, path) -> None:
    """Per-step graph smoothing level summary: step, gsl."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "gsl"])
        for k, g in enumerate(profile.gsl):
            writer.writerow([k, repr(float(g))])
