"""Node and graph smoothing levels, softmax step weights, feature combination.

The per-node smoothing level after k propagation steps is

    nsl_v(k) = cos(x_v^k, x_v^0) * (1 - cos(x_v^k, x_v^inf)),

large values meaning the node still resembles its raw feature and is far
from the degree-determined stationary state. The graph-level value is the
mean over nodes. Step weights are a per-node softmax of nsl over steps
0..K, sharpened or flattened by a temperature.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .graph import Graph, NormalizedAdjacency, normalize
from .propagation import PropagatedStack, _num_shards, _run_sharded, \
    as_feature_matrix, propagation_steps, stationary_direction


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


def propagation_weights(profile: SmoothnessProfile, temperature: float = 1.0) -> np.ndarray:
    """Per-node softmax over steps of nsl / temperature (max-subtracted)."""
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
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

def _rank_one_nsl(x0: np.ndarray, s: np.ndarray):
    """matrix_nsl(., x0, x_inf) for an x_inf whose rows are positive multiples of s.

    cos(x_v, x_inf_v) = x_v . s / (|x_v| |s|), so the N x d stationary
    matrix is never built; the norms of x0 and s are taken once. A zero
    norm gives a zero cosine, as in _row_cosines. nsl(x, rows) scores the
    rows `rows` of a step given x = step[rows].
    """
    x0_norm = np.sqrt(np.einsum("ij,ij->i", x0, x0))
    s_norm = float(np.linalg.norm(s))

    def nsl(x: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        x0_rows, x0_norm_rows = x0[rows], x0_norm[rows]
        x_norm = np.sqrt(np.einsum("ij,ij->i", x, x))
        alpha = np.zeros(x.shape[0])
        mask = (x_norm > 0.0) & (x0_norm_rows > 0.0)
        alpha[mask] = (np.einsum("ij,ij->i", x, x0_rows)[mask]
                       / (x_norm[mask] * x0_norm_rows[mask]))
        beta = np.zeros(x.shape[0])
        if s_norm > 0.0:
            mask = x_norm > 0.0
            beta[mask] = (x @ s)[mask] / (x_norm[mask] * s_norm)
        return alpha * (1.0 - beta)

    return nsl


@dataclass
class PropagationPass:
    """What one walk over the propagation steps yields."""

    profile: SmoothnessProfile  # nsl, gsl, step weights, temperature
    combined: np.ndarray        # (N, d), sum_k w_v(k) x_v^k
    cap_gsl: dict[int, float]   # cap c -> GSL of the combination truncated at c


# The fold's scratch over all shards, in values (2 MB): each shard's
# products e_v * x_v go into a block of it that stays in cache.
_FOLD_VALUES = 1 << 18
# Rows per fold block are a multiple of this. OpenBLAS computes x @ s in
# groups of four rows and the leftover rows by another kernel, so a
# block that starts off a group boundary would change the bits of a row.
_BLOCK_ALIGN = 64


def propagation_pass(graph: Graph, x0, *, k: int, r: float, temperature: float,
                     caps=()) -> PropagationPass:
    """Smoothing levels, combined features and per-cap combined GSL in one walk.

    Walks x_k = A_hat x_{k-1} once. Each step is scored against the rank-1
    stationary state and folded into a per-node online softmax: a running
    max m, an accumulator acc and a normalizer z (Milakov & Gimelshein
    2018, arXiv:1805.02867). acc / z after step c is the combination of
    steps 0..c weighted by propagation_weights on those steps alone, so
    every cap comes from the same walk. Agrees with compute_nsl and
    combine on the stored stack up to rounding.

    Each step's spmm and its scoring and fold are split over the cores by
    row shard: every part of the fold is row-local. Shards hold whole fold
    blocks, so with BLAS on one thread the results are those of the
    sequential walk on whole matrices, bit for bit, for any shard count.
    The steps come from propagation_steps: x0, acc, its two step buffers
    and one fold block of scratch per shard (2**18 values over all shards)
    are alive, O(N*d) at any depth, and no N x d array is made per step.
    """
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    caps = set(caps)
    for cap in caps:
        if not 0 <= cap <= k:
            raise ParameterError(f"cap {cap} outside [0, {k}]")
    # stationary_direction checks x0 and the walk checks k: both before
    # any array below is made
    x0 = np.asarray(x0, dtype=np.float64)
    nsl_of = _rank_one_nsl(x0, stationary_direction(graph, x0, r))
    steps = propagation_steps(normalize(graph, r), x0, k)
    n, d = x0.shape
    shards = _num_shards()
    block = _FOLD_VALUES // (shards * max(1, d)) // _BLOCK_ALIGN * _BLOCK_ALIGN
    block = min(max(block, _BLOCK_ALIGN), n)
    # every array the pass writes is made on this thread, the walk's step
    # buffers too: arrays made on a worker land in that thread's malloc arena
    nsl = np.empty((n, k + 1))
    gsl = np.empty(k + 1)
    cap_gsl = {}
    acc = np.empty_like(x0)
    scratch = np.empty((shards, block, d))
    level, cap_level, m, z = np.empty(n), np.empty(n), np.empty(n), np.ones(n)

    def fold(shard: int, lo: int, hi: int) -> None:
        """Score rows lo..hi-1 of step `step` (the current x) and fold them
        into m, acc and z, one block at a time; after the last step, acc
        becomes acc / z."""
        for start in range(lo, hi, block):
            rows = slice(start, min(start + block, hi))
            level[rows] = nsl_of(x[rows], rows)
            logit = level[rows] / temperature
            if step == 0:
                m[rows] = logit
                acc[rows] = x[rows]
            else:
                m_rows, acc_rows = m[rows], acc[rows]
                if (logit > m_rows).any():
                    # rows whose running max rises are rescaled by
                    # exp(m - logit) < 1, the others by exactly 1
                    rescale = np.exp(np.minimum(m_rows - logit, 0.0))
                    z[rows] *= rescale
                    np.maximum(m_rows, logit, out=m_rows)
                    acc_rows *= rescale[:, None]
                e = np.exp(logit - m_rows)
                acc_rows += np.multiply(e[:, None], x[rows], out=scratch[shard, :len(e)])
                z[rows] += e
            if step in caps:
                # nsl is a product of cosines, blind to the positive row
                # scale z: the GSL of acc is the GSL of acc / z
                cap_level[rows] = nsl_of(acc[rows], rows)
            if step == k:
                acc[rows] /= z[rows, None]

    for step, x in enumerate(steps):
        _run_sharded(fold, n, shards, block)
        nsl[:, step] = level
        gsl[step] = level.mean()
        if step in caps:
            cap_gsl[step] = float(cap_level.mean())
    del x, scratch  # with the walk's buffers, freed before the weights are made
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
        out += weights[:, l:l + 1] * xl
    return out


# ---------------------------------------------------------------------------
# CSV export consumed by the profile subcommand.
# ---------------------------------------------------------------------------

# rows formatted per write: joining all 2M rows of a depth-100 PubMed-sized
# profile at once took ~550 MB, one block of this size ~16 MB
_CSV_BLOCK_ROWS = 1 << 16


def write_node_profile_csv(profile: SmoothnessProfile, path) -> None:
    """One row per (node, step): node_id, step, nsl, weight."""
    if profile.weights is None:
        raise ParameterError("profile has no weights; compute them before exporting")
    num_nodes, num_steps = profile.nsl.shape
    block = max(1, _CSV_BLOCK_ROWS // num_steps)
    with open(path, "w", newline="") as fh:
        fh.write("node_id,step,nsl,weight\r\n")
        for start in range(0, num_nodes, block):
            stop = min(start + block, num_nodes)
            cells = zip(itertools.product(range(start, stop), range(num_steps)),
                        profile.nsl[start:stop].ravel().tolist(),
                        profile.weights[start:stop].ravel().tolist())
            # the bytes csv.writer writes: a float repr never needs quoting
            fh.write("".join([f"{v},{k},{nsl!r},{weight!r}\r\n" for (v, k), nsl, weight in cells]))


def write_gsl_csv(profile: SmoothnessProfile, path) -> None:
    """Per-step graph smoothing level summary: step, gsl."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "gsl"])
        for k, g in enumerate(profile.gsl):
            writer.writerow([k, repr(float(g))])
