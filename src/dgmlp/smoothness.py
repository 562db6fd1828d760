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
import math
import shutil
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError
from .graph import Graph, NormalizedAdjacency, normalize
from .propagation import PropagatedStack, _add_scaled_rows, _checked_walk, _fork_parts, \
    _num_shards, _run_forked, _run_sharded, _weighted_row_sum, as_feature_matrix, \
    propagation_steps


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
# it nsl / T can reach inf, and exp(inf - inf) makes the weights NaN.
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

# A walked x.s (see propagation_pass) is used for a row while the row's
# norm is at least 1/64 of its norm bound; below that, cancellation may
# have left the walked value fewer correct digits than the row's own.
_MAX_CANCELLATION = 64.0

# With row divisors, y.x0 is (y.features) / divisor for a row whose divisor
# lies in [1 / _DIVISOR_RANGE, _DIVISOR_RANGE] and whose divided row x0_v
# has norm at most sqrt(_X0_SQ_BOUND): each product y_j f_j is then y_j x0_j
# scaled by at most 2**64. A_hat^k has spectral norm at most sqrt(N), so
# with x0's rows of norm <= 2 a step row has norm <= 2N and an accumulator
# row <= 2(K+1)N, and the sum cannot overflow; a product underflows only
# where y_j x0_j is below 2**-958. row_divisor's rows have norm <= 1 (up to
# rounding); any other row (a subnormal or near-overflowing divisor, or a
# divisor smaller than the row's norm) takes y.x0 from its row of x0,
# divided out as the walk divides it.
_DIVISOR_RANGE = 2.0 ** 64
_X0_SQ_BOUND = 4.0


def _overflow_error() -> ValidationError:
    return ValidationError(
        "feature rows too large: their products overflow float64 while smoothing "
        "levels are scored (entries above about 1e154); normalize the rows "
        "(--feature-norm l1|l2) or scale the features down")


def _rank_one_nsl(x0_sq: np.ndarray, s: np.ndarray):
    """matrix_nsl(., x0, x_inf) for an x_inf whose rows are positive multiples of s.

    cos(x_v, x_inf_v) = x_v . s / (|x_v| |s|), so the N x d stationary
    matrix is never built. nsl(xx, xx0, xs, reach, x, rows) scores the
    rows `rows` of a step x from row reductions over them: xx = x.x and
    xx0 = x.x0, and xs = x.s carried by a walk beside reach >= |x_v|, a
    bound on the row norms carried by the same walk. The walked xs is off
    by a few ulps of reach |s|, so in a row whose norm has cancelled to
    below reach / _MAX_CANCELLATION, x.s is taken from the row x_v itself.
    x0_sq holds x0.x0 per row; it is read when nsl is called, so it may be
    filled after this returns. A zero norm gives a zero cosine, as in
    _row_cosines. An overflowed reduction (inf in s.s, xx, xx0 or xs)
    raises ValidationError: its cosine would be 0 or NaN, with no error.
    """
    s_norm = float(np.sqrt(np.einsum("i,i->", s, s)))
    if not np.isfinite(s_norm):
        raise _overflow_error()

    def nsl(xx: np.ndarray, xx0: np.ndarray, xs: np.ndarray, reach: np.ndarray,
            x: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        if not (np.isfinite(xx).all() and np.isfinite(xx0).all() and np.isfinite(xs).all()):
            raise _overflow_error()
        x_norm, x0_norm = np.sqrt(xx), np.sqrt(x0_sq[rows])
        alpha = np.divide(xx0, x_norm * x0_norm, out=np.zeros(len(xx)),
                          where=(x_norm > 0.0) & (x0_norm > 0.0))
        beta = np.zeros(len(xx))
        if s_norm > 0.0:
            cancelled = reach > _MAX_CANCELLATION * x_norm
            if cancelled.any():
                xs = xs.copy()
                xs[cancelled] = np.einsum("ij,j->i", x[cancelled], s)
            np.divide(xs, x_norm * s_norm, out=beta, where=x_norm > 0.0)
        return alpha * (1.0 - beta)

    return nsl


@dataclass
class PropagationPass:
    """What one walk over the propagation steps yields."""

    profile: SmoothnessProfile  # nsl, gsl, step weights, temperature: every node
    combined: np.ndarray        # sum_k w_v(k) x_v^k, row i for node rows[i]; (N, d)
                                # with rows=None
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
                     caps=(), rows=None, divisor=None) -> PropagationPass:
    """Smoothing levels, combined features and per-cap combined GSL in one walk.

    Walks x_k = A_hat x_{k-1} once. Each step is scored against the rank-1
    stationary state and folded into a per-node online softmax: a running
    max m, an accumulator acc and a normalizer z (Milakov & Gimelshein
    2018, arXiv:1805.02867). acc / z after step c is the combination of
    steps 0..c weighted by propagation_weights on those steps alone, so
    every cap comes from the same walk. Agrees with compute_nsl and
    combine on the stored stack up to rounding.

    rows (sorted, unique node ids; None for every node) picks the nodes
    whose combination is kept: acc then has one row per picked node, and
    only those rows are accumulated. Every node is still scored, so the
    profile is complete. caps need every row of the combination, since a
    cap's GSL is a mean over all nodes, so caps and rows are exclusive.

    x_k . s, the dot with the stationary direction, is not read off x_k:
    it is u_k = A_hat u_{k-1}, an N-vector walk from u_0 = x0 . s, and
    for the caps acc . s is folded beside acc as acc_u. A second N-vector
    walk carries reach_k = A_hat reach_{k-1} from the row norms of x0,
    which bounds the row norms of x_k since A_hat is nonnegative; the few
    rows whose norm has cancelled far below it take x . s from x (see
    _rank_one_nsl). So each block of a step is read twice: by the x.x and
    x.x0 row reductions, and by the accumulate acc += e * x, one pass of
    scipy's CSR kernel on diag(e) or, with rows, on the picked rows of
    diag(e). Nothing calls BLAS, and each row's arithmetic is the same
    whatever the block, shard or BLAS thread count, so the bits are too.

    divisor (N positive row divisors; None for none) starts the walk from
    x0 / divisor[:, None], as propagation_steps does: the rows of x0 are
    divided where step 2 will later go, so the pass holds no divided copy
    beside x0. The reductions against the divided x0 after step 0 read
    the rows of x0 and divide each by its divisor, which agrees with the
    pass on the divided features up to rounding (see _DIVISOR_RANGE).

    Each step's spmm and its scoring and fold are split over the cores by
    row shard: every part of the fold is row-local. The steps come from
    propagation_steps: x0, its two step buffers and acc (N x d, or
    len(rows) x d) are alive, O(N*d) at any depth, and no N x d array is
    made per step; with a divisor the divided x0 lives in a step buffer.
    """
    check_temperature(temperature)
    caps = set(caps)
    for cap in caps:
        if not 0 <= cap <= k:
            raise ParameterError(f"cap {cap} outside [0, {k}]")
    picked = None
    if rows is not None:
        if caps:
            raise ParameterError("caps and rows are exclusive: a cap's GSL averages "
                                 "the combination over every node")
        picked = _check_rows(rows, graph.num_nodes)
    # normalize checks r and the walk checks k, x0 and divisor: all before
    # any array below is made. features is then the array the walk checked,
    # and x0 its first step: features itself, or features / divisor.
    adj = normalize(graph, r)
    features, divisor, steps = _checked_walk(adj, x0, k, divisor)
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
    acc = np.empty_like(x0) if picked is None else np.empty((len(picked), d))
    x0_sq, u, reach = (np.empty(n) for _ in range(3))
    if caps:
        acc_u, acc_reach, cap_level = (np.empty(n) for _ in range(3))
    level, m, z = np.empty(n), np.empty(n), np.ones(n)
    nsl_of = _rank_one_nsl(x0_sq, s)

    def x0_dots(y: np.ndarray, rows: slice) -> np.ndarray:
        """y . x0 for the rows `rows` of x0, y holding those rows of a
        step or of acc; x0 itself may since have been overwritten."""
        dots = np.einsum("ij,ij->i", y, features[rows])
        if divisor is not None:
            dots /= divisor[rows]
            far = beyond[rows]
            if far.any():
                dots[far] = np.einsum("ij,ij->i", y[far],
                                      features[rows][far] / divisor[rows][far, None])
        return dots

    def fold(shard: int, lo: int, hi: int) -> None:
        """Score rows lo..hi-1 of step `step` (the current x, with x.s in u
        and its norm bound in reach) and fold them into m, z, acc and, for
        the caps, acc_u and acc_reach, one block at a time; after the last
        step, acc becomes acc / z."""
        for start in range(lo, hi, block):
            rows = slice(start, min(start + block, hi))
            x_rows = x[rows]
            if picked is None:
                sel, acc_rows = slice(None), acc[rows]
            else:
                # the block's picked rows, as offsets into the block
                a, b = np.searchsorted(picked, (rows.start, rows.stop))
                sel, acc_rows = picked[a:b] - start, acc[a:b]
            xx = np.einsum("ij,ij->i", x_rows, x_rows)
            if step == 0:
                # x is x0: its norms and u_0 = x0.s come from this read
                x0_sq[rows] = xx0 = xx
                u[rows] = np.einsum("ij,j->i", x_rows, s)
                reach[rows] = np.sqrt(xx)
            else:
                xx0 = x0_dots(x_rows, rows)
            level[rows] = nsl_of(xx, xx0, u[rows], reach[rows], x_rows, rows)
            logit = level[rows] / temperature
            if step == 0:
                m[rows] = logit
                if picked is None:
                    acc_rows[:] = x_rows
                else:
                    # "clip" writes straight into acc_rows; "raise" would
                    # buffer the output (sel is in range either way)
                    np.take(x_rows, sel, axis=0, out=acc_rows, mode="clip")
                if caps:
                    acc_u[rows] = u[rows]
                    acc_reach[rows] = reach[rows]
            else:
                m_rows = m[rows]
                if (logit > m_rows).any():
                    # rows whose running max rises are rescaled by
                    # exp(m - logit) < 1, the others by exactly 1
                    rescale = np.exp(np.minimum(m_rows - logit, 0.0))
                    z[rows] *= rescale
                    np.maximum(m_rows, logit, out=m_rows)
                    acc_rows *= rescale[sel, None]
                    if caps:
                        acc_u[rows] *= rescale
                        acc_reach[rows] *= rescale
                e = np.exp(logit - m_rows)
                _add_scaled_rows(acc_rows, e, x_rows, sel)
                if caps:
                    acc_u[rows] += e * u[rows]
                    acc_reach[rows] += e * reach[rows]
                z[rows] += e
            if step and step in caps:
                # nsl is a product of cosines, blind to the positive row
                # scale z: the GSL of acc is the GSL of acc / z. At step
                # 0, acc is x0 and its level is step 0's.
                cap_level[rows] = nsl_of(np.einsum("ij,ij->i", acc_rows, acc_rows),
                                         x0_dots(acc_rows, rows),
                                         acc_u[rows], acc_reach[rows], acc_rows, rows)
            if step == k:
                acc_rows /= z[rows][sel, None]

    for step, x in enumerate(itertools.chain([x0], steps)):
        if step:
            u, reach = adj.matrix @ u, adj.matrix @ reach
        _run_sharded(fold, n, shards, block)
        if step == 0 and divisor is not None:
            # the rows whose y.x0 is read from x0 itself (see _DIVISOR_RANGE);
            # x0_dots runs after step 0 only
            beyond = ((divisor < 1.0 / _DIVISOR_RANGE) | (divisor > _DIVISOR_RANGE)
                      | (x0_sq > _X0_SQ_BOUND))
        nsl[:, step] = level
        gsl[step] = level.mean()
        if step in caps:
            cap_gsl[step] = float((cap_level if step else level).mean())
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
# Smallest part of node_profile.csv, in rows, formatted by a forked worker:
# on 2 cores, two workers took 26 ms against 18 ms in this process on 8,192
# rows and 40 against 53 ms on 16,384.
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

    A profile of two _CSV_MIN_PART_ROWS rows or more is formatted by
    forked workers, one range of nodes each (see propagation._run_forked),
    and their bytes are copied into the file in node order: the file is
    the same byte for byte. If a worker fails, the file is written again
    in this process, as a smaller profile is.
    """
    if profile.weights is None:
        raise ParameterError("profile has no weights; compute them before exporting")
    num_nodes = profile.nsl.shape[0]
    parts = _fork_parts(profile.nsl.size, _CSV_MIN_PART_ROWS)
    if parts > 1:
        bounds = [num_nodes * i // parts for i in range(parts + 1)]

        def work(part: int, out) -> None:
            # the whole part is formatted before any of it is written: a
            # pipe holds little, and the parent copies the parts in order
            out.writelines(list(_profile_rows(profile, bounds[part], bounds[part + 1])))

        def collect(readers) -> bool:
            with open(path, "wb") as fh:
                fh.write(_CSV_HEADER)
                for reader in readers:
                    shutil.copyfileobj(reader, fh)
            return True

        if _run_forked(parts, work, collect):
            return
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        fh.writelines(_profile_rows(profile, 0, num_nodes))


def write_gsl_csv(profile: SmoothnessProfile, path) -> None:
    """Per-step graph smoothing level summary: step, gsl."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "gsl"])
        for k, g in enumerate(profile.gsl):
            writer.writerow([k, repr(float(g))])
