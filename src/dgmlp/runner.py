"""End-to-end pipeline orchestration behind the CLI subcommands.

The training pipeline is: row divisors of the features -> normalized
adjacency -> multi-step propagation of the divided features -> per-node
smoothing levels -> softmax step weights -> combined features -> residual
MLP (or the propagate-then-logistic-regression baseline). The features are
not normalized into a copy: the walk divides them by the row divisors
(one N-vector) into its first step buffer. Propagation, smoothing levels
and the combination share one walk over the steps
(smoothness.propagation_pass), so working memory stays O(N*d) at any depth
and the stack is never stored.
"""

from __future__ import annotations

import functools
import itertools
import resource
import time
import tracemalloc
from collections import deque
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, Splits, drop_edges, erdos_renyi, load_dataset, \
    mask_features, subsample_labels
from .errors import ConfigurationError, ValidationError
from .graph import Graph, normalize
from .nn import ResidualMlp, TrainConfig, train
from .propagation import propagation_steps
from .smoothness import check_temperature, propagation_pass


# (row name, RunConfig grid field) of each sweep axis
_SWEEP_AXES = (
    ("dp", "dp_grid"),
    ("dt", "dt_grid"),
    ("keep_edges", "keep_edges_grid"),
    ("labels_per_class", "labels_per_class_grid"),
    ("mask_features", "mask_features_grid"),
)

# knob -> least legal value; a sweep axis shares the rule of its row name
_LEAST = {"dp": 0, "dt": 1, "hidden": 1, "num_seeds": 1, "labels_per_class": 1,
          "dim": 1, "classes": 1, "train_nodes": 1, "val_nodes": 1, "test_nodes": 1,
          "n": 3}  # n: a scale graph size; 3 nodes give three non-empty splits
_FRACTIONS = ("keep_edges", "mask_features", "edge_prob")  # must lie in [0, 1]


def _check_knob(name: str, value, option: str | None = None) -> None:
    """Raise ConfigurationError unless value is legal for knob name;
    option names the grid the value came from."""
    where = f"{option}: " if option else ""
    if name in _FRACTIONS and not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{where}{name} must lie in [0, 1], got {value}")
    if name in _LEAST and value < _LEAST[name]:
        raise ConfigurationError(f"{where}{name} must be >= {_LEAST[name]}, got {value}")


@dataclass
class RunConfig:
    """Everything a run needs; echoed verbatim into result files."""

    dataset: str | None = None
    dp: int = 2                      # propagation depth K
    dt: int = 1                      # transformation depth (1 = logistic head)
    hidden: int = 64
    temperature: float = 1.0
    r: float = 0.5
    lr: float = 0.1
    epochs: int = 200
    weight_decay: float = 5e-6
    dropout: float = 0.1
    seed: int = 0
    use_bias: bool = False
    baseline: str | None = None      # "sgc" trains on the dp-step features
    out: str | None = None
    feature_norm: str = "l1"         # none | l1 | l2
    # profile
    caps: list[int] | None = None
    # sweep
    dp_grid: list[int] | None = None
    dt_grid: list[int] | None = None
    keep_edges_grid: list[float] | None = None
    labels_per_class_grid: list[int] | None = None
    mask_features_grid: list[float] | None = None
    num_seeds: int = 1
    # scale
    sizes: list[int] | None = None
    edge_prob: float = 1e-4
    dim: int = 64
    classes: int = 10
    train_nodes: int = 1000
    val_nodes: int = 500
    test_nodes: int = 1000

    def __post_init__(self):
        for f in fields(self):
            if f.name in _LEAST or f.name in _FRACTIONS:
                _check_knob(f.name, getattr(self, f.name))
        for name, attr in _SWEEP_AXES + (("n", "sizes"),):
            for value in getattr(self, attr) or ():
                _check_knob(name, value, attr)
        if not 0.0 <= self.r <= 1.0:
            raise ConfigurationError(
                f"normalization exponent r must lie in [0, 1], got {self.r}")
        for cap in self.caps or ():
            if not 0 <= cap <= self.dp:
                raise ConfigurationError(f"cap {cap} outside [0, {self.dp}]")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must lie in [0, 1), got {self.dropout}")
        check_temperature(self.temperature, ConfigurationError)
        if self.feature_norm not in ("none", "l1", "l2"):
            raise ConfigurationError(f"unknown feature_norm: {self.feature_norm!r}")
        if self.baseline not in (None, "sgc"):
            raise ConfigurationError(f"unknown baseline: {self.baseline!r}")
        if self.baseline == "sgc" and (self.dt != 1 or self.dt_grid):
            name = "dt_grid" if self.dt_grid else "dt"
            raise ConfigurationError(
                f"{name} does not apply to the sgc baseline, which always trains one layer"
            )
        self.train_config()  # fail on lr, epochs or weight_decay before any data is read

    def to_dict(self) -> dict:
        return asdict(self)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.lr, epochs=self.epochs,
            weight_decay=self.weight_decay,
            seed=self.seed if seed is None else seed,
        )


# values of |x| made per block of rows while row divisors are computed
_DIVISOR_BLOCK_VALUES = 1 << 16

# An L2 norm below this (2**-511) comes from a sum of squares below the
# normal range, where the squares have lost bits or underflowed to zero
_L2_SQUARES_FLOOR = 2.0 ** -511


def _row_norms(part: np.ndarray, mode: str) -> np.ndarray:
    """The L1 or L2 norm of each row of part, by one whole-block reduction."""
    if mode == "l1":
        return np.abs(part, dtype=np.float64).sum(axis=1)
    return np.linalg.norm(part, axis=1)


def row_divisor(features: np.ndarray, mode: str) -> np.ndarray | None:
    """The N-vector row_normalize divides the rows by: each row's L1 or L2
    norm, or 1 for a zero row; None for mode "none".

    The norms are taken a block of rows at a time, each row by the same
    reduction as over the whole matrix, so no N x d |x| is made. A row
    whose norm so taken overflowed to inf, or whose L2 norm fell below
    2**-511 (where its squares lose bits, or all underflow to 0), takes
    its norm again from the row scaled by a power of two, exactly, to a
    largest magnitude in [0.5, 1), then scaled back; every other row keeps
    the bits of the plain reduction. An L2 norm below the normal range
    (2**-1022) is then the norm rounded to the subnormal grid, so its row
    is divided to a norm near 1, not to 1. Raises ValidationError for a
    row whose norm lies beyond DBL_MAX: no float64 divisor gives it unit
    norm.
    """
    if mode == "none":
        return None
    if mode not in ("l1", "l2"):
        raise ConfigurationError(f"unknown feature_norm: {mode!r}")
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    block = max(1, _DIVISOR_BLOCK_VALUES // max(1, features.shape[1]))
    norms = np.empty(n)
    floor = _L2_SQUARES_FLOOR if mode == "l2" else 0.0
    with np.errstate(over="ignore"):  # an overflowed norm is taken again
        for start in range(0, n, block):
            part = features[start:start + block]
            got = norms[start:start + block]
            got[:] = _row_norms(part, mode)
            redo = np.flatnonzero((got == np.inf) | (got < floor))
            if redo.size:
                scaled = np.abs(part[redo], dtype=np.float64)
                _, exp = np.frexp(scaled.max(axis=1, initial=0.0))
                got[redo] = np.ldexp(_row_norms(np.ldexp(scaled, -exp[:, None]), mode), exp)
    if n and norms.max() == np.inf:
        raise ValidationError(
            f"row {int(np.argmax(norms))} of the features has an {mode.upper()} norm above "
            f"DBL_MAX (1.8e308), so no float64 divisor gives it unit norm; scale the "
            f"features down")
    # a zero row divided by 1.0 stays as it is, -0.0 included
    return np.where(norms > 0.0, norms, 1.0)


def row_normalize(features: np.ndarray, mode: str) -> np.ndarray:
    """Scale each row to unit L1/L2 norm; zero rows stay zero.

    The rows are divided by row_divisor(features, mode); the pipeline hands
    that divisor to the propagation walk instead of making this copy.
    """
    divisor = row_divisor(features, mode)
    if divisor is None:
        return features
    return np.divide(features, divisor[:, None])


def prepare_combined(graph: Graph, features: np.ndarray, *, dp: int, r: float,
                     temperature: float, rows=None, divisor=None):
    """Propagate, profile smoothness, and combine; returns (combined, profile).

    With rows (sorted node ids), combined holds those nodes' rows alone;
    the profile always covers every node. With divisor (see row_divisor),
    the walk starts from features / divisor[:, None].
    """
    walk = propagation_pass(graph, features, k=dp, r=r, temperature=temperature,
                            rows=rows, divisor=divisor)
    return walk.combined, walk.profile


def _propagated_step(graph: Graph, features: np.ndarray, *, k: int, r: float,
                     divisor=None) -> np.ndarray:
    """A_hat^k X, holding one step at a time; X is features / divisor[:, None]
    with a divisor."""
    return deque(propagation_steps(normalize(graph, r), features, k, divisor),
                 maxlen=1)[0]


def _classifier_input(graph: Graph, features: np.ndarray, cfg: RunConfig,
                      dp: int, rows: np.ndarray, divisor=None) -> np.ndarray:
    """Rows `rows` of A_hat^dp X for the SGC baseline, else of the
    node-adaptive combination; X is features / divisor[:, None] with a
    divisor."""
    if cfg.baseline == "sgc":
        return _propagated_step(graph, features, k=dp, r=cfg.r, divisor=divisor)[rows]
    combined, _ = prepare_combined(graph, features, dp=dp, r=cfg.r,
                                   temperature=cfg.temperature, rows=rows,
                                   divisor=divisor)
    return combined


def _labeled_rows(splits: Splits) -> np.ndarray:
    """The sorted ids of the nodes in any split: the only rows the
    classifier reads."""
    return np.unique(np.concatenate([splits.train, splits.val, splits.test]))


def _at_rows(rows: np.ndarray, labels: np.ndarray, splits: Splits):
    """(labels, splits) for a matrix whose row i belongs to node rows[i]:
    the labels of those nodes, and each split's node ids as row positions.
    rows is sorted and holds every node of every split."""
    def at(ids):
        return np.searchsorted(rows, ids)
    return labels[rows], Splits(train=at(splits.train), val=at(splits.val),
                                test=at(splits.test))


def _train_on(features: np.ndarray, labels: np.ndarray, splits: Splits,
              num_classes: int, cfg: RunConfig, *, dt: int | None = None,
              seed: int | None = None):
    """Train a num_classes-way classifier on precomputed features; returns
    (model, metrics).

    dt and seed default to cfg's.
    """
    seed = cfg.seed if seed is None else seed
    model = ResidualMlp.create(
        features.shape[1], num_classes,
        num_layers=cfg.dt if dt is None else dt,
        hidden_dim=cfg.hidden, use_bias=cfg.use_bias,
        dropout_rate=cfg.dropout, seed=seed,
    )
    return train(model, features, labels, splits, cfg.train_config(seed))


def run_train(dataset: Dataset, cfg: RunConfig):
    """Full pipeline on a loaded dataset; returns (result dict, model, metrics)."""
    t0 = time.perf_counter()
    labeled = _labeled_rows(dataset.splits)
    divisor = row_divisor(dataset.features, cfg.feature_norm)
    feats = _classifier_input(dataset.graph, dataset.features, cfg, cfg.dp, labeled,
                              divisor)
    t1 = time.perf_counter()
    model, metrics = _train_on(feats, *_at_rows(labeled, dataset.labels, dataset.splits),
                               dataset.num_classes, cfg)
    t2 = time.perf_counter()
    result = {
        "command": "train",
        "config": cfg.to_dict(),
        "preprocess_seconds": t1 - t0,
        "train_seconds": t2 - t1,
        "metrics": metrics.to_dict(),
        "test_accuracy": metrics.test_accuracy,
        "best_epoch": metrics.best_epoch,
    }
    return result, model, metrics


def _default_caps(dp: int) -> list[int]:
    if dp <= 24:
        return list(range(dp + 1))
    caps = sorted({int(round(c)) for c in np.linspace(0, dp, 25)})
    return caps


def run_profile(dataset: Dataset, cfg: RunConfig) -> dict:
    """Smoothness curves: raw per-step GSL, combined GSL per depth cap,
    and per-step mean NSL of three degree terciles."""
    caps = cfg.caps if cfg.caps else _default_caps(cfg.dp)
    walk = propagation_pass(dataset.graph, dataset.features, k=cfg.dp, r=cfg.r,
                            temperature=cfg.temperature, caps=caps,
                            divisor=row_divisor(dataset.features, cfg.feature_norm))
    profile = walk.profile
    combined_gsl = [walk.cap_gsl[cap] for cap in caps]

    order = np.argsort(dataset.graph.degrees, kind="stable")
    groups = np.array_split(order, 3)  # low, mid, high degree terciles
    tercile_nsl = np.stack([profile.nsl[g].mean(axis=0) for g in groups])

    return {
        "command": "profile",
        "config": cfg.to_dict(),
        "steps": list(range(cfg.dp + 1)),
        "gsl_raw": [float(g) for g in profile.gsl],
        "caps": list(caps),
        "gsl_combined": combined_gsl,
        "tercile_low": [float(x) for x in tercile_nsl[0]],
        "tercile_mid": [float(x) for x in tercile_nsl[1]],
        "tercile_high": [float(x) for x in tercile_nsl[2]],
        "profile": profile,
    }


def run_sweep(dataset: Dataset, cfg: RunConfig) -> list[dict]:
    """Grid sweep; one output row per cell with mean/std over num_seeds runs."""
    axes = [(name, list(getattr(cfg, attr)))
            for name, attr in _SWEEP_AXES if getattr(cfg, attr)]
    if not axes:
        raise ConfigurationError("empty sweep grid: provide at least one *_grid")

    # masking zeroes whole rows, which the divisor of the unmasked rows
    # leaves zero
    divisor = row_divisor(dataset.features, cfg.feature_norm)
    # subsample_labels draws from the train split, so these rows serve
    # every cell
    labeled = _labeled_rows(dataset.splits)

    @functools.lru_cache(maxsize=4)
    def prepared(dp, keep, mask, seed):
        """Classifier input; seed is None unless edges or features are perturbed."""
        graph = dataset.graph if keep >= 1.0 else drop_edges(dataset.graph, keep, seed)
        feats = dataset.features
        if mask > 0.0:
            feats = mask_features(dataset, mask, seed).features
        return _classifier_input(graph, feats, cfg, dp, labeled, divisor)

    rows = []
    for cell in itertools.product(*(vals for _, vals in axes)):
        point = dict(zip((name for name, _ in axes), cell))
        dp = point.get("dp", cfg.dp)
        dt = point.get("dt", cfg.dt)
        keep = point.get("keep_edges", 1.0)
        mask = point.get("mask_features", 0.0)
        structural = keep < 1.0 or mask > 0.0
        per_class = point.get("labels_per_class")
        accs = []
        for s in range(cfg.num_seeds):
            seed = cfg.seed + s
            feats = prepared(dp, keep, mask, seed if structural else None)
            ds = dataset
            if per_class is not None:
                ds = subsample_labels(dataset, per_class, seed)
            _, metrics = _train_on(feats, *_at_rows(labeled, ds.labels, ds.splits),
                                   dataset.num_classes, cfg, dt=dt, seed=seed)
            accs.append(metrics.test_accuracy)
        accs = np.asarray(accs)
        row = {
            "dp": dp, "dt": dt, "keep_edges": keep,
            "labels_per_class": per_class if per_class is not None else "",
            "mask_features": mask,
            "num_seeds": cfg.num_seeds,
            "test_acc_mean": float(accs.mean()),
            "test_acc_std": float(accs.std()),
        }
        rows.append(row)
    return rows


def synthetic_node_data(n: int, cfg: RunConfig, seed: int):
    """Features, labels, and splits for benchmark graphs without data."""
    rng = np.random.default_rng(seed)
    features = rng.random((n, cfg.dim))
    labels = rng.integers(0, cfg.classes, size=n).astype(np.int64)
    n_train = min(cfg.train_nodes, max(1, n // 4))
    n_val = min(cfg.val_nodes, max(1, n // 4))
    n_test = min(cfg.test_nodes, max(1, n // 4))
    perm = rng.permutation(n)
    splits = Splits(
        train=np.sort(perm[:n_train]),
        val=np.sort(perm[n_train:n_train + n_val]),
        test=np.sort(perm[n_train + n_val:n_train + n_val + n_test]),
    )
    return features, labels, splits


def run_scale(cfg: RunConfig) -> list[dict]:
    """Generate G(n, p) graphs over a size range and time the full pipeline.

    The synthetic features are used as generated, so cfg.feature_norm (and
    cfg.dataset) do not apply.
    """
    if not cfg.sizes:
        raise ConfigurationError("scale benchmark needs at least one graph size")
    rows = []
    for n in cfg.sizes:
        tracemalloc.start()
        t0 = time.perf_counter()
        graph = erdos_renyi(n, cfg.edge_prob, cfg.seed)
        features, labels, splits = synthetic_node_data(n, cfg, cfg.seed + 1)
        labeled = _labeled_rows(splits)
        features = _classifier_input(graph, features, cfg, cfg.dp, labeled)
        t1 = time.perf_counter()
        _, metrics = _train_on(features, *_at_rows(labeled, labels, splits), cfg.classes,
                               cfg)
        t2 = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append({
            "num_nodes": n,
            "num_edges": graph.num_edges,
            "preprocess_seconds": t1 - t0,
            "train_seconds": t2 - t1,
            "peak_traced_mb": peak / (1 << 20),
            "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_train_accuracy": metrics.train_accuracy[-1],
            "test_accuracy": metrics.test_accuracy,
            "seed": cfg.seed,
        })
    return rows


def load_run_dataset(cfg: RunConfig) -> Dataset:
    if not cfg.dataset:
        raise ConfigurationError("--dataset is required for this command")
    return load_dataset(cfg.dataset)
