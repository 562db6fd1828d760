"""End-to-end pipeline orchestration behind the CLI subcommands.

The training pipeline is: features (row-normalized by the loader, see
load_run_dataset) -> normalized adjacency -> multi-step propagation ->
per-node smoothing levels -> softmax step weights -> combined features ->
residual MLP (or the propagate-then-logistic-regression baseline). The
runners use the dataset's features as given. Propagation, smoothing
levels and the combination share one walk over the steps
(smoothness.propagation_pass), so working memory stays O(N*d) at any depth
and the stack is never stored.
"""

from __future__ import annotations

import itertools
import resource
import time
import tracemalloc
from collections import deque
from dataclasses import asdict, dataclass, fields

import numpy as np

# row_divisor and row_normalize live beside the parser that applies them;
# they stay importable from here
from .data import Dataset, Splits, drop_edges, erdos_renyi, load_dataset, \
    mask_features, planted_dataset, row_divisor, row_normalize, subsample_labels
from .errors import ConfigurationError, ValidationError
from .graph import MAX_NODES, Graph, normalize
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
# knob -> greatest legal value; a hidden width must fit an int64 array dimension
_MOST = {"n": MAX_NODES, "hidden": 2 ** 63 - 1}


def _check_knob(name: str, value, option: str | None = None) -> None:
    """Raise ConfigurationError unless value is legal for knob name;
    option names the grid the value came from."""
    where = f"{option}: " if option else ""
    if name in _FRACTIONS and not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{where}{name} must lie in [0, 1], got {value}")
    if name in _LEAST and value < _LEAST[name]:
        raise ConfigurationError(f"{where}{name} must be >= {_LEAST[name]}, got {value}")
    if name in _MOST and value > _MOST[name]:
        raise ConfigurationError(f"{where}{name} must be <= {_MOST[name]}, got {value}")


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
    feature_norm: str = "l1"         # none | l1 | l2, applied by load_run_dataset
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
        # a list value given twice would run, and write, the same cell
        # twice; a cap has no knob rule, its range is checked against dp below
        for name, attr in _SWEEP_AXES + (("n", "sizes"), ("cap", "caps")):
            values = getattr(self, attr) or []
            for i, value in enumerate(values):
                _check_knob(name, value, attr)
                if value in values[:i]:
                    raise ConfigurationError(f"{attr} lists {value} more than once")
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
        self.train_config()  # fail on lr, epochs, weight_decay or seed before any data is read

    def to_dict(self) -> dict:
        return asdict(self)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.lr, epochs=self.epochs,
            weight_decay=self.weight_decay,
            seed=self.seed if seed is None else seed,
        )


def prepare_combined(graph: Graph, features: np.ndarray, *, dp: int, r: float,
                     temperature: float, rows=None):
    """Propagate, profile smoothness, and combine; returns (combined, profile).

    With rows (sorted node ids), combined holds those nodes' rows alone;
    the profile always covers every node.
    """
    walk = propagation_pass(graph, features, k=dp, r=r, temperature=temperature,
                            rows=rows)
    return walk.combined, walk.profile


def _propagated_step(graph: Graph, features: np.ndarray, *, k: int, r: float) -> np.ndarray:
    """A_hat^k X, holding one step at a time."""
    return deque(propagation_steps(normalize(graph, r), features, k), maxlen=1)[0]


def _classifier_input(graph: Graph, features: np.ndarray, cfg: RunConfig,
                      dp: int, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of A_hat^dp X for the SGC baseline, else of the
    node-adaptive combination."""
    if cfg.baseline == "sgc":
        return _propagated_step(graph, features, k=dp, r=cfg.r)[rows]
    combined, _ = prepare_combined(graph, features, dp=dp, r=cfg.r,
                                   temperature=cfg.temperature, rows=rows)
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
    feats = _classifier_input(dataset.graph, dataset.features, cfg, cfg.dp, labeled)
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
    if dataset.num_nodes < 3:
        raise ValidationError(f"profile needs at least 3 nodes, one per degree tercile, "
                              f"got {dataset.num_nodes}")
    caps = cfg.caps if cfg.caps else _default_caps(cfg.dp)
    walk = propagation_pass(dataset.graph, dataset.features, k=cfg.dp, r=cfg.r,
                            temperature=cfg.temperature, caps=caps)
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
    """Grid sweep; one output row per cell with mean/std over num_seeds runs.
    Each classifier input is built once, for every run that reads it."""
    axes = [(name, list(getattr(cfg, attr)))
            for name, attr in _SWEEP_AXES if getattr(cfg, attr)]
    if not axes:
        raise ConfigurationError("empty sweep grid: provide at least one *_grid")

    # subsample_labels draws from the train split, so these rows serve
    # every cell
    labeled = _labeled_rows(dataset.splits)
    seeds = range(cfg.seed, cfg.seed + cfg.num_seeds)
    # every train split is drawn before the first walk, so an impossible
    # labels_per_class fails first ("" when it is not swept: the row's cell)
    try:
        targets = {(per_class, seed): dataset if per_class == ""
                   else subsample_labels(dataset, per_class, seed)
                   for per_class in cfg.labels_per_class_grid or [""] for seed in seeds}
    except ValidationError as exc:
        raise ValidationError(f"labels_per_class_grid: {exc}") from None

    defaults = {"dp": cfg.dp, "dt": cfg.dt, "keep_edges": 1.0, "labels_per_class": "",
                "mask_features": 0.0}
    cells = [defaults | dict(zip((name for name, _ in axes), cell))
             for cell in itertools.product(*(vals for _, vals in axes))]
    # (cell, seed) runs by the input they read; the seed is part of its key
    # only when edges or features are perturbed
    readers = {}
    for i, point in enumerate(cells):
        keep, mask = point["keep_edges"], point["mask_features"]
        for s, seed in enumerate(seeds):
            key = (point["dp"], keep, mask, seed if keep < 1.0 or mask > 0.0 else None)
            readers.setdefault(key, []).append((i, s))

    accs = np.empty((len(cells), cfg.num_seeds))
    for (dp, keep, mask, seed), runs in readers.items():
        # the perturbed graph and features live only as long as the walk
        feats = _classifier_input(
            dataset.graph if keep >= 1.0 else drop_edges(dataset.graph, keep, seed),
            mask_features(dataset, mask, seed).features if mask > 0.0 else dataset.features,
            cfg, dp, labeled)
        for i, s in runs:
            ds = targets[cells[i]["labels_per_class"], seeds[s]]
            _, metrics = _train_on(feats, *_at_rows(labeled, ds.labels, ds.splits),
                                   dataset.num_classes, cfg, dt=cells[i]["dt"], seed=seeds[s])
            accs[i, s] = metrics.test_accuracy
    return [point | {"num_seeds": cfg.num_seeds, "test_acc_mean": float(acc.mean()),
                     "test_acc_std": float(acc.std())} for point, acc in zip(cells, accs)]


def run_scale(cfg: RunConfig) -> list[dict]:
    """For each size, time run_train on a G(n, p) graph and a planted dataset
    on it, used as generated (cfg.feature_norm and cfg.dataset do not
    apply). preprocess_seconds counts the generation and the pass."""
    if not cfg.sizes:
        raise ConfigurationError("scale benchmark needs at least one graph size")
    split_sizes = (cfg.train_nodes, cfg.val_nodes, cfg.test_nodes)
    rows = []
    for n in cfg.sizes:
        tracemalloc.start()
        t0 = time.perf_counter()
        graph = erdos_renyi(n, cfg.edge_prob, cfg.seed)
        dataset = planted_dataset(graph, dim=cfg.dim, classes=cfg.classes,
                                  split_sizes=split_sizes, seed=cfg.seed + 1)
        generation = time.perf_counter() - t0
        result, _, metrics = run_train(dataset, cfg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append({
            "num_nodes": n,
            "num_edges": graph.num_edges,
            "preprocess_seconds": generation + result["preprocess_seconds"],
            "train_seconds": result["train_seconds"],
            "peak_traced_mb": peak / (1 << 20),
            "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_train_accuracy": metrics.train_accuracy[-1],
            "test_accuracy": metrics.test_accuracy,
            "seed": cfg.seed,
        })
    return rows


def load_run_dataset(cfg: RunConfig) -> Dataset:
    """cfg.dataset loaded, its feature rows normalized by cfg.feature_norm
    as they are parsed: bit for bit row_normalize(raw, cfg.feature_norm)."""
    if not cfg.dataset:
        raise ConfigurationError("--dataset is required for this command")
    return load_dataset(cfg.dataset, _feature_norm=cfg.feature_norm)
