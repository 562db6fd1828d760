"""Dataset ingestion, splits, sparsity transforms, and synthetic graphs.

A dataset directory contains four UTF-8, LF-terminated files without
header rows:

    edges.tsv     one "u<TAB>v" pair per line
    features.csv  row v = comma-separated reals for node v
    labels.csv    row v = integer class id of node v
    splits.json   {"train": [...], "val": [...], "test": [...]}

Node count and order are defined by features.csv. Edge endpoints that all
parse as integers are used directly as node indices; otherwise ids are
treated as opaque strings and remapped to 0..N-1 in order of first
appearance (the mapping is kept on the Dataset).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParameterError, ValidationError
from .graph import Graph, build_graph


def check_disjoint(splits) -> None:
    """Reject train/val/test index sets that share a node."""
    names = ("train", "val", "test")
    arrays = [np.asarray(getattr(splits, n), dtype=np.int64) for n in names]
    for i in range(3):
        for j in range(i + 1, 3):
            common = np.intersect1d(arrays[i], arrays[j])
            if common.size:
                raise ValidationError(
                    f"splits '{names[i]}' and '{names[j]}' overlap at index {int(common[0])}"
                )


@dataclass(frozen=True)
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
        check_disjoint(self)


@dataclass(frozen=True)
class Dataset:
    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    splits: Splits
    num_classes: int
    node_id_map: dict[str, int] | None = None  # only set for string node ids

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


def _read_text(path: Path) -> str:
    if not path.is_file():
        raise ValidationError(f"missing dataset file: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def _read_lines(path: Path) -> list[str]:
    lines = _read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_features(path: Path) -> np.ndarray:
    lines = _read_lines(path)
    if not lines:
        raise ValidationError(f"{path}: file is empty")
    rows = []
    width = None
    for i, line in enumerate(lines):
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ValidationError(
                f"{path}: line {i + 1}: expected {width} values, got {len(parts)}"
            )
        try:
            rows.append(np.asarray(parts, dtype=np.float64))
        except ValueError as exc:
            raise ValidationError(f"{path}: line {i + 1}: {exc}") from None
    feats = np.vstack(rows)
    if not np.isfinite(feats).all():
        raise ValidationError(f"{path}: features contain NaN or Inf")
    return feats


def _parse_labels(path: Path, num_nodes: int) -> tuple[np.ndarray, int]:
    lines = _read_lines(path)
    if len(lines) != num_nodes:
        raise ValidationError(
            f"{path}: expected {num_nodes} label rows, found {len(lines)}"
        )
    labels = np.empty(num_nodes, dtype=np.int64)
    for i, line in enumerate(lines):
        try:
            labels[i] = int(line.strip())
        except ValueError:
            raise ValidationError(f"{path}: line {i + 1}: not an integer: {line!r}") from None
    if labels.min() < 0:
        bad = int(np.flatnonzero(labels < 0)[0])
        raise ValidationError(f"{path}: line {bad + 1}: negative class id")
    num_classes = int(labels.max()) + 1
    present = np.bincount(labels, minlength=num_classes)
    missing = np.flatnonzero(present == 0)
    if missing.size:
        raise ValidationError(f"{path}: class {int(missing[0])} has no nodes")
    return labels, num_classes


def _parse_edges(path: Path, num_nodes: int) -> tuple[list[tuple[int, int]], dict[str, int] | None]:
    lines = _read_lines(path)
    pairs = []
    for i, line in enumerate(lines):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValidationError(
                f"{path}: line {i + 1}: expected 'u<TAB>v', got {line!r}"
            )
        pairs.append((parts[0].strip(), parts[1].strip()))

    try:
        int_pairs = [(int(u), int(v)) for u, v in pairs]
    except ValueError:
        int_pairs = None

    if int_pairs is not None:
        for i, (u, v) in enumerate(int_pairs):
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValidationError(
                    f"{path}: line {i + 1}: node id out of range [0, {num_nodes}): ({u}, {v})"
                )
        return int_pairs, None

    # string ids: dense indices in order of first appearance
    id_map: dict[str, int] = {}
    edges = []
    for i, (u, v) in enumerate(pairs):
        idxs = []
        for tok in (u, v):
            if tok not in id_map:
                if len(id_map) >= num_nodes:
                    raise ValidationError(
                        f"{path}: line {i + 1}: unknown node id {tok!r} "
                        f"(more than {num_nodes} distinct ids)"
                    )
                id_map[tok] = len(id_map)
            idxs.append(id_map[tok])
        edges.append((idxs[0], idxs[1]))
    return edges, id_map


def _parse_splits(path: Path, num_nodes: int) -> Splits:
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object with train/val/test lists")
    parts = {}
    for name in ("train", "val", "test"):
        if name not in raw:
            raise ValidationError(f"{path}: missing split '{name}'")
        entries = raw[name]
        # exact int: numpy would truncate 0.7 to node 0 and read true as 1
        if not isinstance(entries, list) or any(type(v) is not int for v in entries):
            raise ValidationError(
                f"{path}: split '{name}' must be a list of integer node indices"
            )
        bad = next((v for v in entries if not 0 <= v < num_nodes), None)
        if bad is not None:
            raise ValidationError(f"{path}: split '{name}' contains out-of-range index {bad}")
        parts[name] = entries
    return Splits(**parts)


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory (see module docstring)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"dataset directory not found: {directory}")
    features = _parse_features(directory / "features.csv")
    num_nodes = features.shape[0]
    labels, num_classes = _parse_labels(directory / "labels.csv", num_nodes)
    edges, id_map = _parse_edges(directory / "edges.tsv", num_nodes)
    splits = _parse_splits(directory / "splits.json", num_nodes)
    graph = build_graph(edges, num_nodes)
    return Dataset(graph, features, labels, splits, num_classes, id_map)


# ---------------------------------------------------------------------------
# Sparsity transforms. All are pure functions of (input, seed).
# ---------------------------------------------------------------------------

def drop_edges(graph: Graph, keep_fraction: float, seed: int) -> Graph:
    """Keep floor(keep_fraction * M) undirected edges, chosen uniformly."""
    if not 0.0 <= keep_fraction <= 1.0:
        raise ParameterError(f"keep_fraction must lie in [0, 1], got {keep_fraction}")
    edges = graph.undirected_edges()
    n_keep = int(math.floor(keep_fraction * graph.num_edges))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(graph.num_edges, size=n_keep, replace=False)
    return build_graph(edges[np.sort(chosen)], graph.num_nodes)


def subsample_labels(dataset: Dataset, per_class: int, seed: int) -> Dataset:
    """Shrink the train split to per_class uniformly chosen nodes per class."""
    if per_class < 1:
        raise ParameterError(f"per_class must be >= 1, got {per_class}")
    rng = np.random.default_rng(seed)
    new_train = []
    for c in range(dataset.num_classes):
        pool = dataset.splits.train[dataset.labels[dataset.splits.train] == c]
        if pool.size < per_class:
            raise ValidationError(
                f"class {c} has only {pool.size} training nodes, need {per_class}"
            )
        new_train.append(rng.choice(np.sort(pool), size=per_class, replace=False))
    train = np.sort(np.concatenate(new_train))
    splits = Splits(train=train, val=dataset.splits.val, test=dataset.splits.test)
    return replace(dataset, splits=splits)


def mask_features(dataset: Dataset, missing_fraction: float, seed: int) -> Dataset:
    """Zero out the feature rows of floor(missing_fraction * N) random nodes."""
    if not 0.0 <= missing_fraction <= 1.0:
        raise ParameterError(
            f"missing_fraction must lie in [0, 1], got {missing_fraction}"
        )
    n = dataset.num_nodes
    n_mask = int(math.floor(missing_fraction * n))
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=n_mask, replace=False)
    features = dataset.features.copy()
    features[rows] = 0.0
    return replace(dataset, features=features)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): every unordered pair is an edge independently with probability p.

    Sparse graphs are sampled by skipping geometric gaps through the
    linearized pair index, so the cost is O(E) rather than O(n^2).
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    total = n * (n - 1) // 2
    if total == 0 or p == 0.0:
        return build_graph([], n)
    if p == 1.0:
        u, v = np.triu_indices(n, k=1)
        return build_graph(np.column_stack([u, v]), n)

    rng = np.random.default_rng(seed)
    picks = []
    pos = -1
    batch = max(1024, int(total * p * 1.2))
    log1mp = math.log1p(-p)
    while pos < total:
        gaps = np.floor(np.log1p(-rng.random(batch)) / log1mp).astype(np.int64) + 1
        cand = pos + np.cumsum(gaps)
        picks.append(cand[cand < total])
        if cand[-1] >= total:
            break
        pos = int(cand[-1])
    linear = np.concatenate(picks)

    # invert the row-major pair index: row i covers offsets[i] .. offsets[i+1)
    counts = np.arange(n - 1, 0, -1, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    u = np.searchsorted(offsets, linear, side="right") - 1
    v = u + 1 + (linear - offsets[u])
    return build_graph(np.column_stack([u, v]), n)
