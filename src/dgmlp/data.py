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

Each text file is parsed by np.loadtxt when that provably gives what the
per-line parser would (see ``_load_table``; a large file is cut into parts
for forked workers); otherwise by the per-line parser, which names the
offending line.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParameterError, ValidationError
from .graph import MAX_NODES, Graph, _IdOutOfRange, build_graph
from .propagation import _fork_parts, _run_forked


@dataclass(frozen=True)
class Splits:
    """Train/val/test node indices: no split lists a node twice, and no
    two splits share a node."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        names = ("train", "val", "test")
        for name in names:
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
            ids, counts = np.unique(arr, return_counts=True)
            if (counts > 1).any():
                raise ValidationError(
                    f"split '{name}' lists node {int(ids[counts > 1][0])} more than once"
                )
        for i in range(3):
            for j in range(i + 1, 3):
                common = np.intersect1d(getattr(self, names[i]), getattr(self, names[j]))
                if common.size:
                    raise ValidationError(
                        f"splits '{names[i]}' and '{names[j]}' overlap at index {int(common[0])}"
                    )


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


# Bytes on which np.loadtxt and the per-line parsers disagree: loadtxt also
# ends a line at a bare CR (so a blank line can hide the extra row), and it
# strips the ASCII separators 0x1c-0x1f around a float, which the per-line
# parser rejects.
_LOADTXT_ONLY = (b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Files are scanned in blocks below glibc's 128 KiB mmap threshold: freeing
# one whole-file buffer raised that threshold, and the heap it then grew
# made peak RSS later in the run vary by ~35 MB from process to process.
_SCAN_BLOCK = 1 << 16
# Smallest part of a table file parsed by a forked worker (see _load_table).
# On prefixes of a PubMed-like features.csv (2 cores, a parent holding one
# 79 MB feature matrix, medians of 25 in three runs), two workers writing
# into the shared table took 13.5-16.9 ms against 13.6-15.7 ms in this
# process on 1 MiB, 22.3-22.5 against 27.2-30.6 ms on 2 MiB and 43.6-44.3
# against 55.2-63.4 ms on 4 MiB.
_MIN_PART_BYTES = 1 << 20


def _loadtxt(source, dtype, delimiter: str, max_rows=None) -> np.ndarray:
    """np.loadtxt of a table file, with its warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(source, delimiter=delimiter, dtype=dtype, comments=None,
                          ndmin=2, max_rows=max_rows, encoding="utf-8")


# The exit code of a forked worker whose loadtxt raised or warned on its
# part of a table file.
_BAD_DATA = 2


def _load_parts(path: Path, dtype, delimiter: str, starts: list[int],
                rows: list[int]) -> np.ndarray | None:
    """The table parsed by forked workers, or None: worker i parses rows[i]
    lines from byte starts[i] with the np.loadtxt call of _load_table.

    The rows land in one table of sum(rows) rows, as wide as the file's
    first line has fields, held in a memfd made before the fork. Each
    worker maps it shared, copies its part into its own row range and
    exits with 0. A part without exactly its own line count at that
    width, in the requested dtype, is not copied, and its worker exits
    with 1. With max_rows, loadtxt warns at a blank line, which it would
    skip and so count a row of the next part; the warning is an error
    here. A worker whose loadtxt raises or warns exits with _BAD_DATA, and
    ValueError is then raised, once every worker is reaped: loadtxt of the
    whole file would fail too, or count the blank line's row short. Any
    other nonzero code (a crash, a misshapen part) gives None, and the
    caller parses the file in this process.

    The table returned maps the memfd privately: a process forked later
    that writes into it gets its own copy of the page, and this process's
    values stay as they are. The mapping keeps a descriptor of the memfd
    open until the table is freed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        width = fh.readline().count(delimiter.encode()) + 1
    bounds = np.cumsum([0] + rows).tolist()
    shape = (bounds[-1], width)
    if shape[0] * width > size:  # not loadtxt's table: each value takes a byte
        return None
    nbytes = shape[0] * width * np.dtype(dtype).itemsize

    def work(part: int) -> int:
        with open(path, encoding="utf-8") as fh:
            fh.seek(starts[part])
            try:
                got = _loadtxt(fh, dtype, delimiter, max_rows=rows[part])
            except (ValueError, Warning):
                return _BAD_DATA
        # assignment would cast a part of another dtype silently
        if got.shape != (rows[part], width) or got.dtype != dtype:
            return 1
        table = np.frombuffer(mmap.mmap(fd, nbytes), dtype).reshape(shape)
        table[bounds[part]:bounds[part + 1]] = got
        return 0

    try:
        fd = os.memfd_create(path.name, os.MFD_CLOEXEC)
    except OSError:
        return None
    try:
        os.ftruncate(fd, nbytes)
        codes = _run_forked(len(starts), work)
        if codes is not None and _BAD_DATA in codes:
            raise ValueError(f"{path}: np.loadtxt rejected a part")
        if codes != [0] * len(starts):
            return None
        mapped = mmap.mmap(fd, nbytes, flags=mmap.MAP_PRIVATE)
    except OSError:
        return None
    finally:
        os.close(fd)
    return np.frombuffer(mapped, dtype).reshape(shape)


def _load_table(path: Path, dtype, delimiter: str) -> np.ndarray | None:
    """The whole file parsed by np.loadtxt, or None.

    The table counts only if loadtxt raised nothing, warned nothing (it
    only warns on an empty file) and returned one row per line as
    ``_read_lines`` counts them (it skips blank lines). None sends the file
    to its per-line parser, which alone reports what is wrong with it.

    A file of two _MIN_PART_BYTES or more is cut at line starts into parts,
    one per core, each parsed by the same loadtxt call in a forked worker
    that writes its rows into one table shared with this process (see
    _load_parts); the table is the same bit for bit. If a worker's loadtxt
    rejects its part, the answer is None once the workers are done. If the
    workers give no table otherwise (a worker crashed or its part was
    misshapen), the file is parsed in this process, as a smaller one is.
    """
    num_lines, last = 0, b"\n"
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            parts = _fork_parts(size, _MIN_PART_BYTES)
            # each part starts at the first line start at or after its
            # share of the bytes; starts[i] begins line lines_before[i]
            targets = [size * i // parts for i in range(1, parts)]
            starts, lines_before = [0], [0]
            pos = 0
            while block := fh.read(_SCAN_BLOCK):
                if any(byte in block for byte in _LOADTXT_ONLY):
                    return None
                while targets and targets[0] <= pos + len(block):
                    # the LF that ends the line holding byte target - 1
                    lf = block.find(b"\n", max(0, targets[0] - 1 - pos))
                    if lf < 0:
                        break
                    if starts[-1] < pos + lf + 1 < size:
                        starts.append(pos + lf + 1)
                        lines_before.append(num_lines + block.count(b"\n", 0, lf + 1))
                    targets.pop(0)
                num_lines += np.count_nonzero(np.frombuffer(block, np.uint8) == 10)
                last = block[-1:]
                pos += len(block)
    except OSError:
        return None
    num_lines += last != b"\n"  # an unterminated last line
    rows = np.diff(lines_before + [num_lines]).tolist()
    try:
        table = _load_parts(path, dtype, delimiter, starts, rows) if len(starts) > 1 else None
        if table is None:
            table = _loadtxt(path, dtype, delimiter)
    except (ValueError, Warning):
        return None
    return table if table.shape[0] == num_lines else None


def _parse_feature_lines(path: Path) -> np.ndarray:
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
    return np.vstack(rows)


def _parse_features(path: Path) -> np.ndarray:
    feats = _load_table(path, np.float64, ",")
    if feats is None:
        feats = _parse_feature_lines(path)
    if not np.isfinite(feats).all():
        raise ValidationError(f"{path}: features contain NaN or Inf")
    return feats


def _parse_label_lines(path: Path) -> np.ndarray:
    lines = _read_lines(path)
    labels = np.empty(len(lines), dtype=np.int64)
    for i, line in enumerate(lines):
        try:
            labels[i] = int(line.strip())
        except ValueError:
            raise ValidationError(f"{path}: line {i + 1}: not an integer: {line!r}") from None
        except OverflowError:
            raise ValidationError(f"{path}: line {i + 1}: class id out of range: {line!r}") from None
    return labels


def _parse_labels(path: Path, num_nodes: int) -> tuple[np.ndarray, int]:
    table = _load_table(path, np.int64, ",")
    if table is not None and table.shape[1] == 1:
        labels = table[:, 0]
    else:
        labels = _parse_label_lines(path)
    if labels.size != num_nodes:
        raise ValidationError(
            f"{path}: expected {num_nodes} label rows, found {labels.size}"
        )
    if labels.min() < 0:
        bad = int(np.flatnonzero(labels < 0)[0])
        raise ValidationError(f"{path}: line {bad + 1}: negative class id")
    # classes must be exactly 0..C-1; np.unique, unlike bincount, allocates
    # nothing in proportion to the largest id
    classes = np.unique(labels)
    missing = np.flatnonzero(classes != np.arange(classes.size))
    if missing.size:
        raise ValidationError(f"{path}: class {int(missing[0])} has no nodes")
    return labels, int(classes.size)


def _parse_edge_lines(path: Path, num_nodes: int) -> tuple[list[tuple], dict[str, int] | None]:
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
        return [(int(u), int(v)) for u, v in pairs], None
    except ValueError:
        pass

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


def _parse_edges(path: Path, num_nodes: int) -> tuple[np.ndarray, dict[str, int] | None]:
    """(M, 2) integer node ids, row i from line i + 1, and the string-id map
    if ids were remapped. build_graph checks their range."""
    edges = _load_table(path, np.int64, "\t")
    if edges is not None and edges.shape[1] == 2:
        return edges, None
    pairs, id_map = _parse_edge_lines(path, num_nodes)
    # object dtype keeps ids past int64 intact for build_graph's range message
    return np.array(pairs, dtype=object).reshape(-1, 2), id_map


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
    try:
        return Splits(**parts)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory (see module docstring)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"dataset directory not found: {directory}")
    features = _parse_features(directory / "features.csv")
    num_nodes = features.shape[0]
    labels, num_classes = _parse_labels(directory / "labels.csv", num_nodes)
    edges_path = directory / "edges.tsv"
    edges, id_map = _parse_edges(edges_path, num_nodes)
    try:
        graph = build_graph(edges, num_nodes)
    except _IdOutOfRange as exc:
        raise ValidationError(f"{edges_path}: line {exc.row + 1}: {exc.detail}") from None
    splits = _parse_splits(directory / "splits.json", num_nodes)
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
    if n > MAX_NODES:
        raise ParameterError(f"n must be <= {MAX_NODES}, got {n}")
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
    # Each gap is clamped to at most total + 1, which ends the walk as any
    # longer gap would: at a tiny p the float gap can pass int64. So the
    # batch's cumsum, pos + batch * (total + 1), stays inside int64; with
    # n <= MAX_NODES, total < 2**62 and the batch is at least 1. Every gap
    # takes one draw, so the batch size leaves the stream unchanged.
    batch = min(max(1024, int(total * p * 1.2)),
                (np.iinfo(np.int64).max - total) // (total + 1))
    log1mp = math.log1p(-p)
    while pos < total:
        with np.errstate(over="ignore"):  # an inf gap is clamped like any other
            gaps = np.floor(np.log1p(-rng.random(batch)) / log1mp)
        gaps = np.minimum(gaps, total, out=gaps).astype(np.int64) + 1
        cand = pos + np.cumsum(gaps)
        picks.append(cand[cand < total])
        if cand[-1] >= total:
            break
        pos = int(cand[-1])
    linear = np.concatenate(picks)

    u, v = _pair_of_index(linear, n)
    return build_graph(np.column_stack([u, v]), n)


def _pair_of_index(linear: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, at the given row-major linear indices into
    the n(n-1)/2 pairs of n nodes.

    Counted from the end, the rows u, u+1, ..., n-2 hold t(t+1)/2 pairs
    for t = n-1-u, so the row of an index with r = total - linear pairs
    from it to the end is the least t with t(t+1)/2 >= r: the ceiling of
    (sqrt(8r + 1) - 1) / 2. The float root has a relative error of a few
    ulps, so t is off by at most one, and one exact integer step each way
    fixes it; t(t+1) <= n(n-1) < 2**63 for n <= MAX_NODES.
    """
    total = n * (n - 1) // 2
    remaining = total - linear
    t = np.ceil((np.sqrt(8.0 * remaining + 1.0) - 1.0) / 2.0).astype(np.int64)
    t = np.clip(t, 1, n - 1)
    t += t * (t + 1) // 2 < remaining
    t -= t * (t - 1) // 2 >= remaining
    u = n - 1 - t
    return u, u + 1 + (t * (t + 1) // 2 - remaining)
