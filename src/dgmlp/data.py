"""Dataset ingestion, splits, sparsity transforms, and synthetic data.

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
per-line parser would (see ``_load_table``; a large file is cut into parts,
all but the first parsed by forked workers); otherwise by the per-line
parser, which names the offending line.

The feature rows are normalized where they are parsed: a run's
feature_norm ("l1" or "l2") divides each row as row_normalize does, part
by part, so a loaded table holds the bits row_normalize(raw, mode) gives
whatever the part count.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParameterError, ValidationError
from .graph import MAX_NODES, Graph, _IdOutOfRange, build_graph, normalize
from .propagation import _num_shards, spmm


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


def _fork_parts(size: int, min_part: int) -> int:
    """Parts for _run_parts to cut a job of `size` units into: one per
    core, each of at least min_part units. 1 (run the job in this process)
    when there is too little work, or where a forked worker is not safe:
    off Linux, or while another Python thread runs, since a worker gets
    only the forking thread and any lock another thread held stays held."""
    if not sys.platform.startswith("linux") or threading.active_count() != 1:
        return 1
    return max(1, min(_num_shards(), size // min_part))


def _run_parts(parts: int, work) -> None:
    """work(part) for every part in range(parts): parts 1 and up in forked
    workers, which run nothing else of this process and whose return
    values are ignored, and part 0 in this process meanwhile.

    Once every worker is reaped, each part whose worker failed (raised,
    exited otherwise or was killed) or could not be forked is run here,
    in part order. An error raised here propagates only after every
    worker is killed and reaped. One part forks nothing.
    """
    pids, statuses = {}, {}
    try:
        for part in range(1, parts):
            try:
                pid = os.fork()
            except OSError:  # out of processes: this part and the rest run here
                break
            if pid == 0:
                code = 1
                try:
                    work(part)
                    code = 0
                finally:
                    os._exit(code)
            pids[part] = pid
        work(0)
        for part, pid in pids.items():
            statuses[part] = os.waitpid(pid, 0)[1]
    finally:
        for part in pids.keys() - statuses.keys():
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                os.kill(pids[part], signal.SIGKILL)  # already reaped if this raises
                os.waitpid(pids[part], 0)
    for part in range(1, parts):
        if statuses.get(part, 1):  # a wait status is 0 only for an exit with 0
            work(part)


# Bytes on which np.loadtxt and the per-line parsers disagree: loadtxt also
# ends a line at a bare CR (so a blank line can hide the extra row), and it
# strips the ASCII separators 0x1c-0x1f around a float, which the per-line
# parser rejects.
_LOADTXT_ONLY = (b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Files are scanned in blocks below glibc's 128 KiB mmap threshold: freeing
# one whole-file buffer raised that threshold, and the heap it then grew
# made peak RSS later in the run vary by ~35 MB from process to process.
_SCAN_BLOCK = 1 << 16
# Smallest part of a table file cut into parts (see _load_table). On
# prefixes of a PubMed-like features.csv (2 cores, a parent holding one
# 79 MB feature matrix, medians of 25 in three runs), two parts (one in a
# worker, one in this process) took 16.7-24.5 ms against 16.7-24.0 ms for
# one part on 1 MiB, 31.6-38.3 against 34.4-47.3 ms on 2 MiB and 52.3-64.3
# against 65.7-70.3 ms on 4 MiB.
_MIN_PART_BYTES = 1 << 20


def _loadtxt(source, dtype, delimiter: str, max_rows=None) -> np.ndarray:
    """np.loadtxt of a table file, with its warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(source, delimiter=delimiter, dtype=dtype, comments=None,
                          ndmin=2, max_rows=max_rows, encoding="utf-8")


def _load_parts(path: Path, dtype, delimiter: str, starts: list[int],
                rows: list[int], norm: str = "none") -> np.ndarray:
    """The table of the file cut into parts: part i is rows[i] lines from
    byte starts[i], and _run_parts parses part 0 in this process and the
    others in forked workers. Raises if any part fails in this process.

    Each part is parsed by one np.loadtxt call, which must raise and warn
    nothing (with max_rows it warns at a blank line, which it would skip
    and so count a row of the next part) and return exactly the part's
    line count of rows, as many columns as the file's first line has
    fields, in the requested dtype. They are then copied into their range
    of one table, or with one part are the table (norm "l1" or "l2" divides
    them as row_normalize does, and raises for a row of norm > DBL_MAX).

    With more than one part, the table is held in a memfd made before the
    fork and mapped shared. The table returned maps it privately: a
    process forked later that writes into it gets its own copy of the
    page, and this process's values stay as they are. The mapping keeps a
    descriptor of the memfd open until the table is freed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        width = fh.readline().count(delimiter.encode()) + 1
    bounds = np.cumsum([0] + rows).tolist()
    shape = (bounds[-1], width)
    if shape[0] * width > size:  # not loadtxt's table: each value takes a byte
        raise ValueError(f"{path}: more values than bytes")

    def work(part: int) -> np.ndarray:
        with open(path, encoding="utf-8") as fh:
            fh.seek(starts[part])
            got = _loadtxt(fh, dtype, delimiter, max_rows=rows[part])
        # assignment would cast a part of another dtype silently
        if got.shape != (rows[part], width) or got.dtype != dtype:
            raise ValueError(f"part {part} of {path} is misshapen")
        out = got if len(starts) == 1 else table[bounds[part]:bounds[part + 1]]
        if norm == "none":
            out[:] = got  # numpy copies nothing when out is got
        else:
            _normalize_rows(got, norm, out=out)
        return out

    if len(starts) == 1:
        return work(0)
    nbytes = shape[0] * width * np.dtype(dtype).itemsize
    fd = os.memfd_create(path.name, os.MFD_CLOEXEC)
    try:
        os.ftruncate(fd, nbytes)
        table = np.frombuffer(mmap.mmap(fd, nbytes), dtype).reshape(shape)
        _run_parts(len(starts), work)
        return np.frombuffer(mmap.mmap(fd, nbytes, flags=mmap.MAP_PRIVATE),
                             dtype).reshape(shape)
    finally:
        os.close(fd)


def _load_table(path: Path, dtype, delimiter: str, norm: str = "none") -> np.ndarray | None:
    """The file parsed by np.loadtxt (see _load_parts), or None.

    The file is cut at line starts into parts, one per core for a file of
    two _MIN_PART_BYTES or more (see _fork_parts), else one. None, when
    the file holds a byte on which np.loadtxt and the per-line parser
    disagree or when any part fails, sends the file to its per-line
    parser, which alone reports what is wrong with it.
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
        num_lines += last != b"\n"  # an unterminated last line
        rows = np.diff(lines_before + [num_lines]).tolist()
        return _load_parts(path, dtype, delimiter, starts, rows, norm)
    except (OSError, ValueError, Warning):  # the per-line parser names the fault
        return None


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


def _parse_features(path: Path, norm: str) -> np.ndarray:
    feats = _load_table(path, np.float64, ",", norm)
    if feats is None:
        feats = _parse_feature_lines(path)
        if np.isfinite(feats).all():  # else rejected below, unnormalized
            feats = row_normalize(feats, norm)
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


def load_dataset(directory, *, _feature_norm: str = "none") -> Dataset:
    """Load and validate a dataset directory (see module docstring).

    _feature_norm, a run's feature_norm, normalizes the feature rows as
    they are parsed; runner.load_run_dataset passes it.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"dataset directory not found: {directory}")
    features = _parse_features(directory / "features.csv", _feature_norm)
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
# Row normalization of the features, applied as they are parsed.
# ---------------------------------------------------------------------------

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


def _unit_scaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scaled, exp): each row scaled by 2**-exp, exactly (where no entry
    falls below the subnormal grid), to a largest magnitude in [0.5, 1)."""
    rows = np.asarray(rows, dtype=np.float64)
    _, exp = np.frexp(np.abs(rows).max(axis=1, initial=0.0))
    return np.ldexp(rows, -exp[:, None]), exp


def row_divisor(features: np.ndarray, mode: str) -> np.ndarray | None:
    """The N-vector row_normalize divides the rows by: each row's L1 or L2
    norm, or 1 for a zero row; None for mode "none".

    The norms are taken a block of rows at a time, each row by the same
    reduction as over the whole matrix, so no N x d |x| is made and a
    row's norm does not depend on the rows beside it. A row whose norm so
    taken overflowed to inf, or whose L2 norm fell below 2**-511 (where
    its squares lose bits, or all underflow to 0), takes its norm again
    from the row scaled by a power of two, exactly, to a largest
    magnitude in [0.5, 1), then scaled back; every other row keeps the
    bits of the plain reduction. An L2 norm below the normal range
    (2**-1022) is then the norm rounded to the subnormal grid; row_normalize
    divides such a row after the same scale instead. Raises
    ValidationError for a row whose norm lies beyond DBL_MAX: no float64
    divisor gives it unit norm.
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
                scaled, exp = _unit_scaled(part[redo])
                got[redo] = np.ldexp(_row_norms(scaled, mode), exp)
    if n and norms.max() == np.inf:
        raise ValidationError(
            f"row {int(np.argmax(norms))} of the features has an {mode.upper()} norm above "
            f"DBL_MAX (1.8e308), so no float64 divisor gives it unit norm; scale the "
            f"features down")
    # a zero row divided by 1.0 stays as it is, -0.0 included
    return np.where(norms > 0.0, norms, 1.0)


def _normalize_rows(features: np.ndarray, mode: str, out=None) -> np.ndarray:
    """features / row_divisor(features, mode)[:, None], written into out
    (features itself, or a part of the loaded table) or a new array.

    A row whose divisor is below the normal range (2**-1022; a subnormal
    L2 norm is rounded to the subnormal grid) is scaled by its exact power
    of two first, as row_divisor scales it, and divided by the norm of
    the scaled row, which is normal. An L1 norm there is exact, so its
    row keeps the bits of the plain quotient.
    """
    divisor = row_divisor(features, mode)
    tiny = np.flatnonzero(divisor < np.finfo(np.float64).tiny)
    scaled, _ = _unit_scaled(features[tiny])  # before out overwrites them
    out = np.divide(features, divisor[:, None], out=out)
    out[tiny] = scaled / _row_norms(scaled, mode)[:, None]
    return out


def row_normalize(features: np.ndarray, mode: str) -> np.ndarray:
    """Scale each row to unit L1/L2 norm; zero rows stay zero; mode "none"
    returns features itself.

    The rows are divided by row_divisor(features, mode), each on its own:
    load_dataset applies a run's feature_norm with the same bits.
    """
    if mode == "none":
        return features
    return _normalize_rows(features, mode)


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


def planted_dataset(graph: Graph, *, dim: int, classes: int,
                    split_sizes: tuple[int, int, int], seed: int) -> Dataset:
    """A node's label is the argmax of Gaussian noise smoothed by three spmm steps of
    normalize(graph); its features are N(0, 1) plus 0.3 times its label's Gaussian mean.
    Each split takes min(size, max(1, n // 4)) nodes of one permutation, so
    none is empty: n must be at least 3 and each size at least 1."""
    n = graph.num_nodes
    if n < 3:
        raise ParameterError(f"the graph must have >= 3 nodes, one per split, got {n}")
    if min(dim, classes) < 1:
        raise ParameterError(f"dim and classes must be >= 1, got {dim} and {classes}")
    if min(split_sizes) < 1:
        raise ParameterError(f"every split size must be >= 1, got {tuple(split_sizes)}")
    rng = np.random.default_rng(seed)
    adj, z = normalize(graph), rng.standard_normal((n, classes))
    for _ in range(3):
        z = spmm(adj, z)
    labels = z.argmax(axis=1)
    means = 0.3 * rng.standard_normal((classes, dim))
    features = rng.standard_normal((n, dim))
    features += means[labels]
    ends = np.cumsum([min(size, max(1, n // 4)) for size in split_sizes])
    perm = rng.permutation(n)
    train, val, test = (np.sort(perm[lo:hi]) for lo, hi in zip([0, *ends], ends))
    return Dataset(graph, features, labels, Splits(train, val, test), classes)
