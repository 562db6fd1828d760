"""Seeded benchmark inputs, built once per seed and cached untimed.

Two kinds of input:

* ``csbm``: a PubMed-shaped contextual stochastic block model written in
  the repository's four-file dataset format. Edges follow a degree-
  corrected block model (Pareto node propensities, a fixed share of
  intra-class edges); each class prefers its own sparse subset of the
  features, so labels are learnable from both graph and features.
* ``er``: planted-label features for the G(n, p) graph that the child
  process builds itself with ``dgmlp.data.erdos_renyi``.

Each cached input carries ``meta.json``: its sizes, the raw GSL curve
of a plain-scipy oracle (powers of A_hat applied to the row-normalized
features), against which every run's ``gsl_raw`` is checked, and the key
it was built under. A cached input whose key differs from the current one
(other parameters, another version of this file, or, for ``er``, another
graph from ``erdos_renyi``) is rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
from scipy import sparse

KEEP_PER_KIND = 3  # cached seeds kept per (size, kind); older ones are evicted


def normalized_adjacency(num_nodes: int, edges: np.ndarray, r: float = 0.5):
    """A_hat = Dtil^(r-1) (A + I) Dtil^(-r) built from an edge list with scipy.

    Returns (A_hat, dtil). Direction, duplicates and self-loops in the
    edge list are ignored, as the library does.
    """
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    a = sparse.coo_matrix((np.ones(u.size), (u, v)), shape=(num_nodes, num_nodes)).tocsr()
    a = a + a.T
    a.data[:] = 1.0
    a_tilde = a + sparse.identity(num_nodes, format="csr")
    dtil = np.asarray(a_tilde.sum(axis=1)).ravel()
    a_hat = (sparse.diags(dtil ** (r - 1.0)) @ a_tilde @ sparse.diags(dtil ** (-r))).tocsr()
    return a_hat, dtil


def oracle_gsl(num_nodes: int, edges: np.ndarray, x: np.ndarray, depth: int,
               feature_norm: str, r: float = 0.5) -> list[float]:
    """Raw GSL for steps 0..depth from scipy sparse powers of A_hat.

    Independent of the library: A_hat comes from normalized_adjacency,
    features are L1 row-normalized when feature_norm is "l1", and the
    stationary state outer(dtil^r, s) enters through the exact rank-1
    identity cos(x_v, dtil_v^r s) = x_v.s / (|x_v| |s|).
    """
    a_hat, dtil = normalized_adjacency(num_nodes, edges, r)
    x0 = x.copy()
    if feature_norm == "l1":
        norms = np.abs(x).sum(axis=1)
        x0[norms > 0] /= norms[norms > 0, None]
    s = dtil ** (1.0 - r) @ x0 / dtil.sum()
    s_norm = np.linalg.norm(s)
    x0_norm = np.linalg.norm(x0, axis=1)

    def cos(num, na, nb):
        out = np.zeros_like(num)
        ok = (na > 0) & (nb > 0)
        out[ok] = num[ok] / (na[ok] * nb[ok])
        return out

    gsl = []
    xk = x0
    for k in range(depth + 1):
        if k:
            xk = a_hat @ xk
        xk_norm = np.linalg.norm(xk, axis=1)
        alpha = cos(np.einsum("ij,ij->i", xk, x0), xk_norm, x0_norm)
        beta = cos(xk @ s, xk_norm, np.full_like(xk_norm, s_norm))
        gsl.append(float((alpha * (1.0 - beta)).mean()))
    return gsl


def _class_draw(rng, labels, theta, targets):
    """For each target class, one node of that class drawn with prob ~ theta."""
    order = np.argsort(labels, kind="stable")
    cum = np.cumsum(theta[order])
    counts = np.bincount(labels)
    ends = np.cumsum(counts)
    hi = cum[ends - 1]
    lo = np.concatenate([[0.0], hi[:-1]])
    draw = lo[targets] + rng.random(targets.size) * (hi[targets] - lo[targets])
    pos = np.minimum(np.searchsorted(cum, draw, side="right"), labels.size - 1)
    return order[pos]


def make_csbm(p: dict, seed: int):
    """Edges, features, labels and splits of a PubMed-shaped CSBM."""
    rng = np.random.default_rng(seed)
    n, d, c = p["nodes"], p["dim"], p["classes"]
    labels = rng.integers(0, c, size=n)

    theta = rng.pareto(2.5, size=n) + 1.0
    cum = np.cumsum(theta)
    u = np.minimum(np.searchsorted(cum, rng.random(p["edges"]) * cum[-1], side="right"), n - 1)
    same = rng.random(u.size) < p["homophily"]
    shift = np.where(same, 0, 1 + rng.integers(0, c - 1, size=u.size))
    v = _class_draw(rng, labels, theta, (labels[u] + shift) % c)
    edges = np.column_stack([u, v])

    # each class boosts the nonzero probability of its own features
    pref = np.exp(p["signal"] * rng.standard_normal((c, d)))
    prob = np.minimum(p["density"] * pref / pref.mean(axis=1, keepdims=True), 1.0)
    mask = rng.random((n, d)) < prob[labels]
    values = np.round(rng.exponential(0.05, size=int(mask.sum())), 6)
    x = np.zeros((n, d))
    x[mask] = values

    train, rest = [], []
    for k in range(c):
        members = rng.permutation(np.flatnonzero(labels == k))
        train.append(members[:p["per_class"]])
        rest.append(members[p["per_class"]:])
    rest = rng.permutation(np.concatenate(rest))
    splits = {
        "train": np.sort(np.concatenate(train)).tolist(),
        "val": np.sort(rest[:p["val"]]).tolist(),
        "test": np.sort(rest[p["val"]:p["val"] + p["test"]]).tolist(),
    }
    return edges, x, labels, splits


def write_csbm(directory: Path, edges, x, labels, splits) -> None:
    """Write the four dataset files (edges.tsv, features.csv, labels.csv, splits.json)."""
    cells = np.full(x.shape, "0", dtype=object)
    nz = x != 0
    cells[nz] = [repr(float(val)) for val in x[nz]]
    with open(directory / "features.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(",".join(row) for row in cells.tolist()))
        fh.write("\n")
    with open(directory / "edges.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{a}\t{b}\n" for a, b in edges.tolist()))
    with open(directory / "labels.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{k}\n" for k in labels.tolist()))
    (directory / "splits.json").write_text(json.dumps(splits), encoding="utf-8")


def make_er(p: dict, seed: int, erdos_renyi):
    """Graph edges, planted-label features and splits for the ER workload."""
    graph = erdos_renyi(p["nodes"], p["edge_prob"], seed)
    edges = graph.undirected_edges()
    rng = np.random.default_rng(seed + 1)
    n, d, c = p["nodes"], p["dim"], p["classes"]
    # planted labels: argmax of smoothed noise, so neighbours tend to agree
    a_hat, _ = normalized_adjacency(n, edges)
    z = rng.standard_normal((n, c))
    for _ in range(3):
        z = a_hat @ z
    labels = z.argmax(axis=1)
    means = rng.standard_normal((c, d))
    x = rng.standard_normal((n, d)) + p["signal"] * means[labels]
    perm = rng.permutation(n)
    a, b = p["train"], p["train"] + p["val"]
    splits = {
        "train": np.sort(perm[:a]),
        "val": np.sort(perm[a:b]),
        "test": np.sort(perm[b:b + p["test"]]),
    }
    return edges, x, labels, splits


def _file_sizes(directory: Path) -> dict:
    return {f.name: f.stat().st_size for f in sorted(directory.iterdir())}


def cache_key(kind: str, params: dict, seed: int, erdos_renyi) -> dict:
    """What a cached input depends on: its parameters, this file and, for
    ``er``, the edge list ``erdos_renyi`` returns for the seed."""
    key = {
        "params": params,
        "generator_sha256": hashlib.sha256(Path(__file__).read_bytes()).hexdigest(),
    }
    if kind == "er":
        edges = erdos_renyi(params["nodes"], params["edge_prob"], seed).undirected_edges()
        key["graph_sha256"] = hashlib.sha256(
            np.ascontiguousarray(edges, dtype=np.int64).tobytes()).hexdigest()
    return json.loads(json.dumps(key))  # as it reads back from meta.json


def build(kind: str, params: dict, seed: int, directory: Path, erdos_renyi,
          key: dict) -> dict:
    """Generate one input into ``directory`` and return its meta record."""
    directory.mkdir(parents=True)
    if kind == "csbm":
        edges, x, labels, splits = make_csbm(params, seed)
        write_csbm(directory, edges, x, labels, splits)
    elif kind == "er":
        edges, x, labels, splits = make_er(params, seed, erdos_renyi)
        np.save(directory / "features.npy", x)
        np.save(directory / "labels.npy", labels)
        np.savez(directory / "splits.npz", **splits)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    distinct = np.unique(lo[lo != hi] * np.int64(x.shape[0]) + hi[lo != hi]).size
    meta = {
        "kind": kind, "seed": seed, "params": params, "key": key,
        "nodes": int(x.shape[0]), "dim": int(x.shape[1]),
        "edges": int(distinct), "nonzero_features": int((x != 0).sum()),
        "file_bytes": _file_sizes(directory),
        "oracle_gsl_raw": oracle_gsl(x.shape[0], edges, x, params["oracle_depth"],
                                     params["feature_norm"]),
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return meta


def cached(root: Path, size: str, kind: str, params: dict, seed: int, erdos_renyi) -> tuple[Path, dict, bool]:
    """Return (directory, meta, built_now) for the input, building it if it
    is absent or was built under another cache key.

    The input is built in a temporary directory and renamed into place,
    so an interrupted build is never mistaken for a cached one.
    """
    root.mkdir(parents=True, exist_ok=True)
    final = root / f"{size}-{kind}-seed{seed}"
    key = cache_key(kind, params, seed, erdos_renyi)
    meta_path = final / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.is_file() else {}
    built = meta.get("key") != key
    if built:
        tmp = root / f".tmp-{size}-{kind}-seed{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        meta = build(kind, params, seed, tmp, erdos_renyi, key)
        os.rename(tmp, final)
    os.utime(final)
    siblings = sorted(root.glob(f"{size}-{kind}-seed*"), key=lambda q: q.stat().st_mtime)
    for old in siblings[:-KEEP_PER_KIND]:
        shutil.rmtree(old, ignore_errors=True)
    return final, meta, built
