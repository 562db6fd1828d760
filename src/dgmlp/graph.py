"""Undirected graphs in CSR form and degree-based adjacency normalization.

The normalized operator is the one-parameter family

    A_hat = Dtil^(r-1) @ (A + I) @ Dtil^(-r),    r in [0, 1],

where Dtil is the degree matrix of the self-loop-augmented adjacency.
r = 1/2 is the symmetric normalization, r = 0 the row-stochastic
(reverse transition) matrix and r = 1 the column-stochastic transition
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ParameterError, ValidationError


@dataclass(frozen=True)
class Graph:
    """Undirected graph stored as a symmetric CSR structure.

    Both directions of every edge are stored, col_indices are sorted
    within each row, self-loops and duplicates are never present.
    """

    num_nodes: int
    row_offsets: np.ndarray  # (N+1,) int64
    col_indices: np.ndarray  # (2M,) int64
    degrees: np.ndarray      # (N,) int64, self-loops excluded

    @property
    def num_edges(self) -> int:
        """Number of undirected edges M."""
        return self.col_indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[v]:self.row_offsets[v + 1]]

    def undirected_edges(self) -> np.ndarray:
        """All undirected edges as an (M, 2) array with u < v, sorted."""
        rows = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64),
            np.diff(self.row_offsets),
        )
        keep = rows < self.col_indices
        return np.column_stack([rows[keep], self.col_indices[keep]])


def build_graph(edge_list, num_nodes: int) -> Graph:
    """Build a validated symmetric CSR graph from an iterable of (u, v) pairs.

    An (M, 2) ndarray is used as it is, without a copy when it is int64.
    Input direction is irrelevant, duplicate edges and self-loops are
    silently dropped. Node ids must already be dense integers in
    [0, num_nodes).
    """
    if num_nodes < 1:
        raise ValidationError(f"num_nodes must be >= 1, got {num_nodes}")
    if not isinstance(edge_list, np.ndarray):
        edge_list = list(edge_list)
    edges = np.asarray(edge_list, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError("edge list must contain (u, v) pairs")

    bad = (edges < 0) | (edges >= num_nodes)
    if bad.any():
        line = int(np.flatnonzero(bad.any(axis=1))[0])
        u, v = edges[line]
        raise ValidationError(
            f"edge {line}: node id out of range [0, {num_nodes}): ({u}, {v})"
        )

    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    off_diag = lo != hi
    # unique packed key deduplicates; num_nodes^2 stays well inside int64
    packed = np.unique(lo[off_diag] * np.int64(num_nodes) + hi[off_diag])
    lo = packed // num_nodes
    hi = packed % num_nodes

    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]

    degrees = np.bincount(src, minlength=num_nodes).astype(np.int64)
    row_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    return Graph(num_nodes, row_offsets, dst.astype(np.int64), degrees)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """CSR of A_hat over the self-loop-augmented graph.

    Entry (i, j) has value dtil_i^(r-1) * dtil_j^(-r) with
    dtil_v = deg(v) + 1; every diagonal entry is present.
    """

    num_nodes: int
    matrix: sparse.csr_matrix  # canonical CSR, sorted indices
    r: float
    tilde_degrees: np.ndarray  # (N,) int64, deg + 1

    @property
    def row_offsets(self) -> np.ndarray:
        return self.matrix.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self.matrix.indices

    @property
    def values(self) -> np.ndarray:
        return self.matrix.data

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def normalize(graph: Graph, r: float = 0.5) -> NormalizedAdjacency:
    """Compute A_hat = Dtil^(r-1) (A + I) Dtil^(-r) as a sparse CSR matrix."""
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"normalization exponent r must lie in [0, 1], got {r}")
    n = graph.num_nodes
    dtil = (graph.degrees + 1).astype(np.float64)

    diag = np.arange(n, dtype=np.int64)
    rows = np.repeat(diag, np.diff(graph.row_offsets))
    src = np.concatenate([rows, diag])
    dst = np.concatenate([graph.col_indices, diag])

    values = dtil[src] ** (r - 1.0) * dtil[dst] ** (-r)
    mat = sparse.csr_matrix((values, (src, dst)), shape=(n, n))
    mat.sort_indices()
    return NormalizedAdjacency(n, mat, float(r), (graph.degrees + 1).astype(np.int64))
