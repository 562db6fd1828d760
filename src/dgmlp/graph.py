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


# N * N must fit in int64 for the packed keys u * N + v of build_graph
MAX_NODES = 3_037_000_499


class _IdOutOfRange(ValidationError):
    """An edge list row whose node id lies outside [0, num_nodes)."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"edge {row}: {detail}")
        self.row, self.detail = row, detail


def _integer_ids(edges: np.ndarray) -> bool:
    """True when every entry of edges is an integer node id (bool is not):
    an integer dtype, or an object array of Python or numpy integers, as
    numpy makes for ids past int64."""
    if edges.dtype.kind in "iu":
        return True
    return edges.dtype.kind == "O" and all(
        issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, edges.flat)))


def build_graph(edge_list, num_nodes: int) -> Graph:
    """Build a validated symmetric CSR graph from an iterable of (u, v) pairs.

    An (M, 2) ndarray is used as it is, without a copy when it is int64.
    Input direction is irrelevant, duplicate edges and self-loops are
    silently dropped. Node ids must already be dense integers in
    [0, num_nodes); a float, bool or string id is rejected, not truncated.

    Both directions of every non-loop pair are packed as src * N + dst into
    one int64 array of 2M keys, which one sort orders by (src, dst):
    dropping adjacent duplicates leaves the CSR's (row, column) pairs.
    """
    if not 1 <= num_nodes <= MAX_NODES:
        raise ValidationError(f"num_nodes must lie in [1, {MAX_NODES}], got {num_nodes}")
    # the ids of a list as given: numpy would read True as 1, and an int
    # past int64 beside smaller ones as a float
    edges = edge_list if isinstance(edge_list, np.ndarray) \
        else np.array(list(edge_list), dtype=object)
    if edges.size == 0:
        edges = np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError("edge list must contain (u, v) pairs")
    if not _integer_ids(edges):
        raise ValidationError(f"node ids must be integers, got {edges.dtype} ids")
    if edges.dtype.kind == "O":
        try:
            edges = edges.astype(np.int64)
        except OverflowError:
            pass  # an id past int64: the range check names it exactly

    if edges.min(initial=0) < 0 or edges.max(initial=0) >= num_nodes:
        bad = (edges < 0) | (edges >= num_nodes)
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        u, v = edges[row]
        raise _IdOutOfRange(row, f"node id out of range [0, {num_nodes}): ({u}, {v})")
    edges = edges.astype(np.int64, copy=False)

    u, v = edges[:, 0], edges[:, 1]
    off_diag = u != v
    if not off_diag.all():
        u, v = u[off_diag], v[off_diag]
    m = u.size
    n = np.int64(num_nodes)
    # keys stay below N * N <= 2**63 - 1 (MAX_NODES): no int64 overflow
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    keys.sort()
    if m:
        fresh = np.empty(keys.size, dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
    src, dst = np.divmod(keys, n)

    degrees = np.bincount(src, minlength=num_nodes).astype(np.int64, copy=False)
    row_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    return Graph(num_nodes, row_offsets, dst, degrees)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """CSR of A_hat over the self-loop-augmented graph.

    Entry (i, j) has value dtil_i^(r-1) * dtil_j^(-r) with
    dtil_v = deg(v) + 1; every diagonal entry is present.
    """

    num_nodes: int
    matrix: sparse.csr_matrix  # canonical CSR, sorted indices


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
    return NormalizedAdjacency(n, mat)
