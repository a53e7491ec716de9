"""Static CSR graphs.

The offline execution model reconstructs one of these per window — that
reconstruction cost is precisely what the postmortem representation
amortizes away.  The structure is also the common currency for reference
PageRank implementations and for per-window "compaction" of a temporal CSR.

The graph is directed and *simple*: duplicate (src, dst) pairs in the input
are collapsed (an edge either exists in a window or it does not, regardless
of how many events produced it).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphBuildError
from repro.utils.segments import indptr_to_row_ids, lengths_to_indptr, row_lengths
from repro.utils.validation import check_1d_int, check_same_length

__all__ = ["CSRGraph", "build_csr_from_edges"]

#: the largest vertex count whose fused ``src * n + dst`` key fits int64
_MAX_VERTICES = 2**31


class CSRGraph:
    """A directed graph in compressed-sparse-row form.

    ``indptr`` has ``n_vertices + 1`` entries; ``col[indptr[v]:indptr[v+1]]``
    are the out-neighbors of ``v`` in ascending order with no duplicates.
    """

    __slots__ = ("indptr", "col", "n_vertices")

    def __init__(self, indptr: np.ndarray, col: np.ndarray, n_vertices: int):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.col = np.ascontiguousarray(col, dtype=np.int64)
        self.n_vertices = int(n_vertices)
        if self.indptr.size != self.n_vertices + 1:
            raise GraphBuildError(
                f"indptr size {self.indptr.size} != n_vertices + 1 "
                f"({self.n_vertices + 1})"
            )
        if self.indptr[-1] != self.col.size:
            raise GraphBuildError("indptr[-1] must equal len(col)")

    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return self.col.size

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return row_lengths(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """View of v's out-neighbors."""
        return self.col[self.indptr[v]: self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge (u, v) exists (binary search)."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays of all edges."""
        return indptr_to_row_ids(self.indptr), self.col

    def transpose(self) -> "CSRGraph":
        """The reverse graph (in-edges become out-edges)."""
        src, dst = self.edges()
        return build_csr_from_edges(dst, src, self.n_vertices, dedup=False)

    def active_vertices(self) -> np.ndarray:
        """Vertices with at least one incident edge (in either direction)."""
        present = np.zeros(self.n_vertices, dtype=bool)
        src, dst = self.edges()
        present[src] = True
        present[dst] = True
        return np.flatnonzero(present)

    def to_scipy(self):
        """Convert to a ``scipy.sparse.csr_matrix`` with unit weights (the
        components program's labelling input, and tests' cross-checks)."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.n_edges, dtype=np.float64)
        return csr_matrix(
            (data, self.col, self.indptr),
            shape=(self.n_vertices, self.n_vertices),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.col, other.col)
        )

    def __hash__(self):
        raise TypeError("CSRGraph is not hashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def build_csr_from_edges(
    src,
    dst,
    n_vertices: Optional[int] = None,
    *,
    dedup: bool = True,
) -> CSRGraph:
    """Build a CSR graph from parallel (src, dst) arrays.

    Duplicate pairs are collapsed when ``dedup`` is True (the default);
    the per-row adjacency is always sorted ascending.  Fully vectorized:
    one sort of the fused key ``src * n_vertices + dst`` (the (src, dst)
    order ``np.lexsort((dst, src))`` gives), dedup on the sorted key, and
    a ``divmod`` back to endpoints; no Python loop over edges.  The key
    fits in int64 only while ``n_vertices <= 2**31``; larger graphs raise
    :class:`GraphBuildError`.
    """
    src = check_1d_int(src, "src")
    dst = check_1d_int(dst, "dst")
    check_same_length((src, "src"), (dst, "dst"))

    if n_vertices is None:
        n_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 0
    n_vertices = int(n_vertices)
    if n_vertices > _MAX_VERTICES:
        raise GraphBuildError(
            f"n_vertices={n_vertices} exceeds {_MAX_VERTICES}: the fused "
            "(src, dst) sort key would overflow int64"
        )
    if src.size:
        hi = int(max(src.max(), dst.max()))
        if hi >= n_vertices or min(src.min(), dst.min()) < 0:
            raise GraphBuildError(
                f"edge endpoints must lie in [0, {n_vertices})"
            )

    if src.size == 0:
        return CSRGraph(
            np.zeros(n_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            n_vertices,
        )

    key = np.sort(src * n_vertices + dst)
    if dedup:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    s, d = np.divmod(key, n_vertices)

    counts = np.bincount(s, minlength=n_vertices)
    indptr = lengths_to_indptr(counts)
    return CSRGraph(indptr, d, n_vertices)
