"""Temporal k-core decomposition as a vertex program.

The k-core of a graph is its maximal subgraph where every vertex has
degree >= k; a vertex's *core number* is the largest k whose k-core
contains it.  The paper's related work (Gabert et al.; Sariyüce et al.)
analyzes dense temporal regions exactly this way.

k-core is the engine's *non-iterative fixpoint* shape: each window's core
numbers are computed by peeling from scratch (no state transfers between
windows, no convergence loop to warm-start), so the program reports
``iterative = False`` and the engine runs it on the sequential schedule
without initial vectors.

Degrees are over the window's *undirected* simple graph (in + out
neighbors, deduplicated, self-loops dropped).  Both solve surfaces reduce
the window to that graph and share :func:`peel_core_numbers`, which makes
cross-model parity *exact* (integer core numbers, not a tolerance): the
temporal path reads the window's active groups off the multi-window
structure's group index, the materialized path symmetrizes the snapshot
CSR, and both hand the identical edge set to one peeling.

Core numbers are served as ``float64`` so the rank-store / query stack —
built for real-valued rank vectors — works unchanged; values are exact
small integers and survive the cast losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph, build_csr_from_edges
from repro.graph.temporal_csr import WindowView
from repro.pagerank.result import PagerankResult
from repro.programs.base import VertexProgram, fixpoint_result

__all__ = [
    "KCoreProgram",
    "core_numbers",
    "peel_core_numbers",
    "undirected_simple_csr",
    "undirected_window_csr",
]


def undirected_simple_csr(
    src: np.ndarray, dst: np.ndarray, n_vertices: int
) -> CSRGraph:
    """Symmetrize a simple edge list (u-v and v-u), dropping self-loops."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return build_csr_from_edges(
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        n_vertices,
        dedup=True,
    )


def undirected_window_csr(view: WindowView) -> CSRGraph:
    """The window's simple graph symmetrized (u-v and v-u), no loops."""
    src, dst = view.edges()
    return undirected_simple_csr(src, dst, view.adjacency.n_vertices)


def peel_core_numbers(g: CSRGraph) -> np.ndarray:
    """Core numbers of a symmetrized simple graph (0 for isolated
    vertices).  The graph must already be undirected (every edge stored in
    both directions) with no self-loops.

    Classic linear-time peeling, round by round with vectorized degree
    updates: each round strips the current-k shell, so total work is
    Θ(Σ degrees)."""
    n = g.n_vertices
    deg = g.out_degrees().astype(np.int64)
    core = np.zeros(n, dtype=np.int64)
    alive = deg > 0
    k = 0
    while alive.any():
        k = max(k, int(deg[alive].min()))
        # strip the k-shell: repeatedly remove vertices with degree <= k
        while True:
            shell = alive & (deg <= k)
            if not shell.any():
                break
            core[shell] = k
            alive[shell] = False
            # subtract removed vertices' contributions from their alive
            # neighbors, vectorized over the shell's adjacency
            idx = np.flatnonzero(shell)
            starts, ends = g.indptr[idx], g.indptr[idx + 1]
            lens = ends - starts
            if lens.sum():
                offsets = np.repeat(
                    starts - np.concatenate([[0], np.cumsum(lens)[:-1]]),
                    lens,
                )
                nbrs = g.col[np.arange(int(lens.sum())) + offsets]
                dec = np.bincount(nbrs[alive[nbrs]], minlength=n)
                deg -= dec
    return core


def core_numbers(view: WindowView) -> np.ndarray:
    """Per-vertex core numbers for one window (0 for inactive vertices and
    vertices with only self-loop incidences)."""
    return peel_core_numbers(undirected_window_csr(view))


@dataclass(frozen=True)
class KCoreProgram(VertexProgram):
    """Per-window core numbers on the engine stack."""

    name = "kcore"
    iterative = False

    # -- temporal surface ----------------------------------------------
    def init_window(self, view: WindowView) -> Optional[np.ndarray]:
        return None

    def solve_window(
        self,
        view: WindowView,
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
    ) -> PagerankResult:
        core = core_numbers(view)
        return fixpoint_result(
            core, view.n_active_edges, view.n_active_vertices
        )

    # -- materialized surface ------------------------------------------
    def solve_graph(
        self,
        graph: CSRGraph,
        active: np.ndarray,
        *,
        prev_values: Optional[np.ndarray] = None,
        prev_active: Optional[np.ndarray] = None,
    ) -> PagerankResult:
        src, dst = graph.edges()
        und = undirected_simple_csr(src, dst, graph.n_vertices)
        core = peel_core_numbers(und)
        mask = np.asarray(active, dtype=bool)
        return fixpoint_result(core, graph.n_edges, int(mask.sum()))
