"""The dense-mask SpMV power iteration, kept as a test oracle.

Before the SpMV and weighted kernels moved to a window-local vertex space
they iterated over every vertex of the multi-window graph: the rank
vectors had length ``n``, the active set was applied with boolean vertex
masks each iteration, and the residual ran over all ``n`` entries.  This
module is that loop, unchanged in arithmetic, so the differential tests
can require the window-local kernels to match it bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.temporal_csr import WindowView
from repro.pagerank.backends import resolve_backend
from repro.pagerank.compaction import resolve_edge_path
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import full_initialization
from repro.pagerank.result import PagerankResult

__all__ = ["dense_mask_pagerank", "pair_multiplicities"]


def pair_multiplicities(csr, t_start: int, t_end: int):
    """``(rows, cols, counts)`` of one orientation's window: every
    distinct (row, neighbor) pair with an event in ``[t_start, t_end]``,
    in (row, neighbor) order, and its event count — ``np.unique`` over
    the active events, independent of the group index."""
    active = csr.active_mask(t_start, t_end)
    pairs = np.stack([csr.row_ids()[active], csr.col[active]])
    uniq, counts = np.unique(pairs, axis=1, return_counts=True)
    return uniq[0], uniq[1], counts


def dense_mask_pagerank(
    view: WindowView,
    config: PagerankConfig,
    x0: Optional[np.ndarray] = None,
    weighted: bool = False,
) -> PagerankResult:
    """PageRank of one window by the whole-vertex-space masked loop.

    ``weighted`` selects the event-multiplicity weights of
    :func:`~repro.pagerank.weighted.pagerank_window_weighted`; the edge
    path and backend come from ``config`` as in the library kernels.
    """
    adjacency = view.adjacency
    n = adjacency.n_vertices
    n_active = view.n_active_vertices
    if n_active == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64), iterations=0,
            converged=True, residual=0.0,
        )

    in_csr = adjacency.in_csr
    nnz = in_csr.nnz
    active_mask = view.active_vertices_mask
    dedup = view.in_dedup
    if weighted:
        *_, counts = pair_multiplicities(
            in_csr, view.window.t_start, view.window.t_end
        )
        weights = np.zeros(nnz, dtype=np.float64)
        weights[dedup] = counts
        out_strength = np.zeros(n, dtype=np.float64)
        np.add.at(out_strength, in_csr.col[dedup], weights[dedup])
        inv_out = np.zeros(n, dtype=np.float64)
        nz = out_strength > 0
        inv_out[nz] = 1.0 / out_strength[nz]
        dangling_idx = np.flatnonzero(active_mask & ~nz)
    else:
        weights = None
        inv_out = view.inverse_out_degrees()
        dangling_idx = np.flatnonzero(active_mask & (view.out_degrees == 0))

    path = resolve_edge_path(config, nnz, view.n_active_edges, n)
    if path == "compacted":
        packed = view.compact_pull()
        if weighted:
            weights = weights[dedup]
        it_col, it_rows, it_mask = packed.col, packed.rows, None
    else:
        it_col, it_rows, it_mask = in_csr.col, in_csr.row_ids(), dedup
    plan = resolve_backend(config, it_col.size, n).make_plan(
        it_col, it_rows, n
    )

    if x0 is None:
        x = full_initialization(view)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()

    damping = config.damping
    teleport = config.alpha / n_active
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        y = plan.propagate(x * inv_out, mask=it_mask, weights=weights)
        y *= damping
        if config.dangling == "uniform" and dangling_idx.size:
            dangling_mass = float(x[dangling_idx].sum())
            if dangling_mass:
                y[active_mask] += damping * dangling_mass / n_active
        y[active_mask] += teleport
        y[~active_mask] = 0.0
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < config.tolerance:
            return PagerankResult(x, it, True, residual)
    return PagerankResult(x, config.max_iterations, False, residual)
