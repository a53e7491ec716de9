"""Event-frequency-weighted PageRank.

The paper's model collapses event multiplicity: an edge either exists in a
window or it does not.  But the multiplicity is information — five emails
in the window arguably carry more endorsement than one.  This extension
weights each window edge by its **event count within the window** and runs
weighted PageRank:

    PR(v) = α/|V_i| + (1−α) Σ_{(u,v)} PR(u) · w_i(u,v) / W_i(u)

where ``w_i(u,v)`` is the number of (u, v) events inside window i and
``W_i(u)`` the sum of u's outgoing window weights.

The temporal CSR makes the weights nearly free: within a (row, neighbor)
group the active events are contiguous, so the per-group count is a
segment-count over *group runs* — the same O(nnz) vectorized machinery as
the dedup mask.  No extra arrays are stored; weights are derived per
window from the timestamps.

The iteration itself is the SpMV kernel's window-local power loop: the
weighted edge list is relabelled into ``[0, |V_w|)`` once per window and
the scratch lives in that vertex space, so one iteration on the compacted
path costs Θ(|V_w| + |E_w|).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.temporal_csr import TemporalCSR, WindowView
from repro.pagerank.compaction import compact_pull_weighted, resolve_edge_path
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import PagerankResult
from repro.pagerank.spmv import _power_iterate

__all__ = ["window_edge_weights", "pagerank_window_weighted"]


def window_edge_weights(
    csr: TemporalCSR, t_start: int, t_end: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge multiplicities for one window.

    Returns ``(dedup_mask, weights)`` where ``weights[j]`` (only meaningful
    at dedup positions) is the number of the group's events inside the
    window.  Vectorized: group ids from a cumulative sum of group starts,
    active counts per group via ``bincount``.
    """
    active = csr.active_mask(t_start, t_end)
    dedup = csr.dedup_mask(t_start, t_end, active)
    if csr.nnz == 0:
        return dedup, np.zeros(0, dtype=np.float64)
    group_ids = np.cumsum(csr.group_start) - 1
    counts = np.bincount(
        group_ids[active], minlength=int(group_ids[-1]) + 1
    )
    weights = np.zeros(csr.nnz, dtype=np.float64)
    weights[dedup] = counts[group_ids[dedup]]
    return dedup, weights


def pagerank_window_weighted(
    view: WindowView,
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace=None,
    iteration_hint: Optional[int] = None,
) -> PagerankResult:
    """Multiplicity-weighted PageRank for one window.

    Same convergence/dangling semantics as the unweighted kernel; with all
    multiplicities equal to 1 the two kernels coincide exactly (tested).
    Both run the same window-local power iteration
    (:func:`~repro.pagerank.spmv._power_iterate`), so one iteration costs
    Θ(|V_w| + |E_w|) on the compacted path and ``workspace`` recycles the
    same |V_w|-sized scratch; returned values are always freshly owned.
    ``config.edge_path="compacted"`` packs the active edges *and* their
    multiplicities once (:func:`~repro.pagerank.compaction.
    compact_pull_weighted`) — bitwise-identical to the masked path.
    """
    n = view.adjacency.n_vertices
    if view.n_active_vertices == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64), iterations=0, converged=True, residual=0.0
        )

    ts, te = view.window.t_start, view.window.t_end
    in_csr = view.adjacency.in_csr
    dedup, weights = window_edge_weights(in_csr, ts, te)
    col = in_csr.col

    # weighted out-strength per source: sum of its outgoing edge weights
    out_strength = np.zeros(n, dtype=np.float64)
    np.add.at(out_strength, col[dedup], weights[dedup])

    path = resolve_edge_path(
        config, in_csr.nnz, view.n_active_edges, n, iteration_hint
    )
    if path == "compacted":
        packed = compact_pull_weighted(
            view, dedup, weights, workspace=workspace
        )
        col, rows, mask = packed.col, packed.rows, None
        weights = packed.weights
    else:
        rows, mask = in_csr.row_ids(), dedup
    return _power_iterate(
        view, config, x0, workspace, iteration_hint,
        col, rows, mask, weights, out_strength,
    )
