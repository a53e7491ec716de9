"""Event-frequency-weighted PageRank.

The paper's model collapses event multiplicity: an edge either exists in a
window or it does not.  But the multiplicity is information — five emails
in the window arguably carry more endorsement than one.  This extension
weights each window edge by its **event count within the window** and runs
weighted PageRank:

    PR(v) = α/|V_i| + (1−α) Σ_{(u,v)} PR(u) · w_i(u,v) / W_i(u)

where ``w_i(u,v)`` is the number of (u, v) events inside window i and
``W_i(u)`` the sum of u's outgoing window weights.

The temporal CSR makes the weights free: a window view already knows its
active (row, neighbor) groups, and a group's multiplicity is its count of
events inside the window (:attr:`~repro.graph.temporal_csr.WindowView.
multiplicities`, read off the adjacency's time-ordered group index).  No
extra arrays are stored.

The iteration itself is the SpMV kernel's window-local lockstep loop
(:func:`~repro.pagerank.spmv._power_iterate`), with each column's
multiplicities concatenated alongside its packed edges: the packed
active edges are relabelled into ``[0, |V_w|)`` once per window, so one
iteration costs Θ(|V_w| + |E_w|) per window.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.temporal_csr import WindowView
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import LockstepResult, PagerankResult
from repro.pagerank.spmv import _power_iterate, _seeds

__all__ = ["pagerank_window_weighted", "pagerank_windows_weighted"]


def pagerank_window_weighted(
    view: WindowView,
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace=None,
) -> PagerankResult:
    """Multiplicity-weighted PageRank for one window.

    Same convergence/dangling semantics as the unweighted kernel; with all
    multiplicities equal to 1 the two kernels coincide exactly (tested).
    Both run the same window-local power iteration
    (:func:`~repro.pagerank.spmv._power_iterate`), so one iteration costs
    Θ(|V_w| + |E_w|) and ``workspace`` recycles the same scratch;
    returned values are always freshly owned.  The multiplicities follow
    the group order, which is the order of the packed edges
    (:func:`~repro.pagerank.compaction.compact_pull`).
    """
    return pagerank_windows_weighted(
        [view], config, [x0], workspace
    ).columns[0]


def pagerank_windows_weighted(
    views: Sequence[WindowView],
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[Sequence[Optional[np.ndarray]]] = None,
    workspace=None,
) -> LockstepResult:
    """Weighted PageRank of several windows (from any multi-window
    graphs) in one lockstep loop; column j is bitwise-identical to
    ``pagerank_window_weighted(views[j], config, x0[j])``."""
    weights = [v.multiplicities.astype(np.float64) for v in views]
    # weighted out-strength per active source: sum of its outgoing edge
    # weights, in stored order
    out_strength = [
        np.bincount(
            v.adjacency.groups.col[v.active_groups],
            weights=w, minlength=v.adjacency.n_vertices,
        ).take(v.active_idx)
        for v, w in zip(views, weights)
    ]
    return _power_iterate(
        views, config, _seeds(views, x0), workspace, out_strength,
        [config.damping] * len(views), config.alpha, weights=weights,
    )
