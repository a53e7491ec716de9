"""PageRank vector initialization (paper Section 4.2).

* **Full initialization** — the classic uniform 1/|V_i| over the window's
  active vertices.
* **Partial initialization** (eq. 4) — warm-start window *i* from window
  *i-1*'s converged vector:

      PR_i[u] = (|V_i ∩ V_{i-1}| / |V_i|) * PR_{i-1}[u] / Σ_{v ∈ V_i ∩ V_{i-1}} PR_{i-1}[v]

  for vertices present in both windows.  Vertices new in window *i* get the
  uniform 1/|V_i|, so the initial vector sums to exactly 1.  Because two
  consecutive overlapping windows share most vertices and edges, this
  starts the power iteration close to the fixed point and cuts iteration
  counts by the 1.5–3.5× the paper measures (Figure 6).

Both windows must live in the *same* vertex index space (the same
multi-window graph) — the paper explicitly skips partial initialization
across multi-window boundaries because the compacted index spaces differ.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.graph.temporal_csr import WindowView

__all__ = [
    "full_initialization",
    "partial_initialization",
    "mask_partial_initialization",
]


def full_initialization(view: WindowView) -> np.ndarray:
    """Uniform 1/|V_i| over the window's active vertices, 0 elsewhere."""
    n_active = view.n_active_vertices
    x = np.zeros(view.adjacency.n_vertices, dtype=np.float64)
    if n_active:
        x[view.active_vertices_mask] = 1.0 / n_active
    return x


def partial_initialization(
    view: WindowView,
    prev_view: WindowView,
    prev_values: np.ndarray,
) -> np.ndarray:
    """Eq. 4 warm start of ``view`` from the previous window's solution.

    Parameters
    ----------
    view, prev_view:
        Window views over the **same** adjacency (same local vertex space).
    prev_values:
        Converged PageRank of ``prev_view`` in that space.

    Falls back to full initialization when the windows share no vertices or
    the previous mass on the shared set is numerically zero.
    """
    if view.adjacency is not prev_view.adjacency:
        if view.adjacency.n_vertices != prev_view.adjacency.n_vertices:
            raise ValidationError(
                "partial initialization requires both windows in the same "
                "vertex space (same multi-window graph)"
            )
    prev_values = np.asarray(prev_values, dtype=np.float64)
    if prev_values.shape != (view.adjacency.n_vertices,):
        raise ValidationError(
            "prev_values must be a per-vertex vector in the shared space"
        )
    return mask_partial_initialization(
        view.active_vertices_mask, prev_values,
        prev_view.active_vertices_mask,
    )


def mask_partial_initialization(
    mask: np.ndarray,
    prev_values: np.ndarray,
    prev_active: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. 4 over vertex masks: the transfer every warm start runs.

    The previous window's values on the shared vertices (``mask &
    prev_active``), rescaled so they carry ``n_shared / n_active`` of the
    mass, and the uniform ``1 / n_active`` on vertices new in this
    window.  ``prev_active`` defaults to the previous vector's positive
    support.  Falls back to the uniform vector when no vertex is shared
    or the shared mass is not positive, and to zeros when ``mask`` is
    empty.

    :func:`partial_initialization` (the postmortem kernels) and the
    materialized solve of offline and streaming
    (:func:`~repro.pagerank.incremental._power_iterate_graph`) share it.
    """
    x = np.zeros(mask.size, dtype=np.float64)
    n_active = int(np.count_nonzero(mask))
    if n_active == 0:
        return x
    prev_values = np.asarray(prev_values, dtype=np.float64)
    shared = mask & (
        np.asarray(prev_active, dtype=bool)
        if prev_active is not None
        else prev_values > 0
    )
    n_shared = int(np.count_nonzero(shared))
    shared_mass = float(prev_values[shared].sum())
    if n_shared and shared_mass > 0:
        x[shared] = prev_values[shared] * ((n_shared / n_active) / shared_mass)
        x[mask & ~shared] = 1.0 / n_active
    else:
        x[mask] = 1.0 / n_active
    return x
