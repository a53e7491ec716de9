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

The postmortem engine seeds each window in its window-local space (the
value of each vertex of ``view.active_idx``, in that order):
:func:`local_full_initialization` and :func:`local_partial_initialization`
touch no length-``n`` vector beyond the previous window's local-id map.
:func:`full_initialization` and :func:`partial_initialization` scatter
the same seeds into the graph's vertex space, and
:func:`mask_partial_initialization` is eq. 4 over whole-space vertex
masks, the transfer of the offline and streaming solves.  All of them
give the same bits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.graph.temporal_csr import WindowView

__all__ = [
    "full_initialization",
    "local_full_initialization",
    "local_partial_initialization",
    "partial_initialization",
    "mask_partial_initialization",
]


def local_full_initialization(view: WindowView) -> np.ndarray:
    """Uniform 1/|V_i| on each of the window's active vertices
    (window-local, ``(|V_i|,)``)."""
    k = view.n_active_vertices
    return np.full(k, 1.0 / k if k else 0.0, dtype=np.float64)


def full_initialization(view: WindowView) -> np.ndarray:
    """Uniform 1/|V_i| over the window's active vertices, 0 elsewhere."""
    return _scatter(view, local_full_initialization(view))


def local_partial_initialization(
    view: WindowView,
    prev_view: WindowView,
    prev_values: np.ndarray,
) -> np.ndarray:
    """Eq. 4 warm start of ``view`` from the previous window's solution,
    in the window-local space (``(|V_i|,)``).

    Parameters
    ----------
    view, prev_view:
        Window views over the **same** adjacency (same local vertex space).
    prev_values:
        Converged PageRank of ``prev_view`` in that space.

    The shared set is the current window's vertices that the previous
    window's local-id map holds, in vertex order, so its mass is the
    pairwise sum of the same values in the same order as
    :func:`mask_partial_initialization`'s, and the result has its bits.
    Θ(|V_i|): no length-``n`` mask is built.  Falls back to full
    initialization when the windows share no vertices or the previous
    mass on the shared set is not positive.
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
    x = local_full_initialization(view)
    cur = view.active_idx
    shared = prev_view.local_id.take(cur) >= 0
    held = prev_values.take(cur[shared])
    shared_mass = float(np.add.reduce(held))
    if held.size and shared_mass > 0:
        x[shared] = held * ((held.size / cur.size) / shared_mass)
    return x


def partial_initialization(
    view: WindowView,
    prev_view: WindowView,
    prev_values: np.ndarray,
) -> np.ndarray:
    """Eq. 4 warm start of ``view`` (:func:`local_partial_initialization`)
    scattered into the graph's vertex space, 0 off the window."""
    return _scatter(
        view, local_partial_initialization(view, prev_view, prev_values)
    )


def _scatter(view: WindowView, local: np.ndarray) -> np.ndarray:
    x = np.zeros(view.adjacency.n_vertices, dtype=np.float64)
    x[view.active_idx] = local
    return x


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

    The materialized solve of offline and streaming
    (:func:`~repro.pagerank.incremental._power_iterate_graph`) runs it;
    the postmortem engine's window-local
    :func:`local_partial_initialization` gives the same bits.
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
