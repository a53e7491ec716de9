"""The full-width masked SpMM power iteration, kept as a test oracle.

Before the batched kernel read only live (edge, window) cells, it
streamed every stored event for every column of the batch: the ``(n, k)``
share matrix was gathered through the whole in-CSR into an ``(nnz, k)``
contribution matrix, masked by each window's first-active-event mask, and
reduced one column at a time with a sequential ``np.bincount``.  Live
columns were selected with ``X[:, idx]`` once the batch stopped being
full width.  This module is that loop, unchanged in arithmetic, so the
differential tests can require the active-cell kernel to match it bit
for bit: values, per-column iterations, residuals and ``converged``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.temporal_csr import WindowView
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import full_initialization
from repro.pagerank.result import BatchPagerankResult

__all__ = ["masked_propagate_batch", "reference_power_iterate_batch"]


def _unit_mass(values: np.ndarray, total) -> np.ndarray:
    return values / np.where(total > 0, total, 1.0)


def masked_propagate_batch(
    W: np.ndarray, col: np.ndarray, rows: np.ndarray, active: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """``Y[:, j] = bincount(rows, W[col, j] * active[:, j])`` per column:
    the full-width gather, mask and column-at-a-time sequential reduce."""
    C = np.take(W, col, axis=0)
    C *= active
    Y = np.empty((n_rows, W.shape[1]), dtype=np.float64)
    for j in range(W.shape[1]):
        Y[:, j] = np.bincount(
            rows, weights=np.ascontiguousarray(C[:, j]), minlength=n_rows
        )
    return Y


def reference_power_iterate_batch(
    views: Sequence[WindowView],
    config: PagerankConfig,
    x0: Optional[np.ndarray],
    scale: np.ndarray,
    base: float,
    normalized: bool = False,
    unit_weights: bool = False,
) -> BatchPagerankResult:
    """The batched power iteration of every SpMM solve, masked over all
    ``nnz`` stored events (see the module docstring)."""
    adjacency = views[0].adjacency
    n = adjacency.n_vertices
    k = len(views)
    in_csr = adjacency.in_csr
    col, rows = in_csr.col, in_csr.row_ids()
    dedup = np.stack([v.in_dedup for v in views], axis=1)

    active = np.stack([v.active_vertices_mask for v in views], axis=1)
    if unit_weights:
        inv_out = np.ones((n, k), dtype=np.float64)
        dangling = np.zeros((n, k), dtype=np.bool_)
    else:
        dangling = np.stack([v.out_degrees == 0 for v in views], axis=1)
        dangling &= active
        inv_out = np.empty((n, k), dtype=np.float64)
        for j, v in enumerate(views):
            inv_out[:, j] = v.inverse_out_degrees()
    n_active = np.array([v.n_active_vertices for v in views], dtype=np.int64)

    if x0 is None:
        X = np.stack([full_initialization(v) for v in views], axis=1)
    else:
        X = np.array(x0, dtype=np.float64)

    safe_active = np.maximum(n_active, 1)
    teleport = np.where(n_active > 0, base / safe_active, 0.0)

    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.full(k, np.inf, dtype=np.float64)
    converged = n_active == 0
    residuals[converged] = 0.0
    X[:, converged] = 0.0

    live = ~converged
    it = 0
    while live.any() and it < config.max_iterations:
        it += 1
        idx = np.flatnonzero(live)
        if idx.size == k:
            Xl = X
            W = X * inv_out
            Y = masked_propagate_batch(W, col, rows, dedup, n)
            act = active
            dang = dangling
        else:
            Xl = X[:, idx]
            W = Xl * inv_out[:, idx]
            Y = masked_propagate_batch(W, col, rows, dedup[:, idx], n)
            act = active[:, idx]
            dang = dangling[:, idx]
        Y *= scale[idx]
        if config.dangling == "uniform":
            dmass = np.sum(Xl * dang, axis=0)
            Y += (scale[idx] * dmass / safe_active[idx]) * act
        Y += teleport[idx] * act
        Y[~act] = 0.0

        if normalized:
            res = np.abs(
                _unit_mass(Y, Y.sum(axis=0)) - _unit_mass(Xl, Xl.sum(axis=0))
            ).sum(axis=0)
        else:
            res = np.abs(Y - Xl).sum(axis=0)
        X[:, idx] = Y
        iterations[idx] += 1
        residuals[idx] = res

        newly = res < config.tolerance
        converged[idx[newly]] = True
        live = ~converged

    return BatchPagerankResult(
        values=_unit_mass(X, X.sum(axis=0)) if normalized else X.copy(),
        window_indices=[v.window.index for v in views],
        iterations_per_window=iterations,
        converged=converged,
        residuals=residuals,
    )
