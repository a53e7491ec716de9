"""The whole-vertex-space materialized power iteration, kept as a test oracle.

Before the offline and streaming solves ran in each window's own vertex
space, every per-iteration vector op of ``_power_iterate_graph`` spanned
all ``n`` vertices of the event set: the pull went through the graph's
full transpose, teleport and dangling mass were added through the
active mask, and every inactive vertex was zeroed after each step.  This
module is that loop, unchanged in arithmetic, so the differential tests
can require the window-local loop to match it bit for bit: values,
iterations, residual and ``converged``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import mask_partial_initialization
from repro.pagerank.result import PagerankResult, WorkStats
from repro.utils.segments import _check_indptr, _sum_nonempty

__all__ = ["reference_power_iterate_graph"]


def _unit_mass(values: np.ndarray, total) -> np.ndarray:
    return values / np.where(total > 0, total, 1.0)


def reference_power_iterate_graph(
    graph: CSRGraph,
    config: PagerankConfig,
    mask: np.ndarray,
    cold_mass: float,
    prev_values: Optional[np.ndarray],
    prev_active: Optional[np.ndarray],
    out_weight: np.ndarray,
    scale: float,
    base: float,
    normalized: bool = False,
) -> PagerankResult:
    """The materialized power iteration over the whole vertex space of
    ``graph`` (see the module docstring); same arguments as
    ``repro.pagerank.incremental._power_iterate_graph``."""
    n = graph.n_vertices
    n_active = int(mask.sum())
    if n_active == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64), iterations=0,
            converged=True, residual=0.0,
        )
    if prev_values is not None:
        x = mask_partial_initialization(mask, prev_values, prev_active)
    else:
        x = np.where(mask, cold_mass / n_active, 0.0)
    inv_out = np.zeros(n, dtype=np.float64)
    nz = out_weight > 0
    inv_out[nz] = 1.0 / out_weight[nz]
    in_graph = graph.transpose()
    in_col = in_graph.col
    in_indptr = _check_indptr(in_graph.indptr, in_col.size)
    nonempty = in_indptr[:-1] < in_indptr[1:]
    starts = in_indptr[:-1][nonempty]
    dangling = mask & ~nz

    teleport = base / n_active
    work = WorkStats()
    residual = np.inf
    if normalized:
        total = x.sum()

    for _ in range(1, config.max_iterations + 1):
        w = x * inv_out
        y = _sum_nonempty(
            w[in_col], nonempty, starts, np.empty(n, dtype=np.float64)
        )
        y *= scale
        if config.dangling == "uniform":
            dangling_mass = float(x[dangling].sum())
            if dangling_mass:
                y[mask] += scale * dangling_mass / n_active
        y[mask] += teleport
        y[~mask] = 0.0

        if normalized:
            y_total = y.sum()
            residual = float(
                np.abs(_unit_mass(y, y_total) - _unit_mass(x, total)).sum()
            )
            total = y_total
        else:
            residual = float(np.abs(y - x).sum())
        x = y
        work.iterations += 1
        work.edge_traversals += graph.n_edges
        work.active_edge_traversals += graph.n_edges
        work.vertex_ops += n_active
        if residual < config.tolerance:
            break
    else:
        if config.strict:
            raise ConvergenceError(
                f"materialized solve did not converge in "
                f"{config.max_iterations} iterations "
                f"(residual {residual:.3e})"
            )
    return PagerankResult(
        _unit_mass(x, total) if normalized else x,
        work.iterations, residual < config.tolerance, residual, work,
    )
