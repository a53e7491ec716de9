"""Warm-startable PageRank power iteration (Riedy, IPDPSW 2016).

After a batch of updates the graph is "still quite the same as it was", so
instead of restarting from the uniform vector the incremental algorithm
(paper eq. 3) solves for the *correction* induced by the changed edges,
starting from the previous solution.  We implement the standard practical
form: warm-start the power iteration from the previous vector — restricted
and renormalized to the new active vertex set — and iterate the exact
PageRank operator of the new graph until the residual

    r = (1 - alpha) v - (I - alpha' A^T D^-1) x

drops below tolerance.  This converges to the same fixed point as a
from-scratch solve (the paper made the streaming and postmortem code bases
"produce the same results") while doing fewer iterations when the change is
small — the streaming model's one computational advantage.

This solver lives under :mod:`repro.pagerank` because it is a general
simple-graph solver, not streaming machinery: the offline model uses it
cold-started (``prev_values=None`` degrades to the plain power iteration)
and the streaming model warm-starts it between windows.  ``streaming``
therefore depends on ``pagerank`` — never the reverse.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import materialized_partial_initialization
from repro.pagerank.result import PagerankResult, WorkStats
from repro.pagerank.spmv import _unit_mass
from repro.utils.segments import _check_indptr, _sum_nonempty

__all__ = ["incremental_pagerank"]


def incremental_pagerank(
    graph: CSRGraph,
    config: PagerankConfig = PagerankConfig(),
    active: Optional[np.ndarray] = None,
    prev_values: Optional[np.ndarray] = None,
    prev_active: Optional[np.ndarray] = None,
) -> PagerankResult:
    """PageRank on ``graph`` warm-started from a previous window's solution.

    Parameters
    ----------
    graph:
        The current simple graph (snapshot of the streaming structure).
    active:
        Active-vertex mask; defaults to vertices with incident edges.
    prev_values, prev_active:
        The previous window's solution and active mask; omitted on the
        first window (cold start from uniform).
    """
    n = graph.n_vertices
    if active is None:
        mask = np.zeros(n, dtype=bool)
        src, dst = graph.edges()
        mask[src] = True
        mask[dst] = True
    else:
        mask = np.asarray(active, dtype=bool)
    return _power_iterate_graph(
        graph, config, mask, 1.0, prev_values, prev_active,
        graph.out_degrees(), config.damping, config.alpha,
    )


def _power_iterate_graph(
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
    """The power iteration of every materialized (simple-graph) solve.

    The affine pull of :func:`~repro.pagerank.spmv._power_iterate` over
    the whole vertex space of ``graph``, restricted to the active
    ``mask``.  It starts from ``prev_values`` transferred by eq. 4
    (:func:`~repro.pagerank.init.materialized_partial_initialization`)
    or, cold, from ``cold_mass`` spread evenly over the active vertices.
    ``out_weight`` is the per-source weight (out-degree for PageRank, 1
    for Katz), ``normalized`` compares unit-mass iterates and returns the
    unit-mass fixed point, and ``config`` supplies the tolerance,
    iteration cap, strictness and dangling policy.
    """
    n = graph.n_vertices
    n_active = int(mask.sum())
    if n_active == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64), iterations=0, converged=True, residual=0.0
        )
    if prev_values is not None:
        x = materialized_partial_initialization(
            mask, n_active, prev_values, prev_active
        )
    else:
        x = np.where(mask, cold_mass / n_active, 0.0)
    inv_out = np.zeros(n, dtype=np.float64)
    nz = out_weight > 0
    inv_out[nz] = 1.0 / out_weight[nz]
    # the streaming model pays this transpose per window: its structure is
    # organized for updates (out-adjacency blocks), not for the pull
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

    for it in range(1, config.max_iterations + 1):
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
