"""Frontier-based delta incremental PageRank (the paper's eq. 3).

Riedy's streaming update solves for the *correction* Δx induced by a batch
of edge changes instead of re-iterating the whole vector:

    Δx_{k+1} = alpha' A'^T D'^-1 Δx_k + r,
    r = (1 - alpha') v' - (I - alpha' A'^T D'^-1) x_prev

(with alpha' the damping factor and primes denoting the updated graph).
Because ``r`` is non-zero only near the changed edges, the correction can
be propagated with a **frontier**: only vertices whose pending residual
exceeds a per-vertex threshold push their correction to out-neighbors.
When the change is small relative to the graph, the touched-edge count is
far below a full power iteration's — the streaming model's one real
computational edge, measured by the ablation bench.

The final vector is identical (within tolerance) to the from-scratch
solve, which the tests verify.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import PagerankResult, WorkStats
from repro.utils.segments import segment_sum

__all__ = ["delta_incremental_pagerank"]


def _pagerank_operator_residual(
    graph: CSRGraph,
    x: np.ndarray,
    mask: np.ndarray,
    n_active: int,
    config: PagerankConfig,
    inv_out: np.ndarray,
    in_indptr: np.ndarray,
    in_col: np.ndarray,
    dangling: np.ndarray,
) -> np.ndarray:
    """r = F(x) - x, the full residual of the updated graph's operator."""
    damping = config.damping
    w = x * inv_out
    y = segment_sum(w[in_col], in_indptr)
    y *= damping
    if config.dangling == "uniform":
        dmass = float(x[dangling].sum())
        if dmass:
            y[mask] += damping * dmass / n_active
    y[mask] += config.alpha / n_active
    y[~mask] = 0.0
    return y - x


def delta_incremental_pagerank(
    graph: CSRGraph,
    prev_values: np.ndarray,
    config: PagerankConfig = PagerankConfig(),
    active: Optional[np.ndarray] = None,
) -> PagerankResult:
    """Update ``prev_values`` to the PageRank of ``graph`` by propagating
    residual corrections through a frontier.

    Parameters
    ----------
    graph:
        The *updated* simple graph (post edge insertions/expirations).
    prev_values:
        The previous window's converged vector (any per-vertex vector
        works; the farther it is from the fixed point, the more work the
        frontier does).
    active:
        Active-vertex mask of the updated graph.

    Notes
    -----
    The frontier push uses the classic Gauss–Southwell style rule: a
    vertex with pending residual ``|r[u]| > tolerance / n_active`` pushes
    ``damping * r[u] / outdeg(u)`` to each out-neighbor.  Terminates when
    the total pending residual mass drops below the configured tolerance.
    """
    n = graph.n_vertices
    if active is None:
        mask = np.zeros(n, dtype=bool)
        src, dst = graph.edges()
        mask[src] = True
        mask[dst] = True
    else:
        mask = np.asarray(active, dtype=bool)
    n_active = int(mask.sum())
    if n_active == 0:
        return PagerankResult(
            values=np.zeros(n), iterations=0, converged=True, residual=0.0
        )

    prev = np.asarray(prev_values, dtype=np.float64)
    if prev.shape != (n,):
        raise ValidationError("prev_values must be a per-vertex vector")

    out_deg = graph.out_degrees()
    inv_out = np.zeros(n)
    nz = out_deg > 0
    inv_out[nz] = 1.0 / out_deg[nz]
    tr = graph.transpose()
    in_indptr, in_col = tr.indptr, tr.col
    dangling = mask & ~nz

    # rebase the previous vector onto the new active set
    x = np.where(mask, prev, 0.0)
    total = x.sum()
    if total <= 0:
        x = np.where(mask, 1.0 / n_active, 0.0)
    else:
        x *= 1.0 / total

    # initial residual of the updated operator at the warm start
    r = _pagerank_operator_residual(
        graph, x, mask, n_active, config, inv_out, in_indptr, in_col,
        dangling,
    )

    damping = config.damping
    threshold = config.tolerance / max(n_active, 1)
    work = WorkStats()
    it = 0
    while it < config.max_iterations:
        pending = np.abs(r)
        frontier = np.flatnonzero(pending > threshold)
        res_mass = float(pending.sum())
        if res_mass < config.tolerance or frontier.size == 0:
            return PagerankResult(x, it, True, res_mass, work)
        it += 1

        push = r[frontier]
        x[frontier] += push
        r[frontier] = 0.0
        # propagate the pushed correction to out-neighbors: each frontier
        # vertex u adds damping * push[u] / outdeg(u) to r[v] for (u, v)
        shares = push * inv_out[frontier] * damping
        starts = graph.indptr[frontier]
        ends = graph.indptr[frontier + 1]
        lens = ends - starts
        if lens.sum() > 0:
            flat_targets = _gather_ranges(graph.col, starts, ends)
            flat_shares = np.repeat(shares, lens)
            np.add.at(r, flat_targets, flat_shares)
        if config.dangling == "uniform":
            dmass = float(push[dangling[frontier]].sum())
            if dmass:
                r[mask] += damping * dmass / n_active
        r[~mask] = 0.0

        work.iterations += 1
        work.edge_traversals += int(lens.sum())
        work.active_edge_traversals += int(lens.sum())
        work.vertex_ops += frontier.size

    res_mass = float(np.abs(r).sum())
    return PagerankResult(x, it, res_mass < config.tolerance, res_mass, work)


def _gather_ranges(col: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Vectorized concatenation of ``col[s:e]`` slices."""
    lens = ends - starts
    total = int(lens.sum())
    out_idx = np.repeat(starts - np.concatenate([[0], np.cumsum(lens)[:-1]]),
                        lens)
    return col[np.arange(total) + out_idx]
