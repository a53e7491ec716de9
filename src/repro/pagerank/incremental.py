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

Like the postmortem SpMV kernel, each solve runs in the window's own
vertex space ``[0, |V_w|)``: once per solve the snapshot's edges are
relabelled with a monotone map and transposed into a pull CSR in local
ids, so an iteration costs Θ(|V_w| + |E_w|) however large the event set's
vertex space is.  The pull rows keep the within-row source order of a
transpose over the whole vertex space, and the residual is summed over a
zero-padded length-``n`` buffer, so the values and iteration counts are
those of an iteration over all ``n`` vertices, bit for bit.

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
from repro.pagerank.init import mask_partial_initialization
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
    """The window-local power iteration of every materialized solve.

    The affine pull of :func:`~repro.pagerank.spmv._power_iterate` on a
    simple graph, solved in the active ``mask``'s own vertex space
    ``[0, |V_w|)``.  Once per solve it relabels the snapshot's edges with
    a monotone map and transposes them into a pull CSR in local ids, and
    gathers the start vector, the inverse out-weights and the dangling
    set into ``|V_w|``-length vectors, so each iteration touches |V_w|
    entries and the snapshot's edges.  It starts from ``prev_values``
    transferred by eq. 4
    (:func:`~repro.pagerank.init.mask_partial_initialization`)
    or, cold, from ``cold_mass`` spread evenly over the active vertices.
    ``out_weight`` is the length-``n`` per-source weight (out-degree for
    PageRank, 1 for Katz), ``normalized`` compares unit-mass iterates and
    returns the unit-mass fixed point, and ``config`` supplies the
    tolerance, iteration cap, strictness and dangling policy.  The values
    come back in the graph's vertex space, exactly ``+0.0`` off ``mask``.
    """
    n = graph.n_vertices
    active_idx = np.flatnonzero(mask)
    k = active_idx.size
    if k == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64), iterations=0, converged=True, residual=0.0
        )
    # monotone global -> local map; an inactive source reads the zero
    # share in slot k, the +0.0 term it always added to its row
    local_id = np.full(n, k, dtype=np.int64)
    local_id[active_idx] = np.arange(k, dtype=np.int64)
    # sorted by (row, global source) as the n-space transpose was, so each
    # reduceat segment sums the same terms in the same order; edges into
    # inactive rows are dropped (those rows were zeroed every iteration)
    src, dst = graph.edges()
    into = mask[dst]
    rows, in_src = np.divmod(np.sort(local_id[dst[into]] * n + src[into]), n)
    in_col = local_id[in_src]
    indptr = _check_indptr(
        np.searchsorted(rows, np.arange(k + 1)), in_col.size
    )
    nonempty = indptr[:-1] < indptr[1:]
    starts = indptr[:-1][nonempty]

    # pooled once per solve: the x/y ping-pong pair, |y - x|, the shares
    # (plus the zero slot) and the gathered per-edge terms
    rank0, rank1, diff = np.empty((3, k), dtype=np.float64)
    share = np.zeros(k + 1, dtype=np.float64)
    terms = np.empty(in_col.size, dtype=np.float64)
    # |y - x| and the unit-mass totals scattered into zeros: the same
    # n-term pairwise sums (and bits) as over the whole vertex space
    resid = np.zeros(n, dtype=np.float64)
    if prev_values is not None:
        mask_partial_initialization(
            mask, prev_values, prev_active
        ).take(active_idx, out=rank0)
    else:
        rank0.fill(cold_mass / k)
    weight = out_weight[active_idx]
    nz = weight > 0
    inv_out = np.zeros(k, dtype=np.float64)
    np.divide(1.0, weight, out=inv_out, where=nz)
    if config.dangling == "uniform":
        dangling = np.flatnonzero(~nz)
    else:
        dangling = np.zeros(0, dtype=np.int64)
    dang_buf = np.empty(dangling.size, dtype=np.float64)

    teleport = base / k
    work = WorkStats()
    residual = np.inf
    x = rank0
    if normalized:
        resid[active_idx] = x
        total = np.add.reduce(resid)

    for _ in range(config.max_iterations):
        np.multiply(x, inv_out, out=share[:k])
        y = rank1 if x is rank0 else rank0
        share.take(in_col, out=terms, mode="clip")
        _sum_nonempty(terms, nonempty, starts, y)
        y *= scale
        if dangling.size:
            x.take(dangling, out=dang_buf, mode="clip")
            dangling_mass = float(np.add.reduce(dang_buf))
            if dangling_mass:
                y += scale * dangling_mass / k
        y += teleport

        if normalized:
            resid[active_idx] = y
            y_total = np.add.reduce(resid)
            np.subtract(
                _unit_mass(y, y_total), _unit_mass(x, total), out=diff
            )
            total = y_total
        else:
            np.subtract(y, x, out=diff)
        resid[active_idx] = np.abs(diff, out=diff)
        residual = float(np.add.reduce(resid))
        x = y
        work.iterations += 1
        work.edge_traversals += graph.n_edges
        work.active_edge_traversals += graph.n_edges
        work.vertex_ops += k
        if residual < config.tolerance:
            break
    else:
        if config.strict:
            raise ConvergenceError(
                f"materialized solve did not converge in "
                f"{config.max_iterations} iterations "
                f"(residual {residual:.3e})"
            )
    values = np.zeros(n, dtype=np.float64)
    values[active_idx] = _unit_mass(x, total) if normalized else x
    return PagerankResult(
        values, work.iterations, residual < config.tolerance, residual, work,
    )
