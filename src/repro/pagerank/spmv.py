"""The SpMV-style postmortem PageRank kernel.

One power iteration is a *pull* over the temporal CSR's in-orientation,
restricted to the window's active vertex set ``V_w``:

    y[v] = alpha/|V_w| + (1 - alpha) * Σ_{active in-edges (u, v)} x[u] / outdeg_w(u)

Once per window the active deduplicated in-edges are packed
(:mod:`repro.pagerank.compaction`) and relabelled into the window's own
**window-local vertex space** ``[0, |V_w|)`` with a monotone map (local
id = rank of the vertex among the active ones); ``x0``, the inverse
out-degrees and the dangling set are gathered into ``|V_w|``-length
vectors.  Every per-iteration array then has length |V_w| (vertex side)
or |E_w| (edge side), so one iteration costs Θ(|V_w| + |E_w|) — the
paper's §4.2 per-window work — implemented as fully-vectorized NumPy
(per the HPC-Python guides: a gather and a sequential segment sum; no
Python-level edge loop):

    w       = x * inv_outdeg                         # per-source share
    contrib = w[col_c]                               # per-packed-edge
    y       = segment_sum_ordered(contrib, rows_c)   # per-destination

The reduction is :func:`~repro.utils.segments.segment_sum_ordered`
(strictly left-to-right within each destination), which keeps the result
bitwise-identical to a masked pass over all ``nnz`` stored events that
zeroes the inactive ones (the oracle in ``tests/dense_mask_reference.py``)
— a pairwise ``reduceat`` would round differently depending on how many
masked zeros pad each row.  The one length-``n`` pass left per iteration
is the residual sum, which runs over a zero-padded buffer so its pairwise
summation keeps the bits of the whole-graph residual.

The loop (``_power_iterate``) takes the step's affine constants as
arguments rather than reading ``alpha``, so the weighted kernel and Katz
(:mod:`repro.programs.katz`) run it too.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.temporal_csr import WindowView
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import full_initialization
from repro.pagerank.result import PagerankResult, WorkStats
from repro.pagerank.workspace import Workspace
from repro.utils.segments import segment_sum_ordered

__all__ = ["pagerank_window"]


def pagerank_window(
    view: WindowView,
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace=None,
) -> PagerankResult:
    """Compute PageRank for one window of a temporal adjacency.

    Parameters
    ----------
    view:
        Precomputed :class:`~repro.graph.temporal_csr.WindowView` (activity
        masks, degrees, active vertex set).
    config:
        Solver parameters.
    x0:
        Optional initial vector (e.g. from
        :func:`~repro.pagerank.init.partial_initialization`); defaults to
        the uniform full initialization.  Only its entries on the window's
        active vertices are read.
    workspace:
        Optional :class:`~repro.pagerank.workspace.Workspace` supplying the
        per-iteration scratch (window-local rank ping-pong pair, share
        vector, packed-edge contribution buffer, residual buffer) so a
        multi-window chain pays the allocator once instead of per window.
        Results are bitwise-identical with and without a workspace; the
        returned values are always a freshly owned array.

    Returns
    -------
    PagerankResult
        Values live in the view's (local) vertex space; inactive vertices
        hold exactly ``+0.0``.
    """
    return _power_iterate(
        view, config, x0, workspace,
        view.out_degrees, config.damping, config.alpha,
    )


def _unit_mass(values: np.ndarray, total) -> np.ndarray:
    """``values`` divided by ``total`` (per column for a matrix), or left
    unscaled where the total is not positive."""
    return values / np.where(total > 0, total, 1.0)


def _power_iterate(
    view: WindowView,
    config: PagerankConfig,
    x0: Optional[np.ndarray],
    workspace: Optional[Workspace],
    out_weight: np.ndarray,
    scale: float,
    base: float,
    weights: Optional[np.ndarray] = None,
    normalized: bool = False,
) -> PagerankResult:
    """The window-local power iteration of every single-window solve.

    One step is the affine pull

        y = scale * A^T (x / out_weight) + dangling + base / |V_w|

    — PageRank passes ``scale = 1 - alpha`` and ``base = alpha``, Katz its
    clamped attenuation, its base and unit out-weights (so its dangling
    set is empty).  ``out_weight`` is the length-``n`` source weight
    vector (window out-degree or out-strength), zero exactly at dangling
    and inactive vertices; ``weights`` the optional per-edge
    multiplicities, aligned with the view's active groups.
    ``normalized`` compares unit-mass iterates (a scale-invariant
    residual) and returns the unit-mass fixed point.  ``config`` supplies
    the tolerance, iteration cap, strictness and dangling policy.
    """
    n = view.adjacency.n_vertices
    k = view.n_active_vertices
    if k == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64), iterations=0, converged=True, residual=0.0
        )
    # a window packs at most one edge per (row, neighbor) group, so the
    # pooled edge buffers take the graph's group count as capacity
    capacity = view.adjacency.groups.n_groups
    packed = view.compact_pull(workspace=workspace)
    m = packed.n_edges
    ws = workspace if workspace is not None else Workspace()

    # monotone global -> local map: an active vertex gets its rank among
    # the active ones; the packed edges join active vertices only, so
    # relabelled rows stay non-decreasing and within-row order is untouched
    active_idx = np.flatnonzero(view.active_vertices_mask)
    local_id = ws.buffer("spmv.local_id", (n,), np.int64)
    np.cumsum(view.active_vertices_mask, dtype=np.int64, out=local_id)
    local_id -= 1
    local_col, local_rows = ws.buffer(
        "spmv.edges", (2, capacity), np.int64
    )[:, :m]
    local_id.take(packed.col, out=local_col)
    local_id.take(packed.rows, out=local_rows)

    # window-local scratch: capacity-n pooled rows sliced to |V_w|; x and
    # y ping-pong between rank0/rank1 so an iteration never reads the
    # array it is writing
    rank0, rank1, share, diff, inv, dang_buf = ws.buffer(
        "spmv.vertex", (6, n), np.float64
    )[:, :k]
    contrib = ws.buffer("spmv.contrib", (capacity,), np.float64)[:m]
    # |y - x| scattered into zeros: the same n-term pairwise sum (and so
    # the same bits) as a residual over the whole vertex space
    resid = ws.zeros("spmv.resid", (n,), np.float64)

    if x0 is None:
        x0 = full_initialization(view)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (n,):
        raise ValidationError(f"x0 must have shape ({n},), got {x0.shape}")
    x0.take(active_idx, out=rank0)
    # inv = 1/out_weight on the active vertices, 0 where dangling
    np.copyto(inv, out_weight.take(active_idx))
    if config.dangling == "uniform":
        dangling = np.flatnonzero(inv == 0.0)
    else:
        dangling = np.zeros(0, dtype=np.int64)
    np.divide(1.0, inv, out=inv, where=inv != 0.0)
    dang_buf = dang_buf[: dangling.size]

    teleport = base / k
    if normalized:
        # unit-mass totals are summed over the zero-padded buffer too, so
        # their bits match a sum over the whole vertex space
        resid[active_idx] = rank0
        total = float(np.add.reduce(resid))
    residual = np.inf
    iterations = 0
    propagate_seconds = 0.0
    x = rank0
    for iterations in range(1, config.max_iterations + 1):
        t_prop = time.perf_counter()
        np.multiply(x, inv, out=share)
        y = rank1 if x is rank0 else rank0
        share.take(local_col, out=contrib)
        if weights is not None:
            contrib *= weights
        segment_sum_ordered(contrib, local_rows, k, out=y)
        propagate_seconds += time.perf_counter() - t_prop
        y *= scale
        if dangling.size:
            x.take(dangling, out=dang_buf)
            dangling_mass = float(np.add.reduce(dang_buf))
            if dangling_mass:
                y += scale * dangling_mass / k
        y += teleport
        if normalized:
            resid[active_idx] = y
            y_total = float(np.add.reduce(resid))
            np.subtract(
                _unit_mass(y, y_total), _unit_mass(x, total), out=diff
            )
            total = y_total
        else:
            np.subtract(y, x, out=diff)
        np.abs(diff, out=diff)
        resid[active_idx] = diff
        residual = float(np.add.reduce(resid))
        x = y
        if residual < config.tolerance:
            break
    else:
        if config.strict:
            raise ConvergenceError(
                f"window {view.window.index} did not converge in "
                f"{config.max_iterations} iterations "
                f"(residual {residual:.3e})"
            )

    values = np.zeros(n, dtype=np.float64)
    values[active_idx] = _unit_mass(x, total) if normalized else x
    work = WorkStats(
        iterations=iterations,
        edge_traversals=iterations * m,
        active_edge_traversals=iterations * view.n_active_edges,
        vertex_ops=iterations * k,
        propagate_seconds=propagate_seconds,
    )
    return PagerankResult(
        values, iterations, residual < config.tolerance, residual, work
    )
