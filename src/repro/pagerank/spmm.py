"""The SpMM-inspired postmortem PageRank kernel (paper Section 4.4).

When several windows live in the *same* multi-window graph, their PageRank
iterations share the structure arrays (``rowA``/``colA``/``timeA``).  The
SpMM kernel keeps the k in-flight PageRank vectors as an ``(n, k)`` matrix
and performs one iteration for all k windows in a single pass over the
structure:

    W[n, k]       = X * inv_outdeg[:, window]         # per-source shares
    C[nnz, k]     = W[colA, :] * active[nnz, k]       # one gather for all k
    Y[n, k]       = segment_sum_ordered(C, rowA)      # one reduction pass

The structure is read once per iteration instead of k times, and the
gathered rows of ``W`` are contiguous — the access-pattern regularization
the paper borrows from classic SpMM.  Windows may converge at different
iterations; converged columns are frozen (their values stop changing) while
the remaining columns keep iterating, and per-column iteration counts are
reported.

With ``config.edge_path="compacted"`` the kernel packs the **union** of
the k windows' active deduped edges once per batch
(:func:`~repro.pagerank.compaction.compact_pull_union`): the strided
region schedule batches windows that are far apart in time, so the union
is typically a small fraction of nnz and the shared structure pass
shrinks accordingly.  Bitwise-identical to the masked batch.

The loop (``_power_iterate_batch``) takes a per-column scale and the base
as arguments, so Katz's batches (:mod:`repro.programs.katz`) run it too.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.temporal_csr import WindowView
from repro.pagerank.backends import resolve_backend
from repro.pagerank.compaction import compact_pull_union, resolve_edge_path
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import full_initialization
from repro.pagerank.result import BatchPagerankResult, WorkStats
from repro.pagerank.spmv import _unit_mass
from repro.pagerank.workspace import Workspace

__all__ = ["pagerank_windows_spmm"]


def pagerank_windows_spmm(
    views: Sequence[WindowView],
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace=None,
    iteration_hint: Optional[int] = None,
) -> BatchPagerankResult:
    """Solve k windows of one multi-window graph simultaneously.

    Parameters
    ----------
    views:
        Window views that must all share the same
        :class:`~repro.graph.temporal_csr.TemporalAdjacency`.
    x0:
        Optional ``(n, k)`` initial matrix (column j initializes
        ``views[j]``); columns default to full initialization.
    workspace:
        Optional :class:`~repro.pagerank.workspace.Workspace`.  The stacked
        structure matrices (the ``(nnz, k)`` dedup mask — the batch's
        dominant allocation — plus degrees/activity) and the per-iteration
        gather/reduce buffers are recycled across same-width batches of a
        chain; without one the batch pools through a private workspace.
        Once columns start converging the live subset shrinks and the
        kernel gathers the live columns per iteration; results are
        bitwise-identical either way, and returned values are always
        freshly owned.

    Returns
    -------
    BatchPagerankResult
        ``values[:, j]`` is the PageRank of ``views[j].window``.
    """
    return _power_iterate_batch(
        views, config, x0, workspace, iteration_hint,
        np.full(len(views), config.damping, dtype=np.float64), config.alpha,
    )


def _power_iterate_batch(
    views: Sequence[WindowView],
    config: PagerankConfig,
    x0: Optional[np.ndarray],
    workspace: Optional[Workspace],
    iteration_hint: Optional[int],
    scale: np.ndarray,
    base: float,
    normalized: bool = False,
    unit_weights: bool = False,
) -> BatchPagerankResult:
    """The batched power iteration of every SpMM solve.

    Column j steps ``y = scale[j] * A^T (x / outdeg_j) + dangling +
    base / |V_j|`` — the affine pull of
    :func:`~repro.pagerank.spmv._power_iterate`, k windows per structure
    pass.  ``unit_weights`` replaces the window out-degrees by 1 (Katz:
    no degree normalization, so no dangling set); ``normalized`` compares
    unit-mass columns and returns the unit-mass fixed points.  ``config``
    supplies the tolerance, iteration cap, strictness, dangling policy and
    propagation routing.
    """
    if not views:
        raise ValidationError("need at least one window view")
    adjacency = views[0].adjacency
    for v in views[1:]:
        if v.adjacency is not adjacency:
            raise ValidationError(
                "SpMM kernel requires all windows from the same "
                "multi-window graph"
            )

    n = adjacency.n_vertices
    k = len(views)
    in_csr = adjacency.in_csr
    nnz = in_csr.nnz
    ws = workspace if workspace is not None else Workspace()
    active_edge_counts = np.array(
        [v.n_active_edges for v in views], dtype=np.int64
    )

    # the union can't exceed the sum of the windows' active edges (nor
    # nnz), so that bound stands in for its size in the auto decision
    # without building it
    est_union = min(nnz, int(active_edge_counts.sum()))
    path = resolve_edge_path(config, nnz, est_union, n, iteration_hint)

    # per-window structure data: per-edge masks and (n, k) degrees
    if path == "compacted":
        packed = compact_pull_union(views, workspace=ws)
        it_col, it_rows = packed.col, packed.rows
        dedup = packed.active
        it_nnz = packed.n_edges
    else:
        dedup = ws.buffer("spmm.dedup", (nnz, k), np.bool_)
        # a column at a time: one transient nnz-length mask, not k
        for j, v in enumerate(views):
            dedup[:, j] = v.in_dedup
        it_col, it_rows, it_nnz = in_csr.col, in_csr.row_ids(), nnz

    work = WorkStats()
    backend = resolve_backend(config, it_nnz, n, iteration_hint)
    t_bin = time.perf_counter()
    plan = backend.make_plan(
        it_col, it_rows, n, workspace=ws, key="spmm.plan", capacity=nnz,
    )
    work.binning_seconds += time.perf_counter() - t_bin

    inv_out = ws.buffer("spmm.inv_out", (n, k), np.float64)
    active = np.stack(
        [v.active_vertices_mask for v in views], axis=1,
        out=ws.buffer("spmm.active", (n, k), np.bool_),
    )
    dangling = ws.buffer("spmm.dangling", (n, k), np.bool_)
    if unit_weights:
        inv_out.fill(1.0)
        dangling.fill(False)
    else:
        np.stack([v.out_degrees == 0 for v in views], axis=1, out=dangling)
        dangling &= active
        # column-at-a-time fill: a workspace-built view's
        # inverse_out_degrees returns shared pooled scratch, so each
        # result must be copied out before the next view's call
        # overwrites it
        for j, v in enumerate(views):
            inv_out[:, j] = v.inverse_out_degrees()
    n_active = np.array([v.n_active_vertices for v in views], dtype=np.int64)

    X = ws.buffer("spmm.X", (n, k), np.float64)
    if x0 is None:
        np.stack([full_initialization(v) for v in views], axis=1, out=X)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n, k):
            raise ValidationError(f"x0 must have shape ({n}, {k})")
        np.copyto(X, x0)

    safe_active = np.maximum(n_active, 1)
    teleport = np.where(n_active > 0, base / safe_active, 0.0)

    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.full(k, np.inf, dtype=np.float64)
    converged = n_active == 0  # empty windows are trivially done
    residuals[converged] = 0.0
    X[:, converged] = 0.0

    live = ~converged
    it = 0
    while live.any() and it < config.max_iterations:
        it += 1
        idx = np.flatnonzero(live)
        t_prop = time.perf_counter()
        if idx.size == k:
            # full-width fast path: every window still live, so the
            # workspace buffers apply directly with no column selection
            Xl = X
            W = np.multiply(
                X, inv_out, out=ws.buffer("spmm.W", (n, k), np.float64)
            )
            Y = plan.propagate_batch(
                W, dedup,
                out=ws.buffer("spmm.Y", (n, k), np.float64),
                contrib=ws.buffer("spmm.C", (nnz, k), np.float64)[:it_nnz],
                scratch=ws.buffer("spmm.colbuf", (nnz,), np.float64)[:it_nnz],
            )
            act = active
            dang = dangling
        else:
            Xl = X[:, idx]
            W = Xl * inv_out[:, idx]
            # one structure pass for every live window (over the packed
            # union when compacted — column selection composes with it)
            Y = plan.propagate_batch(W, dedup[:, idx])
            act = active[:, idx]
            dang = dangling[:, idx]
        work.propagate_seconds += time.perf_counter() - t_prop
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

        work.iterations += 1
        work.edge_traversals += it_nnz  # one shared structure pass
        work.active_edge_traversals += int(active_edge_counts[idx].sum())
        work.vertex_ops += int(n_active[idx].sum())

        newly = res < config.tolerance
        converged[idx[newly]] = True
        live = ~converged

    if config.strict and not converged.all():
        bad = [views[j].window.index for j in np.flatnonzero(~converged)]
        raise ConvergenceError(
            f"windows {bad} did not converge in {config.max_iterations} "
            f"iterations"
        )

    return BatchPagerankResult(
        values=_unit_mass(X, X.sum(axis=0)) if normalized else X.copy(),
        window_indices=[v.window.index for v in views],
        iterations_per_window=iterations,
        converged=converged,
        residuals=residuals,
        work=work,
    )
