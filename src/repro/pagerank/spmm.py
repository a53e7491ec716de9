"""The SpMM-inspired postmortem PageRank kernel (paper Section 4.4).

When several windows live in the *same* multi-window graph, their PageRank
iterations share the structure arrays.  The SpMM kernel keeps the k
in-flight PageRank vectors as an ``(n, k)`` matrix and performs one
iteration for all live windows in one pass over their **active cells** —
the (edge, window) pairs whose edge is active in the window:

    S[k, n]   = (X * inv_outdeg).T                  # per-source shares
    for each group of COLUMN_GROUP live columns:
        c     = S_group.take(gather)                # one gather
        Y_grp = bincount(key, weights=c)            # one reduction

The cells are built once per batch from each window's active (row,
neighbour) groups.  The batch's columns are cut into fixed groups of
``COLUMN_GROUP``; a group holds one contiguous segment per live column,
in stored group order, with the column's offset ``r * n`` (r its rank in
the group) baked into both the gather index and the scatter key.  An
iteration reads exactly the live windows' active edges — masked-out
cells cost nothing — and needs no per-iteration index arithmetic.
``np.bincount`` adds strictly in input order and each (row, column) bin
holds only its own column's cells in stored order, so the result is
bitwise-identical to the full-width masked pass (dropping exact-zero
contributions changes no bit; see
:func:`~repro.utils.segments.segment_sum_ordered`).

Windows may converge at different iterations.  A converged column's
values are written out and the live state, the per-column vertex data
and the cells are compacted to the survivors — only the column groups
that lost a column are rebuilt, each with a few whole-array passes — so
later iterations touch only live columns.  Per-column iteration counts
are reported.

The loop (``_power_iterate_batch``) takes a per-column scale and the base
as arguments, so Katz's batches (:mod:`repro.programs.katz`) run it too.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.temporal_csr import TemporalAdjacency, WindowView
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import full_initialization
from repro.pagerank.result import BatchPagerankResult, WorkStats
from repro.pagerank.spmv import _unit_mass
from repro.pagerank.workspace import Workspace

__all__ = ["COLUMN_GROUP", "ActiveCells", "pagerank_windows_spmm"]

#: live columns per ``np.bincount``: each call's output holds
#: ``COLUMN_GROUP * n`` bins and its gathered shares one group's cells,
#: so the per-call transients grow with the group, not the batch width
COLUMN_GROUP = 4


class ActiveCells:
    """The live (edge, window) cells of one SpMM batch.

    The batch's columns are cut into fixed groups of
    :data:`COLUMN_GROUP` consecutive columns.  A group's live columns are
    consecutive rows of the live share matrix, and the group owns two
    flat int64 arrays holding one segment per live column, in stored
    group order.  For the column of rank ``r`` among its group's live
    columns:

    * ``gather`` — ``groups.col[g] + r * n``: the source's share in the
      group's flattened share rows;
    * ``key`` — ``groups.row[g] + r * n``: the (destination, column) bin
      of the group's ``np.bincount``.
    """

    __slots__ = ("n", "n_cells", "_groups", "_vals")

    def __init__(
        self, adjacency: TemporalAdjacency, views: Sequence[WindowView]
    ) -> None:
        index = adjacency.groups
        n = self.n = adjacency.n_vertices
        #: per group: (cells per live column, gather, key)
        self._groups = []
        for g0 in range(0, len(views), COLUMN_GROUP):
            block = views[g0: g0 + COLUMN_GROUP]
            lengths = np.array(
                [v.n_active_edges for v in block], dtype=np.int64
            )
            gather = np.empty(int(lengths.sum()), dtype=np.int64)
            key = np.empty_like(gather)
            lo = 0
            for r, v in enumerate(block):
                active = v.active_groups
                hi = lo + active.size
                np.add(index.col[active], r * n, out=gather[lo:hi])
                np.add(index.row[active], r * n, out=key[lo:hi])
                lo = hi
            self._groups.append((lengths, gather, key))
        self.n_cells = sum(g[1].size for g in self._groups)
        self._vals = np.empty(
            max((g[1].size for g in self._groups), default=0),
            dtype=np.float64,
        )

    def propagate(self, shares: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[:, p] = A_p^T shares[p]`` for every live column ``p``.

        ``shares`` is the C-contiguous ``(m, n)`` share matrix of the m
        live columns, ``out`` an ``(n, m)`` result, fully overwritten.
        """
        n = self.n
        p = 0
        for lengths, gather, key in self._groups:
            q = p + lengths.size
            # mode="clip" skips the bounds check (and the buffered copy
            # take makes with out= under mode="raise"): every index lies
            # in the group's rows by construction
            vals = np.take(
                shares[p:q].reshape(-1), gather,
                out=self._vals[: gather.size], mode="clip",
            )
            y = np.bincount(key, weights=vals, minlength=(q - p) * n)
            out[:, p:q] = y.reshape(q - p, n).T
            p = q
        return out

    def keep(self, survive: np.ndarray) -> None:
        """Drop the columns not in ``survive`` (a mask over the live
        columns).  Only a group that loses a column is rebuilt: its
        survivors' segments are compacted and re-based to their new
        ranks, so a shrink allocates no more than one group's cells."""
        n = self.n
        p = 0
        groups = []
        for lengths, gather, key in self._groups:
            q = p + lengths.size
            s = survive[p:q]
            p = q
            if s.all():
                groups.append((lengths, gather, key))
            elif s.any():
                cells = np.repeat(s, lengths)
                rank = np.cumsum(s) - 1
                shift = np.repeat(
                    ((rank - np.arange(s.size)) * n)[s], lengths[s]
                )
                gather = gather[cells]
                gather += shift
                key = key[cells]
                key += shift
                groups.append((lengths[s], gather, key))
        self._groups = groups
        self.n_cells = sum(g[1].size for g in groups)


def pagerank_windows_spmm(
    views: Sequence[WindowView],
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace=None,
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
        Optional :class:`~repro.pagerank.workspace.Workspace`.  The
        per-iteration ``(n, k)`` state, share and result buffers and the
        stacked per-window vertex data are recycled across same-width
        batches of a chain; without one the batch pools through a private
        workspace.  Returned values are always freshly owned.

    Returns
    -------
    BatchPagerankResult
        ``values[:, j]`` is the PageRank of ``views[j].window``.
    """
    return _power_iterate_batch(
        views, config, x0, workspace,
        np.full(len(views), config.damping, dtype=np.float64), config.alpha,
    )


def _power_iterate_batch(
    views: Sequence[WindowView],
    config: PagerankConfig,
    x0: Optional[np.ndarray],
    workspace: Optional[Workspace],
    scale: np.ndarray,
    base: float,
    normalized: bool = False,
    unit_weights: bool = False,
) -> BatchPagerankResult:
    """The batched power iteration of every SpMM solve.

    Column j steps ``y = scale[j] * A^T (x / outdeg_j) + dangling +
    base / |V_j|`` — the affine pull of
    :func:`~repro.pagerank.spmv._power_iterate`, k windows per pass over
    their active cells.  ``unit_weights`` replaces the window out-degrees
    by 1 (Katz: no degree normalization, so no dangling set);
    ``normalized`` compares unit-mass columns and returns the unit-mass
    fixed points.  ``config`` supplies the tolerance, iteration cap,
    strictness and dangling policy.
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
    ws = workspace if workspace is not None else Workspace()
    work = WorkStats()

    active = np.stack(
        [v.active_vertices_mask for v in views], axis=1,
        out=ws.buffer("spmm.active", (n, k), np.bool_),
    )
    dangling = ws.buffer("spmm.dangling", (n, k), np.bool_)
    # transposed: row j holds column j's inverse out-degrees, the layout
    # of the share matrix the cells gather from
    inv_out = ws.buffer("spmm.inv_out", (k, n), np.float64)
    if unit_weights:
        inv_out.fill(1.0)
        dangling.fill(False)
    else:
        np.stack([v.out_degrees == 0 for v in views], axis=1, out=dangling)
        dangling &= active
        # a workspace-built view's inverse_out_degrees returns shared
        # pooled scratch, so each result is copied out before the next
        # view's call overwrites it
        for j, v in enumerate(views):
            inv_out[j] = v.inverse_out_degrees()
    n_active = np.array([v.n_active_vertices for v in views], dtype=np.int64)

    # the returned matrix: the state while every column is live, then
    # the home of each column's values once it converges
    X = np.empty((n, k), dtype=np.float64)
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

    # the live columns' data, compacted to the live set (``live`` maps
    # live position -> batch column)
    live = np.flatnonzero(~converged)
    m = live.size
    t_bin = time.perf_counter()
    cells = ActiveCells(adjacency, [views[j] for j in live])
    work.binning_seconds += time.perf_counter() - t_bin
    # Layout fixes the bits: NumPy sums a C-ordered (n, m) matrix down its
    # columns row by row, but a column-contiguous one pairwise.  The
    # canonical pass iterated on X itself while every column was live and
    # on a column selection ``X[:, live]`` (column-contiguous) after, so
    # the live state, activity and dangling sets keep those layouts.
    if m == k:
        Xl, act, dang, inv = X, active, dangling, inv_out
    else:
        Xl, act, dang = (a.T[live].T for a in (X, active, dangling))
        inv = inv_out[live]
    lscale, lsafe, lteleport = scale[live], safe_active[live], teleport[live]
    out = ws.buffer("spmm.Y", (n * k,), np.float64)
    shares = ws.buffer("spmm.W", (k * n,), np.float64)

    it = 0
    while m and it < config.max_iterations:
        it += 1
        t_prop = time.perf_counter()
        S = np.multiply(Xl.T, inv, out=shares[: m * n].reshape(m, n))
        Y = cells.propagate(S, out[: n * m].reshape(n, m))
        work.propagate_seconds += time.perf_counter() - t_prop
        Y *= lscale
        if config.dangling == "uniform":
            dmass = np.sum(Xl * dang, axis=0)
            Y += (lscale * dmass / lsafe) * act
        Y += lteleport * act
        Y[~act] = 0.0

        if normalized:
            res = np.abs(
                _unit_mass(Y, Y.sum(axis=0)) - _unit_mass(Xl, Xl.sum(axis=0))
            ).sum(axis=0)
        else:
            res = np.abs(Y - Xl).sum(axis=0)
        np.copyto(Xl, Y)
        iterations[live] += 1
        residuals[live] = res

        work.iterations += 1
        work.edge_traversals += cells.n_cells
        work.active_edge_traversals += cells.n_cells
        work.vertex_ops += int(n_active[live].sum())

        newly = res < config.tolerance
        if newly.any():
            X[:, live[newly]] = Xl[:, newly]
            converged[live[newly]] = True
            keep = ~newly
            live = live[keep]
            m = live.size
            cells.keep(keep)
            Xl, act, dang = (a.T[keep].T for a in (Xl, act, dang))
            inv = inv[keep]
            lscale, lsafe, lteleport = (
                lscale[keep], lsafe[keep], lteleport[keep]
            )
    if m:
        X[:, live] = Xl

    if config.strict and not converged.all():
        bad = [views[j].window.index for j in np.flatnonzero(~converged)]
        raise ConvergenceError(
            f"windows {bad} did not converge in {config.max_iterations} "
            f"iterations"
        )

    return BatchPagerankResult(
        values=_unit_mass(X, X.sum(axis=0)) if normalized else X,
        window_indices=[v.window.index for v in views],
        iterations_per_window=iterations,
        converged=converged,
        residuals=residuals,
        work=work,
    )
