"""The SpMV-style postmortem PageRank kernel.

One power iteration is a *pull* over the temporal CSR's in-orientation,
restricted to the window's active vertex set ``V_w``:

    y[v] = alpha/|V_w| + (1 - alpha) * Σ_{active in-edges (u, v)} x[u] / outdeg_w(u)

The window view builds each window's active deduplicated in-edges
already packed (:mod:`repro.pagerank.compaction`) and relabelled into
the window's own **window-local vertex space** ``[0, |V_w|)`` with a
monotone map (local id = rank of the vertex among the active ones),
together with its local out-degrees; seeds arrive window-local too
(:func:`~repro.pagerank.init.local_partial_initialization`).  Every
per-iteration array then has length |V_w| (vertex side) or |E_w| (edge
side), so one iteration costs Θ(|V_w| + |E_w|) — the
paper's §4.2 per-window work — implemented as fully-vectorized NumPy
(per the HPC-Python guides: a gather and a sequential segment sum; no
Python-level edge loop):

    w       = x * inv_outdeg                          # per-source share
    contrib = w[col_c]                                # per-packed-edge
    y       = np.bincount(rows_c, weights=contrib)    # per-destination

The reduction is the sequential ``np.bincount`` behind
:func:`~repro.utils.segments.segment_sum_ordered` (strictly
left-to-right within each destination), which keeps the result
bitwise-identical to a masked pass over all ``nnz`` stored events that
zeroes the inactive ones (the oracle in ``tests/dense_mask_reference.py``)
— a pairwise ``reduceat`` would round differently depending on how many
masked zeros pad each row.  The one length-``n`` pass left per iteration
is the residual sum, which runs over a zero-padded buffer so its pairwise
summation keeps the bits of the whole-graph residual.

The loop (``_power_iterate``) is a **lockstep** loop and the only
postmortem power iteration: it iterates any number of windows at once,
each in its own window-local space, and a single-window solve is the
loop with one column.  The postmortem engine
(:func:`repro.programs.engine.solve_program_chains`) hands it one step
of its warm-start chains — window j of every multi-window graph of a
lockstep group, or, under the SpMM region schedule (Section 4.4), batch
b of one graph's regions.  The columns' relabelled edges are
concatenated with per-column offsets on both the gather index and the
``np.bincount`` key, so one multiply and one ``take`` and one
``bincount`` per pass of up to :data:`PASS_EDGES` edges (whole columns)
propagate every column, and each bin still adds only its own column's
terms in stored order.  Everything elementwise (scale, dangling term,
teleport, ``|y - x|``, the scatter into the padded residual buffers)
runs over the concatenation.  The per-column reduction rule: every sum
whose bits depend on its grouping — the dangling mass, the residual
over the column's zero-padded length-n buffer and Katz's unit-mass
totals — is a separate pairwise ``np.add.reduce`` per column, over
exactly the terms a one-column solve sums (``np.add.reduceat`` groups
them differently).  So a column's values, iterations, residual and
``converged`` are bitwise-identical to solving its window alone,
whichever columns share its loop.  A converged column's values are
copied out and its edges leave the passes; its edges and rows stay in
place, so nothing is copied or re-based.

The loop takes the step's affine constants as arguments rather than
reading ``alpha``, so the weighted kernel and Katz
(:mod:`repro.programs.katz`) run it too.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.temporal_csr import WindowView
from repro.pagerank.compaction import compact_pull
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import local_full_initialization
from repro.pagerank.result import LockstepResult, PagerankResult, WorkStats
from repro.pagerank.workspace import Workspace

__all__ = ["pagerank_window", "pagerank_windows_lockstep"]


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
        the uniform full initialization.  Either per vertex of the graph
        (``(n,)``: only its entries on the window's active vertices are
        read) or window-local (``(|V_w|,)``: the value of each vertex of
        ``view.active_idx``, as :func:`~repro.pagerank.init.
        local_partial_initialization` returns it).  When every vertex is
        active the two are the same vector.
    workspace:
        Optional :class:`~repro.pagerank.workspace.Workspace` supplying the
        zero-padded residual buffer, so a multi-window chain pays the
        allocator once instead of per window.  Results are
        bitwise-identical with and without a workspace; the returned
        values are always a freshly owned array.

    Returns
    -------
    PagerankResult
        Values live in the view's (local) vertex space; inactive vertices
        hold exactly ``+0.0``.
    """
    return pagerank_windows_lockstep([view], config, [x0], workspace).columns[0]


def pagerank_windows_lockstep(
    views: Sequence[WindowView],
    config: PagerankConfig = PagerankConfig(),
    x0: Optional[Sequence[Optional[np.ndarray]]] = None,
    workspace=None,
) -> LockstepResult:
    """PageRank of several windows, each in its own vertex space, in one
    lockstep power iteration.

    ``x0[j]`` (``None`` for a full initialization) seeds ``views[j]``.
    The views may come from different multi-window graphs, or be one
    batch of a graph's SpMM regions; column j's result is
    bitwise-identical to ``pagerank_window(views[j], config, x0[j])``.
    """
    return _power_iterate(
        views, config, _seeds(views, x0), workspace,
        [v.local_out_degrees for v in views],
        [config.damping] * len(views), config.alpha,
    )


def _seeds(views, x0):
    """``x0`` as one entry per view (``None`` = full initialization)."""
    if x0 is None:
        return [None] * len(views)
    if len(x0) != len(views):
        raise ValidationError(
            f"need one seed per window, got {len(x0)} for {len(views)}"
        )
    return x0


def _unit_mass(values: np.ndarray, total) -> np.ndarray:
    """``values`` divided by ``total`` (per column for a matrix), or left
    unscaled where the total is not positive."""
    return values / np.where(total > 0, total, 1.0)


class _Column:
    """One window of a lockstep solve in its window-local space
    ``[0, |V_w|)``: its inverse out-weights and dangling set, its
    iterate and, once finished, its outcome.  Its packed edges go
    straight from the view into the concatenation (:class:`_Concat`)."""

    __slots__ = (
        "view", "n", "k", "active_idx", "inv", "dangling", "weights",
        "scale", "x", "total", "iterations", "residual", "converged",
        "propagate_seconds",
    )

    def __init__(self, view, x0, out_weight, scale, weights, dangling):
        n = self.n = view.adjacency.n_vertices
        k = self.k = view.n_active_vertices
        self.view = view
        self.active_idx = view.active_idx
        self.scale = scale
        self.weights = weights
        self.total = 0.0
        self.iterations = 0
        self.propagate_seconds = 0.0
        if x0 is None:
            x0 = local_full_initialization(view)
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape == (n,):
            x0 = x0.take(self.active_idx)
        elif x0.shape != (k,):
            raise ValidationError(
                f"x0 must have shape ({n},) or window-local ({k},), "
                f"got {x0.shape}"
            )
        self.x = x0
        # an empty window is solved before it starts
        self.converged = k == 0
        self.residual = 0.0 if self.converged else np.inf
        if self.converged:
            return
        # inv = 1/out_weight on the active vertices, 0 where dangling
        inv = self.inv = out_weight.astype(np.float64)
        self.dangling = (
            (inv == 0.0).nonzero()[0] if dangling
            else np.zeros(0, dtype=np.int64)
        )
        np.divide(1.0, inv, out=inv, where=inv != 0.0)

    def result(self, normalized: bool) -> PagerankResult:
        values = np.zeros(self.n, dtype=np.float64)
        values[self.active_idx] = (
            _unit_mass(self.x, self.total) if normalized else self.x
        )
        it = self.iterations
        work = WorkStats(
            iterations=it,
            edge_traversals=it * self.view.n_active_edges,
            active_edge_traversals=it * self.view.n_active_edges,
            vertex_ops=it * self.k,
            propagate_seconds=self.propagate_seconds,
        )
        return PagerankResult(
            values, it, self.converged, self.residual, work
        )


#: packed edges one gather + ``bincount`` pass covers (a column with
#: more is a pass of its own).  The contribution buffer is one pass
#: long, so a step holds 16 B of edge index per live edge plus one
#: pass, however many windows it steps.
PASS_EDGES = 1 << 16


class _Concat:
    """A lockstep solve's columns laid end to end.  Column j owns rows
    ``[starts[j], starts[j] + k[j])`` of the concatenated vertex space,
    ``spans[j]`` of the packed edges, and the slice ``pad_slices[j]`` of
    the zero-padded residual buffer, which serves as its own length-n_j
    buffer (a slice sums with the bits of a separate array of its
    length).  The layout is fixed for the whole solve: a finished column
    only leaves the propagation passes (:meth:`plan`), so its rows still
    ride the elementwise passes but touch nothing of the live columns."""

    def __init__(
        self, columns: List[_Column], base: float, ws: Workspace
    ) -> None:
        k = self.k = np.array([c.k for c in columns], dtype=np.int64)
        m = np.array(
            [c.view.n_active_edges for c in columns], dtype=np.int64
        )
        n = np.array([c.n for c in columns], dtype=np.int64)
        self.starts = np.cumsum(k) - k
        pads = np.cumsum(n) - n
        self.k_total = int(k.sum())
        hi = np.cumsum(m).tolist()
        #: per column: edges [a, b) and rows [lo, hi)
        self.spans = list(zip(
            [0] + hi[:-1], hi, self.starts.tolist(),
            (self.starts + k).tolist(),
        ))
        # each window's local pack, offset to its rows of the
        # concatenated space; a lone window's pack is iterated in place
        if len(columns) == 1:
            packed = compact_pull(columns[0].view)
            self.col, self.rows = packed.col, packed.rows
        else:
            self.col = np.empty(int(m.sum()), dtype=np.int64)
            self.rows = np.empty_like(self.col)
            for c, (a, b, start, _) in zip(columns, self.spans):
                packed = compact_pull(c.view)
                np.add(packed.col, start, out=self.col[a:b])
                np.add(packed.rows, start, out=self.rows[a:b])
        self.pad_pos = _join(
            [c.active_idx for c in columns], pads.repeat(k)
        )
        self.pad_slices = [
            slice(p, p + size) for p, size in zip(pads.tolist(), n.tolist())
        ]
        d = [c.dangling.size for c in columns]
        self.dangling = _join(
            [c.dangling for c in columns], self.starts.repeat(d)
        )
        lo = np.cumsum([0] + d).tolist()
        self.dangling_slices = [
            (j, slice(lo[j], lo[j + 1])) for j in range(len(columns)) if d[j]
        ]
        self.x = _join([c.x for c in columns])
        self.inv = _join([c.inv for c in columns])
        self.weights = (
            None if columns[0].weights is None
            else _join([c.weights for c in columns])
        )
        self.col_scale = np.array([c.scale for c in columns], dtype=np.float64)
        self.scale = self.col_scale.repeat(k)
        # base / k_j per row: the division a one-column solve does once
        self.teleport = (base / k).repeat(k)
        self.resid = ws.zeros("spmv.resid", (int(n.sum()),), np.float64)
        self.share = np.empty(self.k_total, dtype=np.float64)
        self.plan(np.ones(len(columns), dtype=bool))
        # a pass is one column, or whole columns whose edges fit
        # PASS_EDGES, so no later plan needs a longer buffer
        longest = max(b - a for a, b, _, _ in self.spans)
        self.contrib = np.empty(
            min(self.col.size, max(PASS_EDGES, longest)), dtype=np.float64
        )

    def plan(self, alive: np.ndarray) -> None:
        """Cut the ``alive`` columns into propagation passes ``(a, b, lo,
        hi)``: edges ``[a, b)`` and rows ``[lo, hi)`` of a run of
        consecutive live columns with at most :data:`PASS_EDGES` edges.
        A pass holds whole columns, so each row's terms are still added
        in stored order by one ``bincount``.  Finished columns' edges
        stay in place, outside every pass, and their dangling terms are
        dropped."""
        passes = []
        for j in alive.nonzero()[0].tolist():
            a, b, lo, hi = self.spans[j]
            if (
                passes and passes[-1][1] == a
                and b - passes[-1][0] <= PASS_EDGES
            ):
                passes[-1] = (passes[-1][0], b, passes[-1][2], hi)
            else:
                passes.append((a, b, lo, hi))
        self.passes = passes
        self.dangling_slices = [
            (j, s) for j, s in self.dangling_slices if alive[j]
        ]

    def column_sums(self, values: np.ndarray, columns) -> np.ndarray:
        """The totals of ``values`` over each of ``columns`` (positions),
        each summed over its zero-padded buffer (the bits of a sum over
        its whole vertex space)."""
        resid = self.resid
        resid[self.pad_pos] = values
        totals = np.zeros(self.k.size, dtype=np.float64)
        for j in columns:
            totals[j] = np.add.reduce(resid[self.pad_slices[j]])
        return totals


def _join(parts: List[np.ndarray], offsets=None) -> np.ndarray:
    """``parts`` end to end plus ``offsets``; a lone part (whose offset
    is 0) is used as it is, so a one-window solve holds no second copy
    of its edges."""
    if len(parts) == 1:
        return parts[0]
    out = np.concatenate(parts)
    if offsets is not None:
        out += offsets
    return out


def _power_iterate(
    views: Sequence[WindowView],
    config: PagerankConfig,
    x0: Sequence[Optional[np.ndarray]],
    workspace: Optional[Workspace],
    out_weights: Sequence[np.ndarray],
    scales: Sequence[float],
    base: float,
    weights: Optional[Sequence[np.ndarray]] = None,
    normalized: bool = False,
) -> LockstepResult:
    """The lockstep power iteration of every window solve.

    Column j steps the affine pull

        y = scales[j] * A_j^T (x / out_weights[j]) + dangling + base / |V_j|

    — PageRank passes ``scale = 1 - alpha`` and ``base = alpha``, Katz its
    clamped attenuation, its base and unit out-weights (so its dangling
    set is empty).  ``out_weights[j]`` is the window-local source weight
    vector (``(|V_j|,)``: window out-degree or out-strength of each
    vertex of ``views[j].active_idx``), zero exactly at dangling
    vertices; ``weights[j]`` the optional per-edge
    multiplicities, aligned with the view's active groups.
    ``normalized`` compares unit-mass iterates (a scale-invariant
    residual) and returns the unit-mass fixed points.  ``config``
    supplies the tolerance, iteration cap, strictness and dangling
    policy.  A strict run raises :class:`ConvergenceError` naming the
    first column, in input order, that reached the cap unconverged.
    """
    if not views:
        raise ValidationError("need at least one window view")
    ws = workspace if workspace is not None else Workspace()
    tol = config.tolerance
    # residual prefilter: the segment sums of |y - x| and a column's
    # exact padded sum add the same non-negative terms in different
    # orders, so they differ by at most about k_j * 2**-53 relative --
    # far inside this 1e-6 margin.  A column whose approximation is above
    # the margin cannot pass the exact test, so only the others (and, on
    # the last allowed iteration, every column) pay for the exact sum.
    near = tol * (1.0 + 1e-6)
    columns = [
        _Column(
            v, x, w, s, None if weights is None else weights[j],
            config.dangling == "uniform",
        )
        for j, (v, x, w, s) in enumerate(zip(views, x0, out_weights, scales))
    ]
    level = [c for c in columns if not c.converged]
    if level:
        _iterate(level, _Concat(level, base, ws), config, near, normalized)
    for c in columns:
        if config.strict and not c.converged:
            raise ConvergenceError(
                f"window {c.view.window.index} did not converge in "
                f"{config.max_iterations} iterations "
                f"(residual {c.residual:.3e})"
            )
    return LockstepResult([c.result(normalized) for c in columns])


def _iterate(
    columns: List[_Column],
    state: _Concat,
    config: PagerankConfig,
    near: float,
    normalized: bool,
) -> None:
    """Step ``columns`` (laid out by ``state``) until each converges or
    reaches the cap, leaving every column's final iterate, total,
    iterations, residual and share of the propagation time on it."""
    tol = config.tolerance
    alive = np.ones(len(columns), dtype=bool)
    live = list(range(len(columns)))
    x = state.x
    totals = state.column_sums(x, live) if normalized else None
    k = state.k
    # running sum over steps of (propagate time / live columns): every
    # column starts at step 0, so its share of the joint propagation is
    # the sum's value when it finishes
    shared_propagate = 0.0
    step = 0
    while live and step < config.max_iterations:
        step += 1
        last = step == config.max_iterations
        t_prop = time.perf_counter()
        np.multiply(x, state.inv, out=state.share)
        y = None
        for a, b, lo, hi in state.passes:
            # mode="clip" skips the bounds check: every index is in range
            contrib = state.share.take(
                state.col[a:b], out=state.contrib[: b - a], mode="clip"
            )
            if state.weights is not None:
                contrib *= state.weights[a:b]
            if y is None:
                # the first pass lays out y, zero off its rows
                y = np.bincount(
                    state.rows[a:b], weights=contrib,
                    minlength=state.k_total,
                )
            else:
                y[lo:hi] = np.bincount(
                    state.rows[a:b], weights=contrib, minlength=hi
                )[lo:]
        shared_propagate += (time.perf_counter() - t_prop) / len(live)
        y *= state.scale
        if state.dangling_slices:
            gathered = x.take(state.dangling)
            mass = np.zeros(k.size, dtype=np.float64)
            for j, s in state.dangling_slices:
                mass[j] = np.add.reduce(gathered[s])
            # (scale * mass) / k, as a one-column solve's scalar rounds
            mass *= state.col_scale
            mass /= k
            y += mass.repeat(k)
        y += state.teleport
        if normalized:
            y_totals = state.column_sums(y, live)
            diff = _unit_mass(y, y_totals.repeat(k))
            diff -= _unit_mass(x, totals.repeat(k))
            totals = y_totals
        else:
            diff = np.subtract(y, x)
        np.abs(diff, out=diff)
        x = y
        if last:
            check = live
        else:
            near_cols = np.add.reduceat(diff, state.starts) < near
            check = (near_cols & alive).nonzero()[0].tolist()
            if not check:
                continue
        resid = state.resid
        resid[state.pad_pos] = diff
        finished = False
        for j in check:
            c = columns[j]
            c.residual = float(np.add.reduce(resid[state.pad_slices[j]]))
            c.converged = c.residual < tol
            if c.converged or last:
                lo = int(state.starts[j])
                c.x = y[lo: lo + c.k]
                c.total = float(totals[j]) if normalized else 0.0
                c.iterations = step
                c.propagate_seconds = shared_propagate
                alive[j] = False
                finished = True
        if finished:
            live = alive.nonzero()[0].tolist()
            if live:
                state.plan(alive)
