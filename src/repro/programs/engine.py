"""The temporal vertex-program engine: warm-start chain solvers.

This is the PageRank-agnostic extraction of the postmortem driver's
per-multi-window-graph loop.  Everything the paper's machinery provides —
lazy window views against one pooled workspace, partial-initialization
chaining (Section 4.2) via the program's ``warm_start`` hook, the SpMM
region schedule (Section 4.4) for programs with a batched kernel, and the
two-batch memory bound — now serves *any* :class:`~repro.programs.base.
VertexProgram`.  With the reference :class:`~repro.programs.pagerank.
PagerankProgram` the output is bitwise-identical to the historic driver.

Two entry points:

* :func:`solve_program_chains` runs the sequential schedule of several
  graphs in lockstep: step j solves window j of every chain, in one
  ``solve_batch`` call when two or more chains of an iterative program
  are live.  Every sum whose rounding depends on its grouping stays a
  per-window reduction (:mod:`repro.pagerank.spmv`), so each window's
  bits equal its chain run alone.
* :func:`solve_program_chain` runs one graph on the region schedule (or,
  for programs without a batched kernel, window by window).

:class:`TaskRecord` (the machine-independent work log the parallel
simulator replays) lives here because the engine is what emits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.graph.multiwindow import MultiWindowGraph
from repro.pagerank.result import WorkStats
from repro.pagerank.workspace import Workspace
from repro.programs.base import VertexProgram

# imports from repro.models are lazy (inside the functions below): the
# model drivers import this engine, so a module-level import here would
# be circular for callers that reach the engine first

__all__ = ["TaskRecord", "solve_program_chain", "solve_program_chains"]


@dataclass
class TaskRecord:
    """Machine-independent record of one solved task (window or SpMM
    batch), consumed by the parallel machine simulator."""

    multiwindow: int
    windows: List[int]
    iterations: int
    structure_nnz: int
    active_edges: int
    active_vertices: int
    used_partial_init: bool
    kernel: str


def _emit_window(
    graph: MultiWindowGraph,
    window: int,
    view,
    local_values: np.ndarray,
    iterations: int,
    converged: bool,
    residual: float,
    out: Dict[int, "WindowResult"],
    store_values: bool,
    n_global_vertices: int,
    value_sink=None,
) -> None:
    from repro.models.base import WindowResult

    values = (
        graph.to_global(local_values, n_global_vertices)
        if store_values or value_sink is not None
        else None
    )
    result = WindowResult(
        window_index=window,
        values=values if store_values else None,
        iterations=iterations,
        converged=converged,
        residual=residual,
        n_active_vertices=view.n_active_vertices,
        n_active_edges=view.n_active_edges,
    )
    if value_sink is not None:
        value_sink(window, values, result)
    out[window] = result


def solve_program_chain(
    graph: MultiWindowGraph,
    mw_index: int,
    program: VertexProgram,
    *,
    partial_init: bool = True,
    kernel: str = "spmv",
    vector_length: int = 16,
    n_global_vertices: int,
    store_values: bool = True,
    value_sink=None,
):
    """Run ``program`` over every window of one multi-window graph.

    A module-level function (not a method) so the ``"shared"`` executor
    can run it in worker processes; within one
    graph the windows form a sequential warm-start chain, so a graph is
    the natural unit of coarse-grained parallelism.

    One kernel :class:`~repro.pagerank.workspace.Workspace` serves the
    whole chain: window views are built lazily against it and the batch
    loop retains only the views and state vectors the *next* batch's
    warm start can reference (a batch's predecessors are, by construction
    of both schedules, in the immediately preceding batch), so peak
    memory stays at two batches of scratch regardless of chain length.

    ``kernel="spmm"`` engages the region schedule only for programs with
    a batched kernel (``supports_batch``); others fall back to the
    sequential schedule — the k-core fixpoint has no batch shape, but a
    ``--program kcore`` run must not have to know that.

    Returns ``(window_results, tasks, work)``.
    """
    from repro.models.schedule import (
        sequential_schedule,
        spmm_region_schedule,
    )

    if (
        kernel == "spmm"
        and graph.n_windows > 1
        and program.supports_batch
    ):
        batches = spmm_region_schedule(
            graph.first_window, graph.n_windows, vector_length
        )
    else:
        batches = sequential_schedule(graph.first_window, graph.n_windows)

    window_results: Dict[int, "WindowResult"] = {}
    local_values: Dict[int, np.ndarray] = {}
    tasks: List[TaskRecord] = []
    work = WorkStats()

    workspace = Workspace()
    views: Dict[int, object] = {}
    chain_state = partial_init and program.iterative

    def view_of(w: int):
        view = views.get(w)
        if view is None:
            view = graph.window_view(w, workspace=workspace)
            views[w] = view
        return view

    for batch in batches:
        batch_views = [view_of(w) for w in batch.windows]
        x0_cols = []
        used_partial = False
        for w, pred in zip(batch.windows, batch.predecessors):
            view = views[w]
            if chain_state and pred is not None and pred in local_values:
                x0_cols.append(
                    program.warm_start(view, views[pred], local_values[pred])
                )
                used_partial = True
            else:
                x0_cols.append(program.init_window(view))

        if len(batch.windows) == 1:
            pr = program.solve_window(
                batch_views[0], x0_cols[0], workspace=workspace
            )
            local_values[batch.windows[0]] = pr.values
            work.merge(pr.work)
            _emit_window(
                graph,
                batch.windows[0],
                batch_views[0],
                pr.values,
                pr.iterations,
                pr.converged,
                pr.residual,
                window_results,
                store_values,
                n_global_vertices,
                value_sink,
            )
            tasks.append(
                TaskRecord(
                    multiwindow=mw_index,
                    windows=list(batch.windows),
                    iterations=pr.iterations,
                    structure_nnz=graph.nnz,
                    active_edges=batch_views[0].n_active_edges,
                    active_vertices=batch_views[0].n_active_vertices,
                    used_partial_init=used_partial,
                    kernel="spmv",
                )
            )
        else:
            X0 = np.stack(x0_cols, axis=1)
            batch_result = program.solve_batch(
                batch_views, X0, workspace=workspace
            )
            work.merge(batch_result.work)
            for j, w in enumerate(batch.windows):
                local_values[w] = batch_result.values[:, j].copy()
                _emit_window(
                    graph,
                    w,
                    batch_views[j],
                    local_values[w],
                    int(batch_result.iterations_per_window[j]),
                    bool(batch_result.converged[j]),
                    float(batch_result.residuals[j]),
                    window_results,
                    store_values,
                    n_global_vertices,
                    value_sink,
                )
            tasks.append(
                TaskRecord(
                    multiwindow=mw_index,
                    windows=list(batch.windows),
                    iterations=int(batch_result.iterations_per_window.max()),
                    structure_nnz=graph.nnz,
                    active_edges=sum(v.n_active_edges for v in batch_views),
                    active_vertices=sum(
                        v.n_active_vertices for v in batch_views
                    ),
                    used_partial_init=used_partial,
                    kernel="spmm",
                )
            )

        # only this batch's windows can seed the next batch's warm
        # start; dropping older views/vectors bounds the chain's footprint
        keep = set(batch.windows)
        views = {w: v for w, v in views.items() if w in keep}
        local_values = {w: v for w, v in local_values.items() if w in keep}
    return window_results, tasks, work


class _Chain:
    """One multi-window graph's warm-start chain inside a lockstep run."""

    __slots__ = ("graph", "mw_index", "prev", "results")

    def __init__(self, graph: MultiWindowGraph, mw_index: int) -> None:
        self.graph = graph
        self.mw_index = mw_index
        #: (view, local values) of the last solved window
        self.prev = None
        #: ``(window_results, tasks, work)``, as solve_program_chain
        self.results = ({}, [], WorkStats())


def solve_program_chains(
    graphs: Sequence[MultiWindowGraph],
    mw_indices: Sequence[int],
    program: VertexProgram,
    *,
    partial_init: bool = True,
    n_global_vertices: int,
    store_values: bool = True,
    value_sink=None,
    chain_done: Optional[Callable[[tuple], None]] = None,
) -> List[tuple]:
    """Run the sequential schedule of several multi-window graphs in
    lockstep: step j solves window j of every chain that has one.

    The chains stay independent — each warm-starts window j from its own
    window j-1 (eq. 4) — so every window's answer is bitwise-identical to
    running the chains one after another with :func:`solve_program_chain`.
    One :class:`~repro.pagerank.workspace.Workspace` serves every solve:
    they run one at a time and each consumes its scratch before the next.

    What the lockstep saves is interpreter time: when two or more chains
    are live, an iterative program solves their windows with one
    ``solve_batch`` call whose seeds are a list (for PageRank, weighted
    PageRank and Katz, one power iteration over the concatenated windows,
    see :mod:`repro.pagerank.spmv`); a single live chain, and every
    window of a non-iterative program, goes through ``solve_window``.
    Windows reach ``value_sink`` interleaved across chains.

    ``chain_done(result)`` is called as each chain finishes, with the
    ``(window_results, tasks, work)`` triple :func:`solve_program_chain`
    returns; the triples are also returned, in input order.
    """
    chains = [_Chain(g, mw) for g, mw in zip(graphs, mw_indices)]
    chain_state = partial_init and program.iterative
    workspace = Workspace()
    for j in range(max((g.n_windows for g in graphs), default=0)):
        live = [c for c in chains if j < c.graph.n_windows]
        views, seeds, warm = [], [], []
        for c in live:
            view = c.graph.window_view(
                c.graph.first_window + j, workspace=workspace
            )
            if chain_state and c.prev is not None:
                seeds.append(program.warm_start(view, *c.prev))
                warm.append(True)
            else:
                seeds.append(program.init_window(view))
                warm.append(False)
            views.append(view)
        if len(live) > 1 and program.iterative:
            solved = program.solve_batch(
                views, seeds, workspace=workspace
            ).columns
        else:
            solved = [
                program.solve_window(v, x, workspace=workspace)
                for v, x in zip(views, seeds)
            ]
        for c, view, pr, used_partial in zip(live, views, solved, warm):
            window_results, tasks, work = c.results
            window = c.graph.first_window + j
            work.merge(pr.work)
            _emit_window(
                c.graph, window, view, pr.values, pr.iterations,
                pr.converged, pr.residual, window_results, store_values,
                n_global_vertices, value_sink,
            )
            tasks.append(
                TaskRecord(
                    multiwindow=c.mw_index,
                    windows=[window],
                    iterations=pr.iterations,
                    structure_nnz=c.graph.nnz,
                    active_edges=view.n_active_edges,
                    active_vertices=view.n_active_vertices,
                    used_partial_init=used_partial,
                    kernel="spmv",
                )
            )
            # only window j can seed window j + 1
            c.prev = (view, pr.values)
            if j == c.graph.n_windows - 1:
                c.prev = None
                if chain_done is not None:
                    chain_done(c.results)
    return [c.results for c in chains]
