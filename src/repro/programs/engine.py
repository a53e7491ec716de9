"""The temporal vertex-program engine: one lockstep chain stepper.

This is the PageRank-agnostic extraction of the postmortem driver's
per-multi-window-graph loop.  Everything the paper's machinery provides —
lazy window views, partial-initialization chaining (Section 4.2) via the
program's ``warm_start`` hook, the SpMM region schedule (Section 4.4) and
the two-step memory bound — serves *any* :class:`~repro.programs.base.
VertexProgram`.

A *chain* is a contiguous run of one multi-window graph's windows, each
warm-started from its predecessor (eq. 4): each region of the graph's
region schedule (:func:`repro.models.schedule.regions`), whose width the
caller picks per graph — width 1 is the whole graph, the plain SpMV
chain.  :func:`solve_program_chains` steps every chain of several graphs
in lockstep: step j solves window j of every chain that has one.  The
step's live windows are cut into consecutive runs of at most
:data:`STEP_EVENTS` active edges, and each run of two or more windows of
an iterative program is one ``solve_batch`` call; a lone window, or one
larger than the cap, goes through ``solve_window``.  Regions of one graph
and chains of different graphs are the same thing to the loop
(:mod:`repro.pagerank.spmv`), and every sum whose rounding depends on
its grouping stays a per-window reduction, so each window's bits equal
its own single-window solve given the seed its schedule hands it,
however the step is cut.

:class:`TaskRecord` (the machine-independent work log the parallel
simulator replays) lives here because the engine is what emits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.multiwindow import MultiWindowGraph
from repro.pagerank.result import WorkStats
from repro.pagerank.workspace import Workspace
from repro.programs.base import VertexProgram

# imports from repro.models are lazy (inside the functions below): the
# model drivers import this engine, so a module-level import here would
# be circular for callers that reach the engine first

__all__ = ["STEP_EVENTS", "TaskRecord", "solve_program_chains"]

#: active edges one lockstep solve call may hold.  Batching pays where
#: the interpreter's fixed cost per call, not edge work, sets the pace;
#: steps that join several large windows ran slower than one window at a
#: time.  Measured in-process on the perfbench inputs (seed 0):
#: serve-zipf's steps (6 windows of 176-1,278 events) fit whole, and a
#: cap of 2**11 that splits them was 15% slower; youtube's windows
#: (35k-51k events) each run alone, which took its serial SpMV run from
#: 0.379 s to 0.349 s.  The postmortem driver sizes each graph's region
#: count from the same constant.
STEP_EVENTS = 1 << 14


@dataclass
class TaskRecord:
    """Machine-independent record of one solved task — the windows one
    graph solved at one lockstep step (several for an SpMM batch) —
    consumed by the parallel machine simulator."""

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


class _Graph:
    """One multi-window graph of a lockstep run and what it reports:
    ``(window_results, tasks, work, solve_calls)``, where a solve call
    counts at the graph of its first window."""

    __slots__ = (
        "graph", "mw_index", "n_steps", "window_results", "tasks", "work",
        "solve_calls",
    )

    def __init__(
        self, graph: MultiWindowGraph, mw_index: int, n_steps: int
    ) -> None:
        self.graph = graph
        self.mw_index = mw_index
        self.n_steps = n_steps
        self.window_results: Dict[int, "WindowResult"] = {}
        self.tasks: List[TaskRecord] = []
        self.work = WorkStats()
        self.solve_calls = 0

    @property
    def results(self) -> tuple:
        return self.window_results, self.tasks, self.work, self.solve_calls


class _Chain:
    """One warm-start chain: windows ``[start, start + size)`` of a
    graph."""

    __slots__ = ("owner", "start", "size", "prev")

    def __init__(self, owner: _Graph, start: int, size: int) -> None:
        self.owner = owner
        self.start = start
        self.size = size
        #: (view, local values) of the last solved window
        self.prev = None


def _runs(views) -> List[Tuple[int, int]]:
    """Cut a step's views into consecutive runs ``[a, b)`` whose active
    edges add up to at most :data:`STEP_EVENTS`; a view with more is a
    run of its own."""
    runs: List[Tuple[int, int]] = []
    held = 0
    for i, view in enumerate(views):
        edges = view.n_active_edges
        if runs and held + edges <= STEP_EVENTS:
            runs[-1] = (runs[-1][0], i + 1)
            held += edges
        else:
            runs.append((i, i + 1))
            held = edges
    return runs


def solve_program_chains(
    graphs: Sequence[MultiWindowGraph],
    mw_indices: Sequence[int],
    program: VertexProgram,
    *,
    widths: Sequence[int],
    partial_init: bool = True,
    n_global_vertices: int,
    store_values: bool = True,
    value_sink=None,
    chain_done: Optional[Callable[[tuple], None]] = None,
) -> List[tuple]:
    """Run every window of several multi-window graphs, stepping their
    chains in lockstep: step j solves window j of every chain that has
    one.

    Graph g is ``widths[g]`` chains — the regions of its
    region schedule, so step b is the schedule's batch b; width 1 is the
    plain SpMV chain, and a non-iterative program always runs width 1.
    The chains stay independent (each warm-starts from its own previous
    window), so every window's answer is bitwise-identical to solving it
    alone from the seed its chain hands it.  A step's live windows are
    cut into consecutive runs of at most :data:`STEP_EVENTS` active
    edges; an iterative program solves a run of two or more with one
    ``solve_batch`` call whose seeds are a list (for PageRank, weighted
    PageRank and Katz, one power iteration over the concatenated
    windows, see :mod:`repro.pagerank.spmv`).  A lone window, a window
    above the cap, and every window of a non-iterative program go
    through ``solve_window``.  One
    :class:`~repro.pagerank.workspace.Workspace` serves every solve.

    A chain keeps only the view and values of its last window — all the
    next step's warm start can reference — so live memory is two steps'
    windows regardless of chain length, and of the previous step only
    its vertex-sized part: a view builds its window-local edges as it is
    constructed and hands them to its solve.  Windows reach
    ``value_sink`` in step order, interleaved across chains.  Each graph
    logs one :class:`TaskRecord` per step it takes part in.

    ``chain_done(result)`` is called as each graph finishes, with its
    ``(window_results, tasks, work, solve_calls)`` tuple; the tuples are
    also returned, in input order.  ``solve_calls`` counts the solve
    calls whose first window is the graph's, so they sum to the run's.
    """
    from repro.models.schedule import regions

    owners, chains = [], []
    for graph, mw, width in zip(graphs, mw_indices, widths):
        spans = regions(
            graph.first_window, graph.n_windows,
            width if program.iterative else 1,
        )
        # regions are longest first
        owner = _Graph(graph, mw, spans[0][1])
        owners.append(owner)
        chains.extend(_Chain(owner, start, size) for start, size in spans)
    chain_state = partial_init and program.iterative
    workspace = Workspace()
    for j in range(max((c.size for c in chains), default=0)):
        live = [c for c in chains if j < c.size]
        views, seeds, warm = [], [], []
        for c in live:
            view = c.owner.graph.window_view(c.start + j)
            if chain_state and c.prev is not None:
                seeds.append(program.warm_start(view, *c.prev))
                warm.append(True)
            else:
                seeds.append(program.init_window(view))
                warm.append(False)
            views.append(view)
        runs = (
            _runs(views) if program.iterative
            else [(i, i + 1) for i in range(len(views))]
        )
        solved = []
        for a, b in runs:
            if b - a > 1:
                solved.extend(program.solve_batch(
                    views[a:b], seeds[a:b], workspace=workspace
                ).columns)
            else:
                solved.append(program.solve_window(
                    views[a], seeds[a], workspace=workspace
                ))
            live[a].owner.solve_calls += 1
        # a graph's chains are consecutive in ``live``: its first window
        # of the step opens the step's record, the others join it
        last = None
        for c, view, pr, used in zip(live, views, solved, warm):
            owner = c.owner
            window = c.start + j
            owner.work.merge(pr.work)
            _emit_window(
                owner.graph, window, view, pr.values, pr.iterations,
                pr.converged, pr.residual, owner.window_results,
                store_values, n_global_vertices, value_sink,
            )
            # only window j can seed window j + 1; the view's packed
            # edges went to its solve, so a chain holds Θ(|V_w|) per view
            c.prev = (
                (view, pr.values) if chain_state and j + 1 < c.size
                else None
            )
            if owner is last:
                task = owner.tasks[-1]
                task.windows.append(window)
                task.iterations = max(task.iterations, pr.iterations)
                task.active_edges += view.n_active_edges
                task.active_vertices += view.n_active_vertices
                task.used_partial_init |= used
                task.kernel = "spmm"
            else:
                owner.tasks.append(TaskRecord(
                    multiwindow=owner.mw_index,
                    windows=[window],
                    iterations=pr.iterations,
                    structure_nnz=owner.graph.nnz,
                    active_edges=view.n_active_edges,
                    active_vertices=view.n_active_vertices,
                    used_partial_init=used,
                    kernel="spmv",
                ))
                last = owner
        if chain_done is not None:
            for owner in owners:
                if owner.n_steps == j + 1:
                    chain_done(owner.results)
    return [owner.results for owner in owners]
