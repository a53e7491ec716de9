"""The offline execution model (paper Section 3.3.1).

For every window, independently: slice the event log, build a fresh simple
graph (CSR), and run PageRank from a cold uniform start.  There is no state
shared between windows, which is what the paper means by the offline model
being "embarrassingly parallel" — and what makes it pay the full
graph-construction cost per window, the overhead the postmortem
representation eliminates.

Because windows are fully independent, this is the one model whose every
window is its own task.  The run states its work once — one window range
per window and one module-level worker — and
:func:`repro.runtime.execution.map_tasks` fans it out under any runtime
executor (``serial``, ``thread``, or ``shared``, where the event log's
three columns are published once into a shared-memory arena, workers
attach zero-copy and sinks run in the parent via the drain thread).

Every executor solves each window with the identical code path, so results
are bitwise-identical to the serial run — the parity tests assert this.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.events.event_set import TemporalEventSet
from repro.events.windows import Window, WindowSpec
from repro.graph.csr import build_csr_from_edges
from repro.models.base import RunResult, WindowResult
from repro.pagerank.config import PagerankConfig
from repro.programs.base import VertexProgram
from repro.programs.registry import resolve_program
from repro.runtime.base import record_run_metadata
from repro.runtime.context import NULL_SCOPE, DriverContext, RunScope
from repro.runtime.execution import EXECUTORS, map_tasks, require_executor
from repro.runtime.sinks import chain_sinks

__all__ = ["OfflineDriver"]


def _solve_one_window(
    events: TemporalEventSet,
    window: Window,
    config: PagerankConfig,
    scope,
    store_values: bool,
    sink,
    program: VertexProgram,
) -> WindowResult:
    """Build-and-solve one window; the single code path every executor
    shares (which is what makes the parallel runs bitwise-identical).

    The solve goes through the program's materialized surface; with the
    reference PageRank program that is exactly the historic
    ``incremental_pagerank`` cold-start call."""
    with scope.phase("build"):
        src, dst = events.edges_between(window.t_start, window.t_end)
        graph = build_csr_from_edges(src, dst, events.n_vertices, dedup=True)
        active = np.zeros(events.n_vertices, dtype=bool)
        active[src] = True
        active[dst] = True

    with scope.phase("pagerank"):
        pr = program.solve_graph(graph, active)

    scope.add_work(pr.work)
    result = WindowResult(
        window_index=window.index,
        values=pr.values if store_values else None,
        iterations=pr.iterations,
        converged=pr.converged,
        residual=pr.residual,
        n_active_vertices=int(active.sum()),
        n_active_edges=graph.n_edges,
    )
    if sink is not None:
        sink(window.index, pr.values, result)
    return result


def _solve_window_range(
    events: TemporalEventSet,
    window_range: Tuple[int, int],
    index: int,
    sink,
    spec: WindowSpec,
    config: PagerankConfig,
    store_values: bool,
    program: VertexProgram,
):
    """The task-map worker: build-and-solve windows ``[lo, hi)``.

    ``events`` is the driver's own event set in-process, or the set over
    a ``shared`` worker's attached columns (wrapped once per arena, not
    per task).  Returns ``(window_results, timings, work)``; each vector
    also goes to ``sink`` when one is configured.
    """
    lo, hi = window_range
    scope = RunScope()
    results = [
        _solve_one_window(
            events, spec.window(i), config, scope, store_values, sink,
            program,
        )
        for i in range(lo, hi)
    ]
    return results, scope.timings, scope.work


class OfflineDriver:
    """Runs Algorithm 1 by rebuilding each window's graph from scratch."""

    model_name = "offline"
    supported_executors = EXECUTORS

    def __init__(
        self,
        events: TemporalEventSet,
        spec: WindowSpec,
        config: PagerankConfig = PagerankConfig(),
        *,
        context: Optional[DriverContext] = None,
        program=None,
    ) -> None:
        self.events = events
        self.spec = spec
        self.config = config
        self.context = context if context is not None else DriverContext()
        require_executor(
            self.context.executor, self.supported_executors, self.model_name
        )
        if program is None:
            program = self.context.program
        self.program = resolve_program(program, config)

    # ------------------------------------------------------------------
    def run_window(
        self, window: Window, scope=NULL_SCOPE, store_values: bool = True
    ) -> WindowResult:
        """Build-and-solve one window.

        ``scope`` is a :class:`~repro.runtime.context.RunScope`
        accumulating phase timings and work counters; the default
        :data:`~repro.runtime.context.NULL_SCOPE` measures nothing.
        """
        return _solve_one_window(
            self.events, window, self.config, scope, store_values, None,
            self.program,
        )

    def run(
        self,
        store_values: bool = True,
        *,
        value_sink=None,
        progress=None,
    ) -> RunResult:
        """Solve every window under the context's executor.

        ``value_sink(window_index, values, meta)`` receives each window's
        global rank vector as it is solved (chained after any context
        sink); with ``store_values=False`` a run can stream every vector
        to a rank store while holding only one chunk in memory.
        """
        ctx = self.context
        sink = chain_sinks(ctx.value_sink, value_sink)
        progress = progress if progress is not None else ctx.progress
        result = RunResult(model=self.model_name)
        n = self.spec.n_windows
        ctx.emit("run.start", model=self.model_name, executor=ctx.executor,
                 n_windows=n)

        def consume(task_result) -> None:
            wrs, timings, work = task_result
            result.windows.extend(wrs)
            # per-task build/pagerank phases sum CPU time across workers —
            # the same breakdown a serial run reports
            result.timings.merge(timings)
            result.work.merge(work)
            for wr in wrs:
                ctx.emit("window.done", window=wr.window_index)
            if progress is not None:
                progress(len(result.windows), n)

        stats = map_tasks(
            ctx.executor,
            self.events,
            [(i, i + 1) for i in range(n)],
            _solve_window_range,
            args=(self.spec, self.config, store_values, self.program),
            consume=consume,
            n_workers=ctx.n_workers,
            value_sink=sink,
        )
        if stats:
            result.metadata["shared_arena"] = stats
        record_run_metadata(
            result, executor=ctx.executor, n_workers=ctx.n_workers,
            n_windows=n,
        )
        result.metadata["program"] = self.program.name
        ctx.emit("run.done", model=self.model_name, n_windows=n)
        return result
