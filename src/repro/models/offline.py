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
executor (``serial``, or ``shared``, where the event log's three
columns are published once into a shared-memory arena, workers
attach zero-copy and sinks run in the parent via the drain thread).

Every executor solves each window with the identical code path, so results
are bitwise-identical to the serial run — the parity tests assert this.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet
from repro.events.windows import Window, WindowSpec
from repro.graph.csr import build_csr_from_edges
from repro.models.base import RunResult, WindowResult
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import WorkStats
from repro.programs.base import VertexProgram
from repro.programs.registry import resolve_program
from repro.runtime.base import record_run_metadata
from repro.runtime.execution import EXECUTORS, map_tasks, require_executor
from repro.utils.timer import TimingAccumulator

__all__ = ["OfflineDriver"]


def _solve_one_window(
    events: TemporalEventSet,
    window: Window,
    config: PagerankConfig,
    timings: TimingAccumulator,
    work: WorkStats,
    store_values: bool,
    sink,
    program: VertexProgram,
) -> WindowResult:
    """Build-and-solve one window; the single code path every executor
    shares (which is what makes the parallel runs bitwise-identical).

    The solve goes through the program's materialized surface; with the
    reference PageRank program that is exactly the historic
    ``incremental_pagerank`` cold-start call."""
    with timings.phase("build"):
        src, dst = events.edges_between(window.t_start, window.t_end)
        graph = build_csr_from_edges(src, dst, events.n_vertices, dedup=True)
        active = np.zeros(events.n_vertices, dtype=bool)
        active[src] = True
        active[dst] = True

    with timings.phase("pagerank"):
        pr = program.solve_graph(graph, active)

    work.merge(pr.work)
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
    timings, work = TimingAccumulator(), WorkStats()
    results = [
        _solve_one_window(
            events, spec.window(i), config, timings, work, store_values,
            sink, program,
        )
        for i in range(lo, hi)
    ]
    return results, timings, work


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
        executor: str = "serial",
        n_workers: int = 4,
        program=None,
    ) -> None:
        self.events = events
        self.spec = spec
        self.config = config
        self.executor = require_executor(
            executor, self.supported_executors, self.model_name
        )
        if n_workers <= 0:
            raise ValidationError("n_workers must be > 0")
        self.n_workers = n_workers
        self.program = resolve_program(program, config)

    # ------------------------------------------------------------------
    def run(
        self,
        store_values: bool = True,
        *,
        value_sink=None,
        progress=None,
    ) -> RunResult:
        """Solve every window under the driver's executor.

        ``value_sink(window_index, values, meta)`` receives each window's
        global rank vector as it is solved; with ``store_values=False`` a
        run can stream every vector to a rank store while holding only
        one chunk in memory.
        """
        result = RunResult(model=self.model_name)
        n = self.spec.n_windows

        def consume(task_result) -> None:
            wrs, timings, work = task_result
            result.windows.extend(wrs)
            # per-task build/pagerank phases sum CPU time across workers —
            # the same breakdown a serial run reports
            result.timings.merge(timings)
            result.work.merge(work)
            if progress is not None:
                progress(len(result.windows), n)

        stats = map_tasks(
            self.executor,
            self.events,
            [(i, i + 1) for i in range(n)],
            _solve_window_range,
            args=(self.spec, self.config, store_values, self.program),
            consume=consume,
            n_workers=self.n_workers,
            value_sink=value_sink,
        )
        if stats:
            result.metadata["shared_arena"] = stats
        record_run_metadata(
            result, executor=self.executor, n_workers=self.n_workers,
            n_windows=n,
        )
        result.metadata["program"] = self.program.name
        return result
