"""The streaming execution-model driver.

Windows are processed strictly in order.  For each window the driver:

1. advances the STINGER-like structure (batch insert of newly streamed
   events, expiry of events that left the window),
2. snapshots the current simple graph (the structure is update-oriented;
   the PageRank pull needs consolidated adjacency),
3. runs the incremental PageRank warm-started from the previous window.

The phase breakdown (``update`` / ``snapshot`` / ``pagerank``) quantifies
the streaming model's structural costs that Figure 5 compares against
offline and postmortem.

The warm-start chain makes window ``i`` depend on window ``i-1``, so the
model's dependence structure admits only the ``serial`` executor — the
driver rejects any other ``executor`` at construction.  Sinks and
progress work exactly as in the other models: with
``value_sink=RankStoreWriter.write_window`` a streaming run feeds the
serving layer window by window.
"""

from __future__ import annotations

from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec
from repro.models.base import RunResult, WindowResult
from repro.pagerank.config import PagerankConfig
from repro.programs.registry import resolve_program
from repro.runtime.base import record_run_metadata
from repro.runtime.execution import require_executor
from repro.streaming.stinger import StreamingGraph

__all__ = ["StreamingDriver"]


class StreamingDriver:
    """Runs Algorithm 1 under the streaming model."""

    model_name = "streaming"
    supported_executors = ("serial",)

    def __init__(
        self,
        events: TemporalEventSet,
        spec: WindowSpec,
        config: PagerankConfig = PagerankConfig(),
        *,
        executor: str = "serial",
        program=None,
    ) -> None:
        require_executor(executor, self.supported_executors, self.model_name)
        self.events = events
        self.spec = spec
        self.config = config
        self.program = resolve_program(program, config)

    def run(
        self,
        store_values: bool = True,
        *,
        value_sink=None,
        progress=None,
    ) -> RunResult:
        result = RunResult(model=self.model_name)
        n = self.spec.n_windows

        stream = StreamingGraph(self.events)
        prev_values = None
        prev_active = None

        for window in self.spec:
            with result.timings.phase("update"):
                stream.advance_to(window)
            with result.timings.phase("snapshot"):
                graph, active = stream.snapshot()
            with result.timings.phase("pagerank"):
                pr = self.program.solve_graph(
                    graph,
                    active,
                    prev_values=prev_values,
                    prev_active=prev_active,
                )
            result.work.merge(pr.work)
            window_result = WindowResult(
                window_index=window.index,
                values=pr.values if store_values else None,
                iterations=pr.iterations,
                converged=pr.converged,
                residual=pr.residual,
                n_active_vertices=int(active.sum()),
                n_active_edges=graph.n_edges,
            )
            if value_sink is not None:
                value_sink(window.index, pr.values, window_result)
            result.windows.append(window_result)
            if progress is not None:
                progress(window.index + 1, n)
            prev_values = pr.values
            prev_active = active

        record_run_metadata(
            result, executor="serial", n_workers=1, n_windows=n
        )
        result.metadata["program"] = self.program.name
        result.metadata["entries_inserted"] = stream.adjacency.entries_inserted
        result.metadata["entries_expired"] = stream.adjacency.entries_expired
        result.metadata["blocks_allocated"] = stream.adjacency.blocks_allocated
        return result
