"""The postmortem execution model — the paper's contribution.

The driver partitions the window sequence into multi-window graphs
**once** (Section 4.1), then solves every window with:

* partial initialization across consecutive windows (Section 4.2),
* the SpMV schedule, or the SpMM-inspired strided region schedule
  (Section 4.4) whose regions step through one batched loop,
* optionally, parallelism over multi-window graphs: each graph is one task
  whose windows chain through partial initialization inside one worker
  (Section 4.3.1's scheduling constraint).

The partition holds only a build recipe per graph
(:meth:`~repro.graph.multiwindow.LazyMultiWindowPartition.graph_payload`);
the run hands those recipes and one module-level worker to
:func:`repro.runtime.execution.map_tasks`, and whichever executor runs a
task compacts its graphs, solves their chains and drops the graphs.

A task is a *lockstep group*: consecutive graphs whose stored events
(known from the recipes before anything is built) add up to at most
:data:`LOCKSTEP_EVENTS`.  Every task runs one chain stepper
(:func:`repro.programs.engine.solve_program_chains`): each graph is a
warm-start chain, or, under ``kernel="spmm"``, as many chains as its
*width* (the regions of its region schedule); step j solves window j of
every chain in the task, in batched power iterations of at most
:data:`~repro.programs.engine.STEP_EVENTS` active edges each, and every
window's bits equal its single-window solve from the seed its chain
hands it.  The driver picks each graph's width before anything is
built, from its windows' event counts (:func:`region_width`):
``vector_length`` is an upper bound, and a graph whose largest window
fills a step alone gets width 1, the plain SpMV chain.
A graph larger than the bound is a group of its own.  Groups of several
graphs form only on the ``serial`` executor, for iterative programs on
the sequential (SpMV) schedule; the ``shared`` executor, the SpMM region
schedule and non-iterative programs send one graph per task.  Live
graphs are therefore bounded by one group on ``serial`` and by the
number of concurrent workers on ``shared``, on in-RAM and ``.tcsr``
input alike, for every partition method.

Since the vertex-program refactor the per-graph chain loop lives in
:mod:`repro.programs.engine`; this driver binds it to a
:class:`~repro.programs.base.VertexProgram` (PageRank by default — the
reference instance, bitwise-identical to the historic driver) and keeps
the model-level concerns: partitioning, executors, sinks, and the
machine-independent *task log* (per-window and per-batch work counters)
that the discrete-event machine simulator
(:mod:`repro.parallel.simulator`) replays to estimate multicore speedups —
the documented substitution for the paper's 48-core TBB runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec
from repro.graph.balanced import window_event_counts
from repro.graph.multiwindow import (
    LazyMultiWindowPartition,
    graph_from_payload,
)
from repro.models.base import RunResult, WindowResult
from repro.pagerank.config import PagerankConfig
from repro.programs import engine
from repro.programs.base import VertexProgram
from repro.programs.engine import TaskRecord, solve_program_chains
from repro.programs.registry import resolve_program
from repro.runtime.base import record_run_metadata
from repro.runtime.execution import EXECUTORS, map_tasks

__all__ = [
    "LOCKSTEP_EVENTS",
    "PostmortemOptions",
    "PostmortemDriver",
    "region_width",
]

_KERNELS = ("spmv", "spmm")

#: stored events one lockstep group may hold (the graphs of a group are
#: built and iterated together).  Lockstep pays where windows are small
#: and the interpreter, not edge work, sets the pace; with big windows a
#: big group only adds memory and cache misses.  Measured on
#: ``benchmarks/bench_outofcore.py``'s 1M-event run probe (8 graphs,
#: 47k-131k stored events each): one group of all 8 (a 2**20 bound)
#: solved 16-20% slower than one graph at a time and raised the peak by
#: 35 MB; at 2**18 (groups of 2-4 graphs) it is as fast as one at a time
#: and 4 MB above it.  The serve-zipf input (6 graphs, 121,824 stored
#: events) is one group.  At the 10M-event scale every graph is larger
#: than the bound and runs alone.
LOCKSTEP_EVENTS = 1 << 18


def region_width(
    max_window_events: int, n_windows: int, vector_length: int
) -> int:
    """The region count of a graph on the SpMM schedule: as many of its
    largest window as one step of :data:`~repro.programs.engine.
    STEP_EVENTS` edges holds, clamped to ``[1, min(vector_length,
    n_windows)]``.  A window's event count bounds its active edges, so
    a step of region heads stays under the cap; width 1 is the plain
    SpMV chain.

    >>> region_width(40_000, 18, 16), region_width(1_000, 120, 16)
    (1, 16)
    """
    return max(1, min(
        engine.STEP_EVENTS // max(max_window_events, 1),
        vector_length, n_windows,
    ))


@dataclass(frozen=True)
class PostmortemOptions:
    """Tuning knobs of the postmortem model.

    Attributes
    ----------
    n_multiwindows:
        Number of multi-window graphs Y (paper default in Figure 5: 6).
    partial_init:
        Warm-start each window from its predecessor (within the same
        multi-window graph).
    kernel:
        ``"spmv"`` (each graph's windows in order) or ``"spmm"`` (the
        region schedule: each graph's windows in contiguous regions
        stepped together; non-iterative programs keep the sequential
        order).
    vector_length:
        The most SpMM regions per graph (the paper uses 8 or 16).  The
        run chooses each graph's width from counts, as
        :func:`region_width` of its largest window's event count, so
        graphs of large windows run width 1 (the SpMV chain); the
        widths chosen are in ``RunResult.metadata["lockstep"]``.
    executor:
        ``"serial"`` or ``"shared"`` (process pool over a shared-memory
        arena: the event columns are published once via
        :mod:`repro.parallel.shared_arena`, each task ships only its
        graph's build recipe, and ``value_sink`` callbacks run in the
        parent, fed by a result shuttle).  Results are bitwise-identical
        across executors.
    n_threads:
        Worker count for the ``"shared"`` executor.
    partition_method:
        ``"uniform"`` (the paper's equal-window-count split),
        ``"minimax"`` or ``"greedy"`` (the work-balanced splits of
        :mod:`repro.graph.balanced` — the paper's Section 7 open
        question).
    weighted:
        Weight window edges by their event multiplicity
        (:mod:`repro.pagerank.weighted`); requires the SpMV kernel and
        the PageRank program.
    """

    n_multiwindows: int = 6
    partial_init: bool = True
    kernel: str = "spmv"
    vector_length: int = 16
    executor: str = "serial"
    n_threads: int = 4
    partition_method: str = "uniform"
    weighted: bool = False

    def __post_init__(self) -> None:
        if self.n_multiwindows <= 0:
            raise ValidationError("n_multiwindows must be > 0")
        if self.kernel not in _KERNELS:
            raise ValidationError(f"kernel must be one of {_KERNELS}")
        if self.vector_length <= 0:
            raise ValidationError("vector_length must be > 0")
        if self.executor not in EXECUTORS:
            raise ValidationError(f"executor must be one of {EXECUTORS}")
        if self.n_threads <= 0:
            raise ValidationError("n_threads must be > 0")
        if self.partition_method not in ("uniform", "minimax", "greedy"):
            raise ValidationError(
                "partition_method must be 'uniform', 'minimax' or 'greedy'"
            )
        if self.weighted and self.kernel != "spmv":
            raise ValidationError(
                "weighted PageRank requires kernel='spmv'"
            )


class PostmortemDriver:
    """Runs Algorithm 1 under the postmortem model."""

    model_name = "postmortem"
    supported_executors = EXECUTORS

    def __init__(
        self,
        events: TemporalEventSet,
        spec: WindowSpec,
        config: PagerankConfig = PagerankConfig(),
        options: PostmortemOptions = PostmortemOptions(),
        *,
        program: Union[None, str, VertexProgram] = None,
    ) -> None:
        self.events = events
        self.spec = spec
        self.config = config
        self.options = options
        self.program = resolve_program(
            program, config, weighted=options.weighted
        )
        self._partition: Optional[LazyMultiWindowPartition] = None

    # ------------------------------------------------------------------
    @property
    def partition(self) -> LazyMultiWindowPartition:
        """The multi-window partition (computed once; graphs are built
        per task)."""
        if self._partition is None:
            if self.options.partition_method == "uniform":
                self._partition = LazyMultiWindowPartition(
                    self.events, self.spec, self.options.n_multiwindows
                )
            else:
                from repro.graph.balanced import BalancedMultiWindowPartition

                self._partition = BalancedMultiWindowPartition(
                    self.events,
                    self.spec,
                    self.options.n_multiwindows,
                    method=self.options.partition_method,
                )
        return self._partition

    def run(
        self,
        store_values: bool = True,
        *,
        value_sink=None,
        progress=None,
    ) -> RunResult:
        """Solve every window; ``store_values=False`` keeps only per-window
        summaries (benchmark mode).

        ``value_sink`` is an optional callback ``sink(window_index, values,
        meta)`` invoked with each window's *global* value vector the moment
        it is solved — e.g. ``RankStoreWriter.write_window`` to stream a
        servable rank store to disk.  Combined with ``store_values=False``
        a run persists every vector while holding only one in memory at a
        time.  Under ``"shared"`` the arena's result shuttle invokes it
        from a drain thread in the parent process.

        ``progress(graphs_done, graphs_total)`` reports at multi-window
        graph granularity — the model's unit of parallel work.

        ``metadata["lockstep"]`` records how the run was stepped: the
        step cap ``step_events``, each graph's chosen ``widths`` and the
        ``max_window_events`` they came from, and the ``solve_calls``
        the cap produced.
        """
        result = RunResult(model=self.model_name)
        with result.timings.phase("build"):
            partition = self.partition
        n_graphs = len(partition)

        task_log: List[TaskRecord] = []
        window_results: Dict[int, WindowResult] = {}
        done = solve_calls = 0

        def chain_done(chain_result) -> None:
            nonlocal done, solve_calls
            wrs, tasks, work, calls = chain_result
            window_results.update(wrs)
            task_log.extend(tasks)
            result.work.merge(work)
            solve_calls += calls
            done += 1
            if progress is not None:
                progress(done, n_graphs)

        def consume(group_result) -> None:
            for chain_result in group_result:
                chain_done(chain_result)

        groups = self._groups(partition)
        widths, peaks = self._widths(partition)
        # in-process the worker reports each chain as it finishes; a
        # shared worker's chains come back with its task
        in_process = self.options.executor == "serial" or len(groups) < 2
        with result.timings.phase("pagerank"):
            stats = map_tasks(
                self.options.executor,
                self.events,
                [
                    tuple(
                        (g, partition.graph_payload(g), widths[g])
                        for g in group
                    )
                    for group in groups
                ],
                _solve_group_task,
                args=(
                    self.options,
                    self.events.n_vertices,
                    store_values,
                    self.program,
                    chain_done if in_process else None,
                ),
                consume=consume,
                n_workers=self.options.n_threads,
                value_sink=value_sink,
                source=partition,
            )
        if stats:
            result.metadata["shared_arena"] = stats
        # chains report as they finish; the log keeps graph order (a
        # stable sort leaves each chain's windows in order)
        task_log.sort(key=lambda task: task.multiwindow)

        result.windows = [
            window_results[i] for i in range(self.spec.n_windows)
        ]
        record_run_metadata(
            result,
            executor=self.options.executor,
            n_workers=self.options.n_threads,
            n_windows=self.spec.n_windows,
        )
        result.metadata["n_multiwindows"] = n_graphs
        result.metadata["replication_factor"] = partition.replication_factor
        result.metadata["program"] = self.program.name
        result.metadata["task_log"] = task_log
        result.metadata["lockstep"] = {
            "step_events": engine.STEP_EVENTS,
            "widths": widths,
            "max_window_events": peaks,
            "solve_calls": solve_calls,
        }
        result.metadata["options"] = self.options
        return result

    def _groups(self, partition) -> List[List[int]]:
        """The run's tasks as lists of graph indices: consecutive graphs
        up to :data:`LOCKSTEP_EVENTS` stored events per group when the
        chains can run in lockstep (the serial executor, an iterative
        program on the sequential schedule), else one graph per task."""
        n_graphs = len(partition)
        if self.options.executor != "serial" or not _lockstep(
            self.program, self.options
        ):
            return [[g] for g in range(n_graphs)]
        groups: List[List[int]] = []
        held = 0
        for g in range(n_graphs):
            _, _, lo, hi = partition.graph_payload(g)
            if groups and held + (hi - lo) <= LOCKSTEP_EVENTS:
                groups[-1].append(g)
                held += hi - lo
            else:
                groups.append([g])
                held = hi - lo
        return groups

    def _widths(self, partition) -> Tuple[List[int], List[int]]:
        """Each graph's region count and the largest event count of its
        windows, from the time index before any graph is built: width
        1 unless an iterative program runs the SpMM schedule, else
        :func:`region_width`."""
        counts = window_event_counts(self.events, self.spec)
        spmm = self.options.kernel == "spmm" and self.program.iterative
        widths, peaks = [], []
        for g in range(len(partition)):
            sub_spec, first, _, _ = partition.graph_payload(g)
            n = sub_spec.n_windows
            peak = int(counts[first:first + n].max(initial=0))
            peaks.append(peak)
            widths.append(
                region_width(peak, n, self.options.vector_length)
                if spmm else 1
            )
        return widths, peaks


def _lockstep(program: VertexProgram, options: PostmortemOptions) -> bool:
    """Whether several graphs' chains may share a task: an iterative
    program on the sequential schedule."""
    return program.iterative and options.kernel != "spmm"


def _solve_group_task(
    source,
    payload: tuple,
    task_index: int,
    sink,
    options: PostmortemOptions,
    n_global_vertices: int,
    store_values: bool,
    program: VertexProgram,
    chain_done=None,
):
    """The task-map worker: build one lockstep group's multi-window
    graphs, solve their chains, drop the graphs.

    ``payload`` holds each graph's index, recipe and region count.  In-process
    ``source`` is the driver's partition, so a graph comes from
    :meth:`~repro.graph.multiwindow.LazyMultiWindowPartition.graph_at`;
    in a ``shared`` worker it is the event set over the attached columns
    and the recipe names the slice to compact.  Either way the graph is
    identical.  Returns the graphs' ``(window_results, tasks, work,
    solve_calls)`` tuples, or reports each to ``chain_done`` as it
    finishes (then returning none).
    """
    indices = [g for g, _, _ in payload]
    if isinstance(source, LazyMultiWindowPartition):
        graphs = [source.graph_at(g) for g in indices]
    else:
        graphs = [
            graph_from_payload(source, recipe) for _, recipe, _ in payload
        ]
    results = solve_program_chains(
        graphs,
        indices,
        program,
        widths=[width for _, _, width in payload],
        partial_init=options.partial_init,
        n_global_vertices=n_global_vertices,
        store_values=store_values,
        value_sink=sink,
        chain_done=chain_done,
    )
    return [] if chain_done is not None else results
