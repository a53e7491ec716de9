"""The parallel-execution substrate (paper Section 4.3).

The paper runs on 48 real cores under Intel TBB's work-stealing scheduler.
CPython's GIL makes that unmeasurable directly, so this package provides
both a real process backend and a simulated machine (the drivers' serial
fan-out lives in :func:`repro.runtime.execution.map_tasks`):

* **A shared-memory process backend** (:mod:`repro.parallel.shared_arena`)
  — the event log's columns published once into a ``multiprocessing``
  shared-memory arena (or mapped straight from a ``.tcsr`` file); worker
  processes attach by segment name (no array payload crosses the pickle
  boundary) and window results stream back to the parent through a
  queue-drained shuttle, so ``value_sink`` callbacks work under true
  process parallelism.
* **A simulated machine** (:mod:`repro.parallel.simulator`,
  :mod:`repro.parallel.levels`) — a discrete-event model of a P-core
  work-stealing runtime executing the *same task DAG* (window chunks /
  vertex-range chunks / nested) with task costs calibrated from real
  measured kernel runs (:mod:`repro.parallel.cost_model`).  This is the
  documented substitution that regenerates Figures 7–10.
"""

from repro.parallel.partitioners import (
    Partitioner,
    AUTO,
    SIMPLE,
    STATIC,
    chunk_ranges,
    contiguous_blocks,
)
from repro.parallel.cost_model import (
    CostModel,
    calibrate_cost_model,
    default_cost_model,
)
from repro.parallel.simulator import (
    simulate_parallel_for,
    simulate_chunk_schedule,
)
from repro.parallel.levels import (
    ParallelismLevel,
    MachineSpec,
    WindowStats,
    estimate_makespan,
    collect_window_stats,
)
from repro.parallel.tracing import (
    ChunkTrace,
    simulate_chunk_schedule_traced,
    format_gantt,
)
from repro.parallel.shared_arena import (
    ArenaHandle,
    SharedArena,
    SharedArenaRegistry,
    attach_arena,
    run_arena_tasks,
)

__all__ = [
    "ArenaHandle",
    "SharedArena",
    "SharedArenaRegistry",
    "attach_arena",
    "run_arena_tasks",
    "Partitioner",
    "AUTO",
    "SIMPLE",
    "STATIC",
    "chunk_ranges",
    "contiguous_blocks",
    "CostModel",
    "calibrate_cost_model",
    "default_cost_model",
    "simulate_parallel_for",
    "simulate_chunk_schedule",
    "ParallelismLevel",
    "MachineSpec",
    "WindowStats",
    "estimate_makespan",
    "collect_window_stats",
    "ChunkTrace",
    "simulate_chunk_schedule_traced",
    "format_gantt",
]
