"""Calibrated task-cost model for the simulated parallel machine.

One PageRank power iteration over a multi-window graph structure costs (in
seconds):

    SpMV:  c_edge * nnz + c_vertex * V

    SpMM (k windows batched):
           c_edge * nnz                  -- one shared structure traversal
         + c_active * sum_active_edges   -- per-column useful edge math
         + c_vertex * V * k              -- per-column vertex updates

The SpMV/SpMM distinction encodes the paper's Section 4.4 argument: the
memory-bound structure stream is read **once** for all k columns, while the
per-column arithmetic streams through registers.  ``c_active`` (per active
edge per column) is cheaper than ``c_edge`` (per stored event, including
the random-access gather) by the ``spmm_column_discount`` ratio.  The
NumPy batch realises the ``sum_active_edges`` term — it reads only the
live (edge, window) cells, in column groups of four — but not the shared
structure read: each group gathers its own cells.  So the discount is a
*modelling constant of the simulated 48-core machine*, documented in
DESIGN.md §2; all absolute
magnitudes (``c_edge``, ``c_vertex``, overheads) are fitted against real
measured kernel runs so 1-worker simulated time matches real serial
wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "CostModel",
    "calibrate_cost_model",
    "default_cost_model",
]

#: fraction of the per-stored-event cost charged per active edge per SpMM
#: column (the register-streamed part of the work).
SPMM_COLUMN_DISCOUNT = 0.5


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs in seconds (see module docstring)."""

    c_edge: float = 1.0e-8
    c_vertex: float = 1.0e-8
    c_active: float = 0.5e-8
    c_task: float = 7.5e-7
    c_region: float = 3.0e-6

    def __post_init__(self) -> None:
        for name in ("c_edge", "c_vertex", "c_active", "c_task", "c_region"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")

    # ------------------------------------------------------------------
    # SpMV
    # ------------------------------------------------------------------
    def spmv_iteration_cost(self, nnz: int, n_vertices: int) -> float:
        """One SpMV power iteration over a structure of ``nnz`` events."""
        return self.c_edge * nnz + self.c_vertex * n_vertices

    def spmv_window_cost(
        self, nnz: int, n_vertices: int, iterations: int
    ) -> float:
        """A full window solve (``iterations`` sequential SpMVs)."""
        return iterations * self.spmv_iteration_cost(nnz, n_vertices)

    # ------------------------------------------------------------------
    # SpMM
    # ------------------------------------------------------------------
    def spmm_iteration_cost(
        self, nnz: int, n_vertices: int, k: int, sum_active_edges: int
    ) -> float:
        """One batched iteration advancing ``k`` windows together;
        ``sum_active_edges`` is the total of the k windows' active edge
        counts."""
        return (
            self.c_edge * nnz
            + self.c_active * sum_active_edges
            + self.c_vertex * n_vertices * k
        )

    def spmm_window_cost(
        self,
        nnz: int,
        n_vertices: int,
        k: int,
        iterations: int,
        active_edges: int,
    ) -> float:
        """Amortized cost of one window solved inside a k-wide batch: the
        shared structure traversal is charged at 1/k."""
        k = max(k, 1)
        per_iter = (
            self.c_edge * nnz / k
            + self.c_active * active_edges
            + self.c_vertex * n_vertices
        )
        return iterations * per_iter

    def with_overrides(self, **kwargs) -> "CostModel":
        return replace(self, **kwargs)


def default_cost_model() -> CostModel:
    """Deterministic constants of the right order of magnitude for the
    NumPy kernels on a modern x86 core; use :func:`calibrate_cost_model`
    for machine-accurate magnitudes."""
    return CostModel()


def calibrate_cost_model(
    seed: int = 42,
    sizes=(6_000, 12_000, 24_000, 36_000),
    min_seconds: float = 0.003,
) -> CostModel:
    """Fit ``c_edge`` / ``c_vertex`` against real SpMV kernel timings.

    Builds temporal adjacencies of several sizes, times
    :func:`~repro.pagerank.spmv.pagerank_window` on a full-span window of
    each, and least-squares fits  time/iteration ≈ c_edge*nnz + c_vertex*V.
    ``c_active`` is then derived via the SpMM column discount (see module
    docstring), and the scheduling overheads from a dispatch
    micro-benchmark.
    """
    from repro.datasets.generators import generate_events, growth_rate
    from repro.events.windows import WindowSpec
    from repro.graph.temporal_csr import TemporalAdjacency
    from repro.pagerank.config import PagerankConfig
    from repro.pagerank.spmv import pagerank_window

    config = PagerankConfig(tolerance=1e-12, max_iterations=60)
    rows, times = [], []
    for n_events in sizes:
        events = generate_events(
            n_events=n_events,
            n_vertices=max(200, n_events // 10),
            rate=growth_rate(),
            t_min=0,
            t_max=10_000_000,
            seed=seed,
        )
        adjacency = TemporalAdjacency.from_events(events)
        spec = WindowSpec(
            t0=0, delta=10_000_000, sw=1, n_windows=1
        )
        view = adjacency.window_view(spec.window(0))
        result = pagerank_window(view, config)  # warm-up
        reps = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < min_seconds:
            result = pagerank_window(view, config)
            reps += 1
        elapsed = (time.perf_counter() - t0) / max(reps, 1)
        per_iter = elapsed / max(result.iterations, 1)
        rows.append([adjacency.nnz, adjacency.n_vertices])
        times.append(per_iter)

    A = np.asarray(rows, dtype=np.float64)
    b = np.asarray(times, dtype=np.float64)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    c_edge = float(max(coef[0], 1e-10))
    c_vertex = float(max(coef[1], 1e-10))

    # per-task dispatch overhead micro-benchmark: a no-op function call is
    # the floor of what a stolen task costs the runtime
    n_calls = 50_000
    noop = (lambda: None)
    t0 = time.perf_counter()
    for _ in range(n_calls):
        noop()
    c_task = max((time.perf_counter() - t0) / n_calls, 1e-8) * 10

    return CostModel(
        c_edge=c_edge,
        c_vertex=c_vertex,
        c_active=SPMM_COLUMN_DISCOUNT * c_edge,
        c_task=c_task,
        c_region=c_task * 4,
    )
