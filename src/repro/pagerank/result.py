"""Result containers for PageRank runs.

Besides the solution vector, every kernel reports *work statistics* — the
quantities (edge traversals, vertex operations, iterations) the parallel
cost model is calibrated against.  This is how the simulated machine charges
exactly the work the real kernel performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

__all__ = [
    "WorkStats", "PagerankResult", "LockstepResult",
]


@dataclass
class WorkStats:
    """Machine-independent work counters for one solver run.

    Attributes
    ----------
    iterations:
        Power iterations executed.
    edge_traversals:
        Total stored events read.  The kernels iterate over each
        window's packed active edges, so for them this equals
        ``active_edge_traversals``; a masked pass would read iterations ×
        structure nnz — the *structure* size, which is why multi-window
        partitioning matters for it.
    active_edge_traversals:
        Iterations × active (deduplicated) edges — the useful work.
    vertex_ops:
        Iterations × vertices updated.
    binning_seconds:
        Wall-clock of a one-time edge setup before the iterations.  No
        kernel has one (each window's edges are packed straight into the
        lockstep concatenation), so it reads 0; trace consumers still
        subtract it from a solve's self time.
    propagate_seconds:
        Wall-clock spent inside the per-iteration gather→reduce
        propagation (the share/gather/segment-sum step), split evenly
        among the windows of a lockstep step.
    """

    iterations: int = 0
    edge_traversals: int = 0
    active_edge_traversals: int = 0
    vertex_ops: int = 0
    binning_seconds: float = 0.0
    propagate_seconds: float = 0.0

    def merge(self, other: "WorkStats") -> None:
        self.iterations += other.iterations
        self.edge_traversals += other.edge_traversals
        self.active_edge_traversals += other.active_edge_traversals
        self.vertex_ops += other.vertex_ops
        self.binning_seconds += other.binning_seconds
        self.propagate_seconds += other.propagate_seconds

    @classmethod
    def accumulate(cls, stats_list) -> "WorkStats":
        total = cls()
        for s in stats_list:
            total.merge(s)
        return total


@dataclass
class PagerankResult:
    """Solution of one window's PageRank.

    ``values`` lives in whatever vertex space the kernel ran in (local
    multi-window space for postmortem runs; drivers scatter to the global
    space when requested).
    """

    values: np.ndarray
    iterations: int
    converged: bool
    residual: float
    work: WorkStats = field(default_factory=WorkStats)

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())


@dataclass
class LockstepResult:
    """Solution of a lockstep solve: one window from each of several
    multi-window graphs, iterated together.

    ``columns[j]`` solves the j-th window in its own graph's vertex
    space (the vectors differ in length, so there is no matrix form);
    ``work`` merges the columns' counters.
    """

    columns: List[PagerankResult]

    @property
    def work(self) -> WorkStats:
        return WorkStats.accumulate(c.work for c in self.columns)
