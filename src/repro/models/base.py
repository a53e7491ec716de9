"""Common result containers for execution-model drivers.

Every driver — offline, streaming and postmortem, whatever vertex
program it runs — returns the same :class:`RunResult` so benchmarks and
tests compare them uniformly: one :class:`WindowResult` per window (in
window order), a per-phase timing breakdown, and aggregated
machine-independent work statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.pagerank.result import WorkStats
from repro.utils.timer import TimingAccumulator

__all__ = ["WindowResult", "RunResult"]


@dataclass
class WindowResult:
    """One window's result, in the global vertex space.

    ``values`` is the program's solved per-vertex vector (rank, Katz
    score, core number, component size); it may be None when the driver
    runs with ``store_values=False`` (benchmark mode: keep the summary,
    drop the vectors).
    """

    window_index: int
    values: Optional[np.ndarray] = None
    iterations: int = 0
    converged: bool = True
    residual: float = 0.0
    n_active_vertices: int = 0
    n_active_edges: int = 0

    def top_vertices(self, k: int = 10) -> List[tuple]:
        """The k highest-ranked vertices as (vertex, score) pairs."""
        if self.values is None:
            raise ValidationError(
                "values were not stored for this run (store_values=False)"
            )
        k = min(k, self.values.size)
        idx = np.argpartition(self.values, -k)[-k:]
        idx = idx[np.argsort(self.values[idx])[::-1]]
        return [(int(v), float(self.values[v])) for v in idx]


@dataclass
class RunResult:
    """The full output of one execution-model run over all windows."""

    model: str
    windows: List[WindowResult] = field(default_factory=list)
    timings: TimingAccumulator = field(default_factory=TimingAccumulator)
    work: WorkStats = field(default_factory=WorkStats)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def total_time(self) -> float:
        return self.timings.total

    @property
    def total_iterations(self) -> int:
        return sum(w.iterations for w in self.windows)

    @property
    def all_converged(self) -> bool:
        return all(w.converged for w in self.windows)

    def window(self, index: int) -> WindowResult:
        for w in self.windows:
            if w.window_index == index:
                return w
        raise ValidationError(f"no result for window {index}")

    def values_matrix(self) -> np.ndarray:
        """All stored per-vertex vectors stacked as ``(n_windows, n_vertices)``."""
        vecs = []
        for w in sorted(self.windows, key=lambda w: w.window_index):
            if w.values is None:
                raise ValidationError(
                    "values were not stored for this run (store_values=False)"
                )
            vecs.append(w.values)
        return np.stack(vecs, axis=0)

    def max_difference(self, other: "RunResult") -> float:
        """Largest |Δ| between two runs' stored vectors (model equivalence
        checks)."""
        if self.n_windows != other.n_windows:
            raise ValidationError(
                f"window counts differ: {self.n_windows} vs {other.n_windows}"
            )
        return float(
            np.abs(self.values_matrix() - other.values_matrix()).max()
        ) if self.n_windows else 0.0
