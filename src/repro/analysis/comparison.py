"""Cross-model timing comparisons (Figures 5, 11, 12).

:func:`compare_models` runs the three execution models on one (dataset,
window-spec) configuration and reports measured wall-clock per model plus
the postmortem/streaming speedup — the paper's headline metric.
:func:`speedup_grid` sweeps a (sliding offset × window size) grid and
collects the per-cell best speedup, the data behind the Figure 11 heatmaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec
from repro.models.postmortem import PostmortemOptions
from repro.pagerank.config import PagerankConfig
from repro.runtime.registry import MODELS, make_driver
from repro.utils.timer import Timer

__all__ = ["ModelTiming", "compare_models", "speedup_grid"]


@dataclass
class ModelTiming:
    """Wall-clock comparison of the three models on one configuration."""

    offline_seconds: float
    streaming_seconds: float
    postmortem_seconds: float
    n_windows: int
    phase_breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def postmortem_vs_streaming(self) -> float:
        """Speedup of postmortem over streaming (the paper's 50–880×)."""
        return self.streaming_seconds / max(self.postmortem_seconds, 1e-12)

    @property
    def postmortem_vs_offline(self) -> float:
        return self.offline_seconds / max(self.postmortem_seconds, 1e-12)


def compare_models(
    events: TemporalEventSet,
    spec: WindowSpec,
    config: Optional[PagerankConfig] = None,
    options: Optional[PostmortemOptions] = None,
    check_agreement: bool = False,
) -> ModelTiming:
    """Run offline, streaming and postmortem on one configuration.

    ``check_agreement=True`` additionally verifies the three models return
    the same PageRank vectors (slower: vectors must be stored).
    """
    config = config or PagerankConfig()
    options = options or PostmortemOptions()
    store = check_agreement

    # one uniform invocation per model — the runtime registry is the
    # seam, no bespoke per-model construction
    runs: Dict[str, object] = {}
    seconds: Dict[str, float] = {}
    for model in MODELS:
        driver = make_driver(
            model, events, spec, config, postmortem_options=options
        )
        with Timer() as t:
            runs[model] = driver.run(store_values=store)
        seconds[model] = t.elapsed

    if check_agreement:
        tol = max(config.tolerance * 1e3, 1e-7)
        pm = runs["postmortem"]
        d1 = runs["offline"].max_difference(pm)
        d2 = runs["streaming"].max_difference(pm)
        if d1 > tol or d2 > tol:
            raise AssertionError(
                f"models disagree: offline-postmortem {d1:.2e}, "
                f"streaming-postmortem {d2:.2e} (tol {tol:.2e})"
            )

    return ModelTiming(
        offline_seconds=seconds["offline"],
        streaming_seconds=seconds["streaming"],
        postmortem_seconds=seconds["postmortem"],
        n_windows=spec.n_windows,
        phase_breakdown={
            model: runs[model].timings.as_dict() for model in MODELS
        },
    )


def speedup_grid(
    events: TemporalEventSet,
    sliding_offsets: Sequence[int],
    window_sizes_days: Sequence[float],
    speedup_fn: Callable[[WindowSpec], float],
    max_windows: Optional[int] = None,
) -> Tuple[np.ndarray, List[int], List[float]]:
    """Evaluate ``speedup_fn`` over a (sw × delta) grid (Figure 11 data).

    Returns ``(grid, sliding_offsets, window_sizes_days)`` where
    ``grid[i, j]`` is the speedup at window size ``window_sizes_days[i]``
    and offset ``sliding_offsets[j]`` (the paper's heatmap orientation).
    ``max_windows`` caps each cell's window count to bound runtime.
    """
    grid = np.zeros((len(window_sizes_days), len(sliding_offsets)))
    for i, ws in enumerate(window_sizes_days):
        for j, sw in enumerate(sliding_offsets):
            spec = WindowSpec.covering_days(events, ws, sw)
            if max_windows is not None and spec.n_windows > max_windows:
                spec = WindowSpec(
                    t0=spec.t0,
                    delta=spec.delta,
                    sw=spec.sw,
                    n_windows=max_windows,
                )
            grid[i, j] = speedup_fn(spec)
    return grid, list(sliding_offsets), list(window_sizes_days)
