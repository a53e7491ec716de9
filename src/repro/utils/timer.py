"""Timing utilities used by the benchmark harness and the cost-model
calibration.

The paper reports wall-clock times per execution model; we additionally
accumulate *named phases* (graph build, init, iterate) so EXPERIMENTS.md can
attribute where each model spends its time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Timer", "TimingAccumulator"]


class Timer:
    """A context-manager stopwatch.

    >>> with Timer() as t:
    ...     sum(range(10))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        self._start = None
        return self.elapsed


@dataclass
class TimingAccumulator:
    """Accumulates elapsed seconds under named phases.

    Used by every execution-model driver so benchmarks can report a
    build/compute breakdown alongside the total.
    """

    totals: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, phase: str, seconds: float) -> None:
        self.totals[phase] += seconds

    def phase(self, name: str) -> "_PhaseContext":
        """Context manager that times a block and records it under ``name``."""
        return _PhaseContext(self, name)

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def merge(self, other: "TimingAccumulator") -> None:
        for k, v in other.totals.items():
            self.totals[k] += v

    def as_dict(self) -> Dict[str, float]:
        return dict(self.totals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.totals.items()))
        return f"TimingAccumulator({parts})"


class _PhaseContext:
    def __init__(self, acc: TimingAccumulator, name: str) -> None:
        self._acc = acc
        self._name = name
        self._timer = Timer()

    def __enter__(self) -> Timer:
        self._timer.start()
        return self._timer

    def __exit__(self, *exc) -> None:
        self._acc.add(self._name, self._timer.stop())
