"""Cost-balanced multi-window partitioning (paper Section 7, future work).

The paper partitions windows into multi-window graphs with *equal window
counts* and notes: "this may not be the decomposition that minimize memory
and work overheads".  This module implements that open question: split the
window sequence into Y contiguous runs that minimize the **maximum
per-graph work**, where a run's work is

    work(run) = (events covered by the run's time range) x (windows in run)

— each of a run's windows traverses that run's whole stored structure per
iteration, so the product is the structure-traversal volume the run
contributes (up to per-window iteration counts, unknown before solving).

Two algorithms:

* :func:`balanced_boundaries` — exact minimax contiguous partition via
  parametric search (binary search on the bottleneck + greedy
  feasibility), O(n log(total_work)); the classic linear-partitioning
  technique.
* :func:`greedy_boundaries` — one-pass greedy filling to the average
  target; cheaper, near-optimal on smooth distributions, used as a
  cross-check and a fallback.

:class:`BalancedMultiWindowPartition` plugs the boundaries into the same
on-demand :class:`~repro.graph.multiwindow.LazyMultiWindowPartition`, so
every driver, executor and kernel works unchanged (``.tcsr`` input stays
out of core) — the ablation bench
(``benchmarks/bench_ablation_partition.py``) quantifies the gain over the
paper's uniform split.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.events.windows import WindowSpec
from repro.graph.multiwindow import LazyMultiWindowPartition

if TYPE_CHECKING:  # pragma: no cover
    from repro.events.event_set import TemporalEventSet

__all__ = [
    "window_event_counts",
    "run_work",
    "greedy_boundaries",
    "balanced_boundaries",
    "BalancedMultiWindowPartition",
]


def window_event_counts(events: "TemporalEventSet", spec: WindowSpec) -> np.ndarray:
    """Events inside each window's interval (vectorized searchsorted)."""
    starts = spec.starts()
    ends = spec.ends()
    lo = np.searchsorted(events.time, starts, side="left")
    hi = np.searchsorted(events.time, ends, side="right")
    return (hi - lo).astype(np.int64)


def _run_event_count(events: "TemporalEventSet", spec: WindowSpec,
                     w_start: int, w_end: int) -> int:
    """Events covered by the union time range of windows [w_start, w_end)."""
    t_lo = spec.t0 + w_start * spec.sw
    t_hi = spec.t0 + (w_end - 1) * spec.sw + spec.delta
    lo, hi = events.time_slice_indices(t_lo, t_hi)
    return hi - lo


def run_work(events: "TemporalEventSet", spec: WindowSpec,
             w_start: int, w_end: int) -> int:
    """The traversal-volume cost of assigning windows [w_start, w_end) to
    one multi-window graph."""
    n_windows = w_end - w_start
    return _run_event_count(events, spec, w_start, w_end) * n_windows


def greedy_boundaries(
    events: "TemporalEventSet", spec: WindowSpec, n_parts: int
) -> List[int]:
    """One-pass greedy split: close a run when its work passes the
    per-part average of the total.  Returns ``n_parts + 1`` boundaries
    (some runs may merge when the distribution is extremely skewed)."""
    n = spec.n_windows
    n_parts = min(n_parts, n)
    if n_parts <= 1:
        return [0, n]

    counts = window_event_counts(events, spec)
    # proxy for per-window work contribution: its own event count (the
    # union-range effect is reintroduced by the exact algorithm below)
    total = int(counts.sum())
    target = total / n_parts
    boundaries = [0]
    acc = 0
    for w in range(n):
        acc += int(counts[w])
        remaining_windows = n - (w + 1)
        remaining_parts = n_parts - len(boundaries)
        if acc >= target and remaining_windows >= remaining_parts:
            boundaries.append(w + 1)
            acc = 0
            if len(boundaries) == n_parts:
                break
    boundaries.append(n)
    return boundaries


def _feasible(work_of_run, n: int, n_parts: int, limit: float) -> List[int] | None:
    """Greedy feasibility check: can [0, n) be cut into <= n_parts runs
    each with work <= limit?  Returns boundaries if so."""
    boundaries = [0]
    start = 0
    while start < n:
        if len(boundaries) > n_parts:
            return None
        # extend the run as far as the limit allows (work is monotone in
        # the run end, so binary search the furthest feasible end)
        lo, hi = start + 1, n
        if work_of_run(start, lo) > limit:
            return None  # a single window already exceeds the limit
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if work_of_run(start, mid) <= limit:
                lo = mid
            else:
                hi = mid - 1
        boundaries.append(lo)
        start = lo
    if len(boundaries) - 1 > n_parts:
        return None
    return boundaries


def balanced_boundaries(
    events: "TemporalEventSet", spec: WindowSpec, n_parts: int
) -> List[int]:
    """Minimax contiguous partition of the window sequence.

    Minimizes ``max_run run_work(run)`` over all partitions into at most
    ``n_parts`` contiguous runs, via binary search on the bottleneck value
    with a greedy feasibility test.
    """
    n = spec.n_windows
    n_parts = min(n_parts, n)
    if n_parts <= 0:
        raise ValidationError("n_parts must be > 0")
    if n_parts == 1:
        return [0, n]

    def work_of_run(a: int, b: int) -> int:
        return run_work(events, spec, a, b)

    lo = max(work_of_run(w, w + 1) for w in range(n))
    hi = work_of_run(0, n)
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        feasible = _feasible(work_of_run, n, n_parts, mid)
        if feasible is not None:
            best = feasible
            hi = mid - 1
        else:
            lo = mid + 1
    assert best is not None  # hi = full-range work is always feasible
    # pad degenerate partitions so downstream code sees real boundaries
    if best[-1] != n:
        best.append(n)
    return best


class BalancedMultiWindowPartition(LazyMultiWindowPartition):
    """A multi-window partition with work-balanced (not uniform) runs.

    Only the window boundaries differ from
    :class:`~repro.graph.multiwindow.LazyMultiWindowPartition`: graphs are
    still built on demand.  Pass ``method="greedy"`` for the cheap
    one-pass splitter.
    """

    def __init__(
        self,
        events: "TemporalEventSet",
        spec: WindowSpec,
        n_multiwindows: int,
        method: str = "minimax",
    ) -> None:
        if method not in ("minimax", "greedy"):
            raise ValidationError(
                f"method must be 'minimax' or 'greedy', got {method!r}"
            )
        self.method = method
        super().__init__(events, spec, n_multiwindows)

    def _window_runs(
        self, events: "TemporalEventSet", spec: WindowSpec,
        n_multiwindows: int,
    ) -> List[tuple]:
        split = (
            balanced_boundaries if self.method == "minimax"
            else greedy_boundaries
        )
        self._boundaries = split(events, spec, n_multiwindows)
        return [
            (a, b - a)
            for a, b in zip(self._boundaries[:-1], self._boundaries[1:])
        ]

    @property
    def boundaries(self) -> Sequence[int]:
        """Window index where each run starts, plus ``n_windows``."""
        return tuple(self._boundaries)

    def max_run_work(self) -> int:
        """The bottleneck value the minimax split optimizes."""
        return max(
            run_work(self.events, self.spec, a, b)
            for a, b in zip(self._boundaries[:-1], self._boundaries[1:])
        )
