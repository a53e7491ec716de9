"""Window-ordering schedules for the postmortem model.

* **Sequential** — windows in natural order; window *i* warm-starts from
  *i-1* (the SpMV path).
* **SpMM region schedule** (paper Section 4.4) — a multi-window graph's run
  of windows is divided into ``vector_length`` contiguous *regions*; batch
  *b* takes the *b*-th window of every region (G0, G10, G20, ... then G1,
  G11, G21, ...).  Only the first batch (the region heads) lacks a
  predecessor computed in an earlier batch; every later batch warm-starts
  all of its windows from the previous batch — the trick that lets SpMM
  batching coexist with partial initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ValidationError

__all__ = ["SpmmBatch", "spmm_region_schedule", "sequential_schedule"]


@dataclass(frozen=True)
class SpmmBatch:
    """One SpMM batch: the global window indices solved simultaneously and,
    for each, the predecessor window supplying partial initialization
    (``None`` -> full initialization)."""

    windows: List[int]
    predecessors: List[Optional[int]]

    def __post_init__(self) -> None:
        assert len(self.windows) == len(self.predecessors)

    @property
    def width(self) -> int:
        return len(self.windows)


def sequential_schedule(first_window: int, n_windows: int) -> List[SpmmBatch]:
    """Width-1 batches in natural order (the SpMV schedule)."""
    batches = []
    for i in range(n_windows):
        w = first_window + i
        pred = w - 1 if i > 0 else None
        batches.append(SpmmBatch(windows=[w], predecessors=[pred]))
    return batches


def spmm_region_schedule(
    first_window: int, n_windows: int, vector_length: int
) -> List[SpmmBatch]:
    """The strided region schedule of Section 4.4.

    Regions are the same uniform split used for multi-window graphs: the
    first ``n_windows % L`` regions get one extra window.  Batch *b*
    gathers the *b*-th window of every region that still has one.

    >>> [b.windows for b in spmm_region_schedule(0, 8, 4)]
    [[0, 2, 4, 6], [1, 3, 5, 7]]
    """
    if vector_length <= 0:
        raise ValidationError(
            f"vector_length must be > 0, got {vector_length}"
        )
    L = min(vector_length, n_windows)
    base = n_windows // L
    extra = n_windows % L
    region_starts = []
    start = 0
    region_sizes = []
    for r in range(L):
        size = base + (1 if r < extra else 0)
        region_starts.append(start)
        region_sizes.append(size)
        start += size

    n_batches = max(region_sizes)
    batches: List[SpmmBatch] = []
    for b in range(n_batches):
        windows: List[int] = []
        preds: List[Optional[int]] = []
        for r in range(L):
            if b >= region_sizes[r]:
                continue
            w = first_window + region_starts[r] + b
            windows.append(w)
            # region heads (b == 0) have no predecessor computed earlier;
            # all others warm-start from w-1, solved in batch b-1.
            preds.append(w - 1 if b > 0 else None)
        batches.append(SpmmBatch(windows=windows, predecessors=preds))
    return batches
