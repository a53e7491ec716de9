"""The SpMM region schedule of the postmortem model (paper Section 4.4).

A multi-window graph's run of windows is divided into ``vector_length``
contiguous *regions*; batch *b* takes the *b*-th window of every region
(G0, G10, G20, ... then G1, G11, G21, ...).  Only the first batch (the
region heads) lacks a predecessor computed in an earlier batch; every
later batch warm-starts all of its windows from the previous batch — the
trick that lets SpMM batching coexist with partial initialization.

Each region is therefore a warm-start chain of its own, and the batches
are the lockstep steps of those chains: the postmortem engine
(:func:`repro.programs.engine.solve_program_chains`) steps the chains of
:func:`regions` directly, and :func:`spmm_region_schedule` lists the same
steps as batches for the machine simulator
(:mod:`repro.parallel.levels`).  With ``vector_length=1`` the one region
is the whole graph: the sequential (SpMV) order.

The region count of each graph is the postmortem driver's choice, made
from its windows' event counts
(:func:`repro.models.postmortem.region_width`) with the
``vector_length`` option as the upper bound; the functions here take
whatever width they are given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ValidationError
from repro.graph.multiwindow import uniform_window_ranges

__all__ = ["SpmmBatch", "regions", "spmm_region_schedule"]


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


def regions(
    first_window: int, n_windows: int, vector_length: int
) -> List[Tuple[int, int]]:
    """``(start, size)`` of each region: the uniform split of
    multi-window graphs (:func:`~repro.graph.multiwindow.
    uniform_window_ranges`), so the first ``n_windows % L`` regions get
    one extra window (``L = min(vector_length, n_windows)``).

    >>> regions(10, 7, 3)
    [(10, 3), (13, 2), (15, 2)]
    """
    if vector_length <= 0:
        raise ValidationError(
            f"vector_length must be > 0, got {vector_length}"
        )
    return [
        (first_window + start, size)
        for start, size in uniform_window_ranges(
            n_windows, min(vector_length, n_windows)
        )
    ]


def spmm_region_schedule(
    first_window: int, n_windows: int, vector_length: int
) -> List[SpmmBatch]:
    """The strided region schedule of Section 4.4: batch *b* gathers the
    *b*-th window of every region that still has one.

    >>> [b.windows for b in spmm_region_schedule(0, 8, 4)]
    [[0, 2, 4, 6], [1, 3, 5, 7]]
    """
    spans = regions(first_window, n_windows, vector_length)
    # the first region is the longest; region heads (b == 0) have no
    # predecessor computed earlier, all others warm-start from w - 1
    return [
        SpmmBatch(
            windows=[start + b for start, size in spans if b < size],
            predecessors=[
                start + b - 1 if b else None
                for start, size in spans if b < size
            ],
        )
        for b in range(spans[0][1])
    ]
