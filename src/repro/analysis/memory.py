"""Memory accounting for the postmortem representation (Section 4.1).

The paper prices the multi-window representation at

    encoding x (Σ_w |V_w| + 2 x Σ_w |E_w|)

with 64-bit encoding, and requires it to fit in memory alongside the
intermediate PageRank vectors.  These helpers report both the model
formula and the actually-allocated bytes per multi-window graph, plus the
replication overhead vs. the raw event log — the quantity the multi-window
count Y trades against per-SpMV work (Figure 8's companion discussion).

A graph stores one temporal CSR, as the paper does, so its heap bytes
are the formula plus three small terms: the global-id map (8 B per
vertex), the ``group_start`` mask (1 B per event) and the extra
``indptr`` entry (8 B).

Partitions build their graphs on demand, so each graph's bytes are a
transient cost of the task solving it, never a standing allocation.  A
graph is always compacted onto the heap, even from a ``.tcsr`` event log
opened via :func:`repro.graph.io.open_events`; only that raw log can be
file-backed, and ``raw_event_mapped_bytes`` reports its mapped part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graph.multiwindow import LazyMultiWindowPartition
from repro.utils.arrays import heap_and_mapped_bytes

__all__ = ["MemoryReport", "memory_report", "ENCODING_BYTES"]

ENCODING_BYTES = 8  # the paper: "we use 64-bit for all data"


@dataclass
class GraphMemory:
    """Memory of one multi-window graph.

    Graphs are transient, so ``heap_bytes`` is what this graph costs
    while a task holds it, not a standing allocation.
    """

    index: int
    n_windows: int
    n_vertices: int
    n_events: int
    model_bytes: int
    heap_bytes: int


@dataclass
class MemoryReport:
    """Memory of a full multi-window partition."""

    graphs: List[GraphMemory]
    raw_event_bytes: int
    raw_event_mapped_bytes: int
    replication_factor: float

    @property
    def total_model_bytes(self) -> int:
        """The paper's formula summed over all multi-window graphs."""
        return sum(g.model_bytes for g in self.graphs)

    @property
    def total_allocated_bytes(self) -> int:
        """Heap bytes summed over all multi-window graphs."""
        return sum(g.heap_bytes for g in self.graphs)

    @property
    def peak_transient_bytes(self) -> int:
        """Largest single-graph heap cost — what one in-flight graph adds
        to RSS."""
        return max((g.heap_bytes for g in self.graphs), default=0)

    @property
    def overhead_vs_raw(self) -> float:
        """Allocated representation bytes per raw event-log byte."""
        return self.total_allocated_bytes / max(self.raw_event_bytes, 1)

    def pagerank_workspace_bytes(self, vector_length: int = 1) -> int:
        """The intermediate-vector memory one in-flight solve needs per
        multi-window graph (x and y per column), maximized over graphs —
        the part the paper says must be "retained available"."""
        return max(
            (2 * g.n_vertices * vector_length * ENCODING_BYTES
             for g in self.graphs),
            default=0,
        )


def memory_report(
    partition: LazyMultiWindowPartition,
) -> MemoryReport:
    """Account the memory of a multi-window partition.

    Graphs are built one at a time (never all resident) and reported as
    transient costs.
    """
    graphs = []
    for i, g in enumerate(partition):
        model = ENCODING_BYTES * (g.n_local_vertices + 2 * g.nnz)
        graphs.append(
            GraphMemory(
                index=i,
                n_windows=g.n_windows,
                n_vertices=g.n_local_vertices,
                n_events=g.nnz,
                model_bytes=model,
                heap_bytes=g.memory_bytes(),
            )
        )
    events = partition.events
    raw_heap, raw_mapped = heap_and_mapped_bytes(
        [events.src, events.dst, events.time]
    )
    return MemoryReport(
        graphs=graphs,
        raw_event_bytes=raw_heap + raw_mapped,
        raw_event_mapped_bytes=raw_mapped,
        replication_factor=partition.replication_factor,
    )
