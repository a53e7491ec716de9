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
transient cost of the task solving it, never a standing allocation.
:meth:`MemoryReport.pagerank_workspace_bytes` prices the other
transient: what one lockstep solve call of the postmortem engine holds
beside the graph (:meth:`GraphMemory.step_bytes`).  A
graph is always compacted onto the heap, even from a ``.tcsr`` event log
opened via :func:`repro.graph.io.open_events`; only that raw log can be
file-backed, and ``raw_event_mapped_bytes`` reports its mapped part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.graph.multiwindow import LazyMultiWindowPartition
from repro.pagerank.spmv import PASS_EDGES
from repro.programs import engine
from repro.utils.arrays import heap_and_mapped_bytes

__all__ = ["MemoryReport", "memory_report", "ENCODING_BYTES"]

ENCODING_BYTES = 8  # the paper: "we use 64-bit for all data"

#: |V_w|-length vectors a column holds while it iterates (iterate,
#: inverse out-weights, share, row scale and teleport, the new iterate,
#: |y - x|, its padded positions, their concatenations and temporaries);
#: tracemalloc reads 7-8 for a lone window and 12-13 per window of a
#: lockstep step on windows of 20k vertices
VERTEX_VECTORS = 12
#: array headers and index lists: per solve call and per column of it
#: (most of the peak on windows of a few hundred edges)
CALL_OVERHEAD_BYTES = 3 * 1024
COLUMN_OVERHEAD_BYTES = 2 * 1024


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
    #: (destination, source) groups of the graph's group index
    n_groups: int
    #: active edges and vertices of each window, in order
    window_edges: List[int] = field(default_factory=list)
    window_vertices: List[int] = field(default_factory=list)

    def step_bytes(self, vector_length: int = 1) -> int:
        """What one lockstep solve call over ``vector_length`` of this
        graph's windows (its largest) holds beside the graph: 16 B of
        edge index per live edge — the relabelled edges each window's
        view built and hands to the call, which a lone window iterates
        in place and several windows copy into their concatenation — at
        most the engine's :data:`~repro.programs.engine.STEP_EVENTS`
        unless a single window is larger; one contribution pass of up to
        :data:`~repro.pagerank.spmv.PASS_EDGES` edges; one view's 1-byte
        group mark at a time; and per column the view's length-n
        local-id map, the length-n padded residual buffer and result,
        and :data:`VERTEX_VECTORS` window-local vectors."""
        if not self.window_edges:
            return 0
        k = min(vector_length, len(self.window_edges))
        heads = sorted(
            range(len(self.window_edges)),
            key=lambda w: -self.window_edges[w],
        )[:k]
        largest = self.window_edges[heads[0]]
        edges = min(
            sum(self.window_edges[w] for w in heads),
            max(engine.STEP_EVENTS, largest),
        )
        vertices = sum(self.window_vertices[w] for w in heads)
        edge_bytes = 2 * edges + min(edges, max(PASS_EDGES, largest))
        vertex_bytes = 3 * k * self.n_vertices + VERTEX_VECTORS * vertices
        return (
            ENCODING_BYTES * (edge_bytes + vertex_bytes) + self.n_groups
            + CALL_OVERHEAD_BYTES + COLUMN_OVERHEAD_BYTES * k
        )


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
        """The memory one in-flight lockstep solve call of up to
        ``vector_length`` windows of one graph holds beside the graph
        (:meth:`GraphMemory.step_bytes`), maximized over graphs — the
        part the paper says must be "retained available"."""
        return max(
            (g.step_bytes(vector_length) for g in self.graphs), default=0
        )


def memory_report(
    partition: LazyMultiWindowPartition,
) -> MemoryReport:
    """Account the memory of a multi-window partition.

    Graphs are built one at a time (never all resident) and reported as
    transient costs, with each window's active edges and vertices.
    """
    graphs = []
    for i, g in enumerate(partition):
        model = ENCODING_BYTES * (g.n_local_vertices + 2 * g.nnz)
        sizes = [
            (view.n_active_edges, view.n_active_vertices)
            for view in map(g.window_view, g.window_indices())
        ]
        graphs.append(
            GraphMemory(
                index=i,
                n_windows=g.n_windows,
                n_vertices=g.n_local_vertices,
                n_events=g.nnz,
                model_bytes=model,
                heap_bytes=g.memory_bytes(),
                n_groups=g.adjacency.groups.n_groups,
                window_edges=[edges for edges, _ in sizes],
                window_vertices=[vertices for _, vertices in sizes],
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
