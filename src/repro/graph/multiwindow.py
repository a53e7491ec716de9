"""Multi-window graphs (paper Section 4.1).

The full temporal CSR makes every SpMV Θ(|Events|), which can be
arbitrarily larger than any one window's edge count.  The fix: partition
the window sequence into ``Y`` *multi-window graphs*, each a temporal CSR
over only the events relevant to its contiguous run of windows.  Windows
are distributed uniformly; events spanning a boundary are replicated
(Σ_w |E_w| >= |Events|), trading memory for per-SpMV work Θ(|E_w|).

Each multi-window graph compacts its vertex set (``V_w`` is typically much
smaller than ``V``), which is also why the paper does not attempt partial
initialization *across* multi-window boundaries — the index spaces differ.

A partition stores only a small build recipe per graph (its window run and
event-log slice bounds); each graph is compacted from its slice when a
worker solves it, so the same recipe serves in-process solves and
shared-memory workers that hold the event columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

import numpy as np

from repro.errors import ValidationError
from repro.events.windows import Window, WindowSpec
from repro.graph.temporal_csr import TemporalAdjacency, WindowView
from repro.utils.arrays import heap_and_mapped_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.events.event_set import TemporalEventSet

__all__ = [
    "MultiWindowGraph",
    "LazyMultiWindowPartition",
    "uniform_window_ranges",
    "build_compact_graph",
    "graph_from_payload",
]


class MultiWindowGraph:
    """One multi-window graph: a compacted temporal adjacency for a
    contiguous run of windows.

    Attributes
    ----------
    spec:
        Sub-spec describing this graph's run of windows (global timing).
    first_window:
        Global index of the run's first window.
    adjacency:
        :class:`TemporalAdjacency` over *local* vertex ids ``0..|V_w|-1``.
    global_ids:
        ``global_ids[local]`` is the global vertex id; sorted ascending.
    """

    __slots__ = ("spec", "first_window", "adjacency", "global_ids")

    def __init__(
        self,
        spec: WindowSpec,
        first_window: int,
        adjacency: TemporalAdjacency,
        global_ids: np.ndarray,
    ) -> None:
        self.spec = spec
        self.first_window = int(first_window)
        self.adjacency = adjacency
        self.global_ids = np.ascontiguousarray(global_ids, dtype=np.int64)
        if adjacency.n_vertices != self.global_ids.size:
            raise ValidationError(
                "adjacency vertex count must match the id mapping"
            )

    # ------------------------------------------------------------------
    @property
    def n_windows(self) -> int:
        return self.spec.n_windows

    @property
    def n_local_vertices(self) -> int:
        return self.global_ids.size

    @property
    def nnz(self) -> int:
        """|E_w| — events stored in this multi-window graph."""
        return self.adjacency.nnz

    def window_indices(self) -> range:
        """Global window indices covered by this graph."""
        return range(self.first_window, self.first_window + self.n_windows)

    def local_window(self, global_index: int) -> Window:
        """The window object (global timing) for a global window index
        belonging to this graph."""
        local = global_index - self.first_window
        if not (0 <= local < self.n_windows):
            raise ValidationError(
                f"window {global_index} not in multi-window graph "
                f"[{self.first_window}, {self.first_window + self.n_windows})"
            )
        w = self.spec.window(local)
        return Window(index=global_index, t_start=w.t_start, t_end=w.t_end)

    def window_view(self, global_index: int) -> WindowView:
        """Per-window activity data over the *local* structure.

        Θ(window events + groups) through the adjacency's
        :class:`~repro.graph.temporal_csr.GroupIndex`."""
        return self.adjacency.window_view(self.local_window(global_index))

    def to_global(self, local_values: np.ndarray, n_global: int) -> np.ndarray:
        """Scatter a local per-vertex vector into the global vertex space
        (zeros elsewhere)."""
        out_shape = (n_global,) + local_values.shape[1:]
        out = np.zeros(out_shape, dtype=local_values.dtype)
        out[self.global_ids] = local_values
        return out

    def memory_bytes(self) -> int:
        """Bytes of the adjacency's arrays and the id map."""
        return self.adjacency.memory_bytes() + self.global_ids.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiWindowGraph(windows=[{self.first_window}, "
            f"{self.first_window + self.n_windows}), |V_w|="
            f"{self.n_local_vertices}, |E_w|={self.nnz})"
        )


def uniform_window_ranges(n_windows: int, n_multiwindows: int) -> list:
    """Uniform split: ``(w_start, w_count)`` per multi-window graph; the
    first ``n_windows % Y`` graphs get one extra window (paper Section
    4.1's distribution)."""
    base = n_windows // n_multiwindows
    extra = n_windows % n_multiwindows
    ranges = []
    start = 0
    for g in range(n_multiwindows):
        count = base + (1 if g < extra else 0)
        ranges.append((start, count))
        start += count
    assert start == n_windows
    return ranges


def build_compact_graph(
    src: np.ndarray,
    dst: np.ndarray,
    time: np.ndarray,
    n_vertices: int,
    sub: WindowSpec,
    first_window: int,
) -> MultiWindowGraph:
    """Compact a time-sliced event run into one multi-window graph.

    The single construction step behind every multi-window graph: vertex
    compaction over the global id space ``[0, n_vertices)`` — a presence
    mask, its ``flatnonzero`` as the sorted ``ids`` and one ``cumsum`` as
    the global-to-local map — then the temporal CSR over local ids.
    """
    present = np.zeros(n_vertices, dtype=np.bool_)
    present[src] = True
    present[dst] = True
    ids = np.flatnonzero(present)
    local_of = np.cumsum(present, dtype=np.int64)
    local_of -= 1
    local_src = local_of.take(src)
    local_dst = local_of.take(dst)
    adjacency = TemporalAdjacency.from_arrays(
        local_src, local_dst, time, ids.size
    )
    return MultiWindowGraph(sub, first_window, adjacency, ids)


def graph_from_payload(
    events: "TemporalEventSet", payload: tuple
) -> MultiWindowGraph:
    """Build the graph a :meth:`LazyMultiWindowPartition.graph_payload`
    recipe describes from the full event log it was computed over."""
    sub, first_window, lo, hi = payload
    return build_compact_graph(
        events.src[lo:hi],
        events.dst[lo:hi],
        events.time[lo:hi],
        events.n_vertices,
        sub,
        first_window,
    )


class LazyMultiWindowPartition:
    """A partition of the window sequence into multi-window graphs, each
    built on demand.

    ``n_multiwindows`` graphs each receive ``ceil(n_windows / Y)`` (or one
    fewer) consecutive windows, mirroring the paper's uniform distribution;
    :class:`~repro.graph.balanced.BalancedMultiWindowPartition` supplies
    work-balanced runs instead.

    Construction computes only the per-graph window runs and event-log
    slice bounds (two ``searchsorted`` probes each — with a ``.tcsr``
    event set that touches a handful of pages, not the whole log).  A
    multi-window graph's arrays exist only while someone holds the object
    :meth:`graph_at` returned, so peak memory for a run is one graph per
    concurrent worker instead of all ``Y`` graphs at once.  ``graphs``
    builds every graph at once — the escape hatch for analysis
    paths; runtime paths iterate or call :meth:`graph_at`.
    """

    def __init__(
        self,
        events: "TemporalEventSet",
        spec: WindowSpec,
        n_multiwindows: int,
    ) -> None:
        if n_multiwindows <= 0:
            raise ValidationError(
                f"n_multiwindows must be > 0, got {n_multiwindows}"
            )
        runs = self._window_runs(
            events, spec, min(n_multiwindows, spec.n_windows)
        )
        self.events = events
        self.spec = spec
        self.n_multiwindows = len(runs)
        self._owner = np.empty(spec.n_windows, dtype=np.int64)
        #: per graph: the graph_payload recipe (sub_spec, w_start, lo, hi)
        self._payloads: List[tuple] = []
        for g, (start, count) in enumerate(runs):
            self._owner[start: start + count] = g
            sub = spec.subspec(start, count)
            t_hi = sub.t0 + (count - 1) * sub.sw + sub.delta
            lo, hi = events.time_slice_indices(sub.t0, t_hi)
            self._payloads.append((sub, start, int(lo), int(hi)))

    def _window_runs(
        self, events: "TemporalEventSet", spec: WindowSpec,
        n_multiwindows: int,
    ) -> List[tuple]:
        """``(w_start, w_count)`` per graph: the uniform split."""
        return uniform_window_ranges(spec.n_windows, n_multiwindows)

    # ------------------------------------------------------------------
    def graph_at(self, g: int) -> MultiWindowGraph:
        """Build multi-window graph ``g`` now (a fresh object each call;
        drop the reference to release its arrays)."""
        return graph_from_payload(self.events, self._payloads[g])

    def graph_payload(self, g: int) -> tuple:
        """Picklable build recipe ``(sub_spec, first_window, lo, hi)`` of
        graph ``g`` for :func:`graph_from_payload`."""
        return self._payloads[g]

    @property
    def graphs(self) -> List[MultiWindowGraph]:
        """Build *all* graphs (defeats laziness; analysis paths)."""
        return [self.graph_at(g) for g in range(self.n_multiwindows)]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_multiwindows

    def __iter__(self) -> Iterator[MultiWindowGraph]:
        for g in range(self.n_multiwindows):
            yield self.graph_at(g)

    def __getitem__(self, g: int) -> MultiWindowGraph:
        return self.graph_at(g)

    def owner_of(self, window_index: int) -> int:
        """Which multi-window graph holds a global window index."""
        if not (0 <= window_index < self.spec.n_windows):
            raise ValidationError(
                f"window index {window_index} out of range"
            )
        return int(self._owner[window_index])

    def graph_of(self, window_index: int) -> MultiWindowGraph:
        """Build the graph owning a global window index."""
        return self.graph_at(self.owner_of(window_index))

    def window_view(self, window_index: int) -> WindowView:
        """Per-window view via a freshly built owning graph."""
        return self.graph_of(window_index).window_view(window_index)

    @property
    def total_stored_events(self) -> int:
        """Σ_w |E_w| — known from slice bounds without building graphs."""
        return sum(hi - lo for _, _, lo, hi in self._payloads)

    @property
    def replication_factor(self) -> float:
        """Σ_w |E_w| / |Events| (>= 1 up to boundary truncation)."""
        n = len(self.events)
        return self.total_stored_events / n if n else 1.0

    def memory_bytes(self) -> int:
        """Resident representation bytes: 0 — nothing is built until a
        caller asks for a graph."""
        return 0

    def mapped_bytes(self) -> int:
        """File-mapped bytes of the backing event arrays (if any)."""
        _, mapped = heap_and_mapped_bytes(
            (self.events.src, self.events.dst, self.events.time)
        )
        return mapped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(Y={self.n_multiwindows}, "
            f"windows={self.spec.n_windows}, "
            f"stored_events={self.total_stored_events})"
        )
