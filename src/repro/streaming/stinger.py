"""The streaming graph middleware: sliding a window over an event stream.

:class:`StreamingGraph` owns an :class:`~repro.streaming.edge_blocks.
EdgeBlockAdjacency` (one pool of edge blocks held in NumPy arrays)
representing the graph "now" and advances it window by window: events
entering ``(prev_end, new_end]`` are batch-inserted, events older than the
new window start are expired, each as a few whole-array passes.  Updates
are batched exactly like the paper's modified STINGER ("updates in
batches equivalent to the postmortem code").  A snapshot rebuilds the
simple graph's CSR from the live entries every window: the structure is
built for updates, not for the PageRank pull.

The streaming model sees the event log *as a stream*: it may only read
events in timestamp order and cannot look ahead beyond the current window's
end — the structural reason it cannot parallelize across windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet
from repro.events.windows import Window
from repro.graph.csr import CSRGraph
from repro.streaming.edge_blocks import EdgeBlockAdjacency

__all__ = ["StreamingGraph", "UpdateSummary"]


@dataclass
class UpdateSummary:
    """What one window transition did to the structure."""

    window_index: int
    inserted: int
    expired: int
    live_entries: int


class StreamingGraph:
    """Sliding-window view over an event stream, STINGER-style."""

    def __init__(
        self, events: TemporalEventSet, block_size: int = 64
    ) -> None:
        self.events = events
        self.adjacency = EdgeBlockAdjacency(events.n_vertices, block_size)
        self._cursor = 0  # next unread event in the stream
        self._current: Optional[Window] = None

    @property
    def n_live_entries(self) -> int:
        return self.adjacency.n_entries

    def advance_to(self, window: Window) -> UpdateSummary:
        """Slide the structure forward to ``window``.

        Windows must be visited in increasing start-time order (a stream
        cannot rewind).
        """
        if self._current is not None and window.t_start < self._current.t_start:
            raise ValidationError(
                "streaming model cannot move the window backwards "
                f"({window.t_start} < {self._current.t_start})"
            )

        # ingest stream events up to the new window end
        time = self.events.time
        new_hi = int(np.searchsorted(time, window.t_end, side="right"))
        inserted = 0
        if new_hi > self._cursor:
            lo, hi = self._cursor, new_hi
            src = self.events.src[lo:hi]
            dst = self.events.dst[lo:hi]
            t = time[lo:hi]
            # events before the window start would expire immediately; they
            # still traverse the structure in a real stream, so insert first
            self.adjacency.insert_batch(src, dst, t)
            inserted = hi - lo
            self._cursor = new_hi

        expired = self.adjacency.expire_before(window.t_start)
        self._current = window
        return UpdateSummary(
            window_index=window.index,
            inserted=inserted,
            expired=expired,
            live_entries=self.adjacency.n_entries,
        )

    def snapshot(self) -> Tuple[CSRGraph, np.ndarray]:
        """The current simple graph and its active-vertex mask."""
        graph = self.adjacency.snapshot_csr()
        active = np.zeros(self.events.n_vertices, dtype=bool)
        src, dst = graph.edges()
        active[src] = True
        active[dst] = True
        return graph, active
