"""Graph representations.

* :mod:`repro.graph.csr` — plain static CSR (the offline model rebuilds one
  per window).
* :mod:`repro.graph.temporal_csr` — the paper's temporal CSR (Figure 3):
  ``rowA``/``colA``/``timeA`` with adjacencies sorted by neighbor then
  timestamp, plus vectorized window activity/dedup masks and degrees.
* :mod:`repro.graph.multiwindow` — partitioning the window sequence into
  multi-window graphs (Section 4.1) with local vertex compaction.
* :mod:`repro.graph.io` — the out-of-core ``.tcsr`` artifact: the
  memory-mapped, time-indexed event log built in bounded-memory chunks.
"""

from repro.graph.csr import CSRGraph, build_csr_from_edges
from repro.graph.temporal_csr import TemporalCSR, TemporalAdjacency, WindowView
from repro.graph.io import (
    MappedEventSet,
    TcsrFile,
    TemporalCSRBuilder,
    build_tcsr,
    is_tcsr,
    open_events,
    write_tcsr,
)
from repro.graph.multiwindow import (
    LazyMultiWindowPartition,
    MultiWindowGraph,
)
from repro.graph.balanced import (
    BalancedMultiWindowPartition,
    balanced_boundaries,
    greedy_boundaries,
    window_event_counts,
)

__all__ = [
    "CSRGraph",
    "build_csr_from_edges",
    "TemporalCSR",
    "TemporalAdjacency",
    "WindowView",
    "TemporalCSRBuilder",
    "TcsrFile",
    "MappedEventSet",
    "build_tcsr",
    "write_tcsr",
    "open_events",
    "is_tcsr",
    "MultiWindowGraph",
    "LazyMultiWindowPartition",
    "BalancedMultiWindowPartition",
    "balanced_boundaries",
    "greedy_boundaries",
    "window_event_counts",
]
