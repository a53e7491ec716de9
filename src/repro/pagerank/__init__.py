"""PageRank kernels.

* :mod:`repro.pagerank.config` — solver parameters (teleportation alpha,
  tolerance, iteration cap, dangling-mass policy).
* :mod:`repro.pagerank.reference` — slow, obviously-correct implementations
  used as test oracles.
* :mod:`repro.pagerank.spmv` — the pull-style power iteration over a
  temporal CSR window's packed active edges (the paper's SpMV kernel),
  stepping any number of windows in lockstep (the SpMM region schedule's
  batches included).
* :mod:`repro.pagerank.init` — full and partial initialization (eq. 4).
* :mod:`repro.pagerank.workspace` — reusable kernel scratch buffers shared
  across the windows of one partial-initialization chain.
* :mod:`repro.pagerank.compaction` — per-window active-edge packing (the
  literal Θ(|E_w|) iteration).
* :mod:`repro.pagerank.incremental` — warm-startable power iteration on a
  simple CSR graph (offline cold start, streaming warm start).
"""

from repro.pagerank.compaction import CompactedPull, compact_pull
from repro.pagerank.config import PagerankConfig
from repro.pagerank.result import PagerankResult, WorkStats
from repro.pagerank.reference import (
    pagerank_dense_reference,
    pagerank_csr_reference,
)
from repro.pagerank.spmv import pagerank_window, pagerank_windows_lockstep
from repro.pagerank.init import full_initialization, partial_initialization
from repro.pagerank.weighted import pagerank_window_weighted
from repro.pagerank.workspace import Workspace
from repro.pagerank.incremental import incremental_pagerank

__all__ = [
    "Workspace",
    "incremental_pagerank",
    "PagerankConfig",
    "PagerankResult",
    "WorkStats",
    "pagerank_dense_reference",
    "pagerank_csr_reference",
    "pagerank_window",
    "full_initialization",
    "partial_initialization",
    "pagerank_windows_lockstep",
    "pagerank_window_weighted",
    "CompactedPull",
    "compact_pull",
]
