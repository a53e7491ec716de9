"""The streaming execution model (paper Section 3.3.2).

A STINGER-like dynamic graph structure holds a single "now" graph; batches
of edge insertions and expirations advance the sliding window, and an
incremental PageRank (Riedy, IPDPSW 2016) updates the previous solution
instead of recomputing from scratch.

This is the baseline the postmortem model is measured against, implemented
with the same batched update semantics the paper used ("the only
modifications to STINGER ... updates in batches equivalent to the
postmortem code").
"""

from repro.streaming.edge_blocks import EdgeBlockAdjacency
from repro.streaming.stinger import StreamingGraph
from repro.streaming.driver import StreamingDriver

__all__ = [
    "EdgeBlockAdjacency",
    "StreamingGraph",
    "StreamingDriver",
]
