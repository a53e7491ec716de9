"""The per-vertex-list edge-block structure, kept as a test oracle.

Before the streaming model's edge blocks moved into one NumPy block pool
(:class:`repro.streaming.edge_blocks.EdgeBlockAdjacency`), each vertex
held a Python list of :class:`EdgeBlock` objects, and insert, expire and
snapshot looped over source runs, stale vertices and every vertex.  This
module is that structure, unchanged in behaviour, so the differential
tests can require the pool to match it entry for entry and counter for
counter.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = ["EdgeBlock", "BlockListAdjacency"]

DEFAULT_BLOCK_SIZE = 64


class EdgeBlock:
    """One fixed-capacity block of (neighbor, timestamp) entries."""

    __slots__ = ("nbr", "time", "fill")

    def __init__(self, capacity: int) -> None:
        self.nbr = np.empty(capacity, dtype=np.int64)
        self.time = np.empty(capacity, dtype=np.int64)
        self.fill = 0

    @property
    def capacity(self) -> int:
        return self.nbr.size

    @property
    def space(self) -> int:
        return self.capacity - self.fill

    def append(self, nbrs: np.ndarray, times: np.ndarray) -> int:
        """Append up to ``space`` entries; returns how many were taken."""
        take = min(self.space, nbrs.size)
        if take:
            self.nbr[self.fill: self.fill + take] = nbrs[:take]
            self.time[self.fill: self.fill + take] = times[:take]
            self.fill += take
        return take

    def compact_keep(self, keep: np.ndarray) -> None:
        """Keep only the flagged live entries, preserving order."""
        kept = int(keep.sum())
        if kept != self.fill:
            self.nbr[:kept] = self.nbr[: self.fill][keep]
            self.time[:kept] = self.time[: self.fill][keep]
            self.fill = kept

    def live(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.nbr[: self.fill], self.time[: self.fill]


class BlockListAdjacency:
    """Per-vertex edge-block lists with batch insert and time-based expiry.

    Update counters (``entries_inserted``, ``entries_expired``,
    ``blocks_allocated``) feed the streaming model's cost accounting.
    """

    def __init__(self, n_vertices: int, block_size: int = DEFAULT_BLOCK_SIZE):
        if n_vertices < 0:
            raise ValidationError("n_vertices must be >= 0")
        if block_size <= 0:
            raise ValidationError("block_size must be > 0")
        self.n_vertices = int(n_vertices)
        self.block_size = int(block_size)
        self._blocks: List[List[EdgeBlock]] = [[] for _ in range(n_vertices)]
        # per-vertex minimum live timestamp; expiry scans only vertices whose
        # minimum falls below the new window start (STINGER-style ageing).
        self._min_time = np.full(n_vertices, np.iinfo(np.int64).max)
        self._n_entries = 0
        self.entries_inserted = 0
        self.entries_expired = 0
        self.blocks_allocated = 0

    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Live multigraph entries (events currently in the window)."""
        return self._n_entries

    def vertex_entries(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated live (neighbors, timestamps) of vertex ``u``."""
        blocks = self._blocks[u]
        if not blocks:
            return (np.empty(0, dtype=np.int64),) * 2
        nbrs = np.concatenate([b.live()[0] for b in blocks])
        times = np.concatenate([b.live()[1] for b in blocks])
        return nbrs, times

    def out_degree(self, u: int) -> int:
        """Number of *distinct* live out-neighbors of ``u``."""
        nbrs, _ = self.vertex_entries(u)
        return int(np.unique(nbrs).size)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert_batch(self, src: np.ndarray, dst: np.ndarray, time: np.ndarray):
        """Insert a batch of events, grouped per source vertex."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        time = np.asarray(time, dtype=np.int64)
        if not (src.size == dst.size == time.size):
            raise ValidationError("batch arrays must have equal length")
        if src.size == 0:
            return
        if src.min() < 0 or src.max() >= self.n_vertices:
            raise ValidationError("source vertex out of range")
        if dst.min() < 0 or dst.max() >= self.n_vertices:
            raise ValidationError("destination vertex out of range")

        order = np.argsort(src, kind="stable")
        s, d, t = src[order], dst[order], time[order]
        # contiguous runs per source vertex
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        ends = np.r_[starts[1:], s.size]
        for lo, hi in zip(starts, ends):
            self._insert_vertex(int(s[lo]), d[lo:hi], t[lo:hi])
        self._n_entries += src.size
        self.entries_inserted += src.size

    def _insert_vertex(self, u: int, nbrs: np.ndarray, times: np.ndarray):
        blocks = self._blocks[u]
        pos = 0
        if blocks and blocks[-1].space:
            pos += blocks[-1].append(nbrs, times)
        while pos < nbrs.size:
            block = EdgeBlock(self.block_size)
            self.blocks_allocated += 1
            blocks.append(block)
            pos += block.append(nbrs[pos:], times[pos:])
        if times.size:
            self._min_time[u] = min(self._min_time[u], int(times.min()))

    def expire_before(self, t_cut: int) -> int:
        """Remove every entry with ``timestamp < t_cut``; returns count.

        Only vertices whose cached minimum timestamp falls below the cut are
        scanned, mimicking STINGER's ability to age out edges without a full
        structure sweep.
        """
        stale = np.flatnonzero(self._min_time < t_cut)
        removed = 0
        for u in stale:
            blocks = self._blocks[u]
            new_min = np.iinfo(np.int64).max
            for block in blocks:
                nbrs, times = block.live()
                keep = times >= t_cut
                dropped = int(block.fill - keep.sum())
                if dropped:
                    block.compact_keep(keep)
                    removed += dropped
                if block.fill:
                    new_min = min(new_min, int(block.time[: block.fill].min()))
            self._blocks[u] = [b for b in blocks if b.fill]
            self._min_time[u] = new_min
        self._n_entries -= removed
        self.entries_expired += removed
        return removed

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All live entries as flat (src, dst) arrays (with multiplicity)."""
        srcs, dsts = [], []
        for u in range(self.n_vertices):
            nbrs, _ = self.vertex_entries(u)
            if nbrs.size:
                srcs.append(np.full(nbrs.size, u, dtype=np.int64))
                dsts.append(nbrs)
        if not srcs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(srcs), np.concatenate(dsts)

    def snapshot_csr(self):
        """The current *simple* graph as a CSR (dedup over live entries)."""
        from repro.graph.csr import build_csr_from_edges

        src, dst = self.snapshot_arrays()
        return build_csr_from_edges(src, dst, self.n_vertices, dedup=True)

    def check_invariants(self) -> None:
        """Internal consistency check used by tests and fault injection."""
        count = 0
        for u in range(self.n_vertices):
            for block in self._blocks[u]:
                if not (0 <= block.fill <= block.capacity):
                    raise ValidationError(
                        f"block of vertex {u} has invalid fill {block.fill}"
                    )
                count += block.fill
                _, times = block.live()
                if times.size and self._min_time[u] > times.min():
                    raise ValidationError(
                        f"min-time cache of vertex {u} is stale"
                    )
        if count != self._n_entries:
            raise ValidationError(
                f"entry counter {self._n_entries} != actual {count}"
            )
