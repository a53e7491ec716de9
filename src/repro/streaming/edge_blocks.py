"""A STINGER-like edge-block adjacency structure.

STINGER stores each vertex's adjacency as a linked list of fixed-size edge
blocks so insertions are O(1) amortized and deletions compact in place.  We
model the same structure as one block pool held in NumPy arrays: row ``b``
of ``(capacity, block_size)`` arrays holds block ``b``'s ``(neighbor,
timestamp)`` entries, with a fill counter, the vertex that owns it (−1
while it is free) and an allocation sequence number that orders a vertex's
blocks the way STINGER's list links would.  Each vertex keeps its tail (the
live block new entries are appended to) and its minimum live timestamp.
Emptied blocks go on a free list and are reused; the pool doubles when the
free list runs out.

Every operation is a handful of whole-array passes over the batch or the
affected blocks — no Python loop over vertices, blocks or source runs — so
the streaming baseline pays for the structure, not for the interpreter.

The structure is a *multigraph* — the same (u, v) pair may hold several
entries with different timestamps, and the simple edge exists while at
least one entry is live — exactly the semantics the sliding-window model
needs (an event inserted at t expires when the window start passes t).

The maintenance cost of this structure under updates is an intrinsic part
of the streaming baseline the paper measures against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = ["EdgeBlockAdjacency"]

DEFAULT_BLOCK_SIZE = 64

_NO_TIME = np.iinfo(np.int64).max


def _runs(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in sorted ``keys``."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


class EdgeBlockAdjacency:
    """A pool of fixed-size edge blocks with batch insert and time-based
    expiry.

    Entries are appended only into a vertex's tail block, emptied blocks
    leave their vertex's list, and expiry keeps insertion order, so a
    vertex's entries read back in the order they were inserted.  Update
    counters (``entries_inserted``, ``entries_expired``,
    ``blocks_allocated``) feed the streaming model's cost accounting.
    """

    def __init__(self, n_vertices: int, block_size: int = DEFAULT_BLOCK_SIZE):
        if n_vertices < 0:
            raise ValidationError("n_vertices must be >= 0")
        if block_size <= 0:
            raise ValidationError("block_size must be > 0")
        self.n_vertices = int(n_vertices)
        self.block_size = int(block_size)
        # the block pool, one row per block
        self._nbr = np.empty((0, self.block_size), dtype=np.int64)
        self._time = np.empty((0, self.block_size), dtype=np.int64)
        self._fill = np.empty(0, dtype=np.int64)
        self._owner = np.empty(0, dtype=np.int64)
        self._seq = np.empty(0, dtype=np.int64)
        # free block ids; allocation pops from the end
        self._free = np.empty(0, dtype=np.int64)
        self._next_seq = 0
        # per vertex: the live block with the largest seq (-1: none), and
        # the minimum live timestamp; expiry touches only vertices whose
        # minimum falls below the new window start (STINGER-style ageing)
        self._tail = np.full(self.n_vertices, -1, dtype=np.int64)
        self._min_time = np.full(self.n_vertices, _NO_TIME, dtype=np.int64)
        self._n_entries = 0
        self.entries_inserted = 0
        self.entries_expired = 0
        self.blocks_allocated = 0

    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Live multigraph entries (events currently in the window)."""
        return self._n_entries

    @property
    def capacity(self) -> int:
        """Blocks in the pool, live and free."""
        return self._fill.size

    def _entries_of(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The live (neighbors, timestamps) of blocks ``rows``, block by
        block in the given order."""
        live = np.arange(self.block_size) < self._fill[rows][:, None]
        return self._nbr[rows][live], self._time[rows][live]

    def _live_rows(self, mask: np.ndarray) -> np.ndarray:
        """The blocks flagged in ``mask`` (one flag per pool block, set
        only on owned blocks), ordered by (owner, seq): vertex by vertex,
        each in list order."""
        rows = np.flatnonzero(mask)
        return rows[np.lexsort((self._seq[rows], self._owner[rows]))]

    def _vertex_summary(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For live blocks ``rows`` in (owner, seq) order: each owning
        vertex, its newest block (its tail) and its minimum live
        timestamp."""
        if rows.size == 0:
            return (np.empty(0, dtype=np.int64),) * 3
        owners = self._owner[rows]
        first = _runs(owners)
        last = np.r_[first[1:], owners.size] - 1
        row_min = np.where(
            np.arange(self.block_size) < self._fill[rows][:, None],
            self._time[rows],
            _NO_TIME,
        ).min(axis=1)
        return owners[first], rows[last], np.minimum.reduceat(row_min, first)

    def vertex_entries(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """Live (neighbors, timestamps) of vertex ``u`` in insertion order."""
        return self._entries_of(self._live_rows(self._owner == u))

    def out_degree(self, u: int) -> int:
        """Number of *distinct* live out-neighbors of ``u``."""
        nbrs, _ = self.vertex_entries(u)
        return int(np.unique(nbrs).size)

    # ------------------------------------------------------------------
    # the pool
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        """Double the pool (or more, to ``needed`` blocks); the new blocks
        go on the free list, lowest id allocated first."""
        old = self.capacity
        new = max(2 * old, needed, 16)
        for name in ("_nbr", "_time"):
            grown = np.empty((new, self.block_size), dtype=np.int64)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        for name, free_value in (("_fill", 0), ("_owner", -1), ("_seq", -1)):
            grown = np.full(new, free_value, dtype=np.int64)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        self._free = np.concatenate(
            [np.arange(new - 1, old - 1, -1, dtype=np.int64), self._free]
        )

    def _allocate(self, owners: np.ndarray) -> np.ndarray:
        """One fresh empty block per entry of ``owners``, with increasing
        seq in that order; returns the block ids."""
        k = owners.size
        if k > self._free.size:
            self._grow(self.capacity + k - self._free.size)
        ids = self._free[self._free.size - k:][::-1]
        self._free = self._free[: self._free.size - k]
        self._owner[ids] = owners
        self._seq[ids] = self._next_seq + np.arange(k, dtype=np.int64)
        self._next_seq += k
        self.blocks_allocated += k
        return ids

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert_batch(self, src: np.ndarray, dst: np.ndarray, time: np.ndarray):
        """Insert a batch of events, grouped per source vertex.

        Each source's events, in batch order, first top up its tail block
        and then fill ``ceil(rest / block_size)`` new blocks.
        """
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

        B = self.block_size
        order = np.argsort(src, kind="stable")
        s, d, t = src[order], dst[order], time[order]
        starts = _runs(s)
        counts = np.diff(np.r_[starts, s.size])
        verts = s[starts]

        # per source run: how many entries top up the tail, how many new
        # blocks the rest needs, and where each run's new blocks begin
        tails = self._tail[verts]
        has_tail = tails >= 0
        take = np.zeros(verts.size, dtype=np.int64)
        take[has_tail] = np.minimum(B - self._fill[tails[has_tail]],
                                    counts[has_tail])
        rest = counts - take
        n_new = -(-rest // B)
        new_base = np.cumsum(n_new) - n_new
        new_ids = self._allocate(np.repeat(verts, n_new))

        # (block, slot) of every entry, by its rank within its run
        run = np.repeat(np.arange(verts.size), counts)
        rank = np.arange(s.size) - starts[run]
        into_tail = rank < take[run]
        block = np.empty(s.size, dtype=np.int64)
        slot = np.empty(s.size, dtype=np.int64)
        tail_run = run[into_tail]
        block[into_tail] = tails[tail_run]
        slot[into_tail] = self._fill[tails[tail_run]] + rank[into_tail]
        new_run = run[~into_tail]
        q = rank[~into_tail] - take[new_run]
        block[~into_tail] = new_ids[new_base[new_run] + q // B]
        slot[~into_tail] = q % B
        self._nbr[block, slot] = d
        self._time[block, slot] = t

        topped = take > 0
        self._fill[tails[topped]] += take[topped]
        block_run = np.repeat(np.arange(verts.size), n_new)
        block_rank = np.arange(new_ids.size) - new_base[block_run]
        self._fill[new_ids] = np.minimum(B, rest[block_run] - block_rank * B)
        grew = n_new > 0
        self._tail[verts[grew]] = new_ids[(new_base + n_new - 1)[grew]]

        self._min_time[verts] = np.minimum(
            self._min_time[verts], np.minimum.reduceat(t, starts)
        )
        self._n_entries += src.size
        self.entries_inserted += src.size

    def expire_before(self, t_cut: int) -> int:
        """Remove every entry with ``timestamp < t_cut``; returns count.

        Only the blocks of vertices whose cached minimum timestamp falls
        below the cut are scanned, mimicking STINGER's ability to age out
        edges without a full structure sweep.
        """
        stale = self._min_time < t_cut
        if not stale.any():
            return 0
        owned = self._owner >= 0
        owned[owned] = stale[self._owner[owned]]
        rows = np.flatnonzero(owned)

        B = self.block_size
        live = np.arange(B) < self._fill[rows][:, None]
        keep = live & (self._time[rows] >= t_cut)
        kept = keep.sum(axis=1)
        removed = int(self._fill[rows].sum() - kept.sum())

        # compact each block in place: the j-th kept entry moves to slot j
        r, c = np.nonzero(keep)
        dest = (np.cumsum(keep, axis=1) - 1)[r, c]
        blocks = rows[r]
        self._nbr[blocks, dest] = self._nbr[blocks, c]
        self._time[blocks, dest] = self._time[blocks, c]
        self._fill[rows] = kept

        emptied = rows[kept == 0]
        self._owner[emptied] = -1
        self._seq[emptied] = -1
        self._free = np.concatenate([self._free, emptied])

        # the stale vertices' tails and minima, from their surviving blocks
        stale_vertices = np.flatnonzero(stale)
        self._tail[stale_vertices] = -1
        self._min_time[stale_vertices] = _NO_TIME
        verts, tails, minima = self._vertex_summary(
            self._live_rows(owned & (self._fill > 0))
        )
        self._tail[verts] = tails
        self._min_time[verts] = minima
        self._n_entries -= removed
        self.entries_expired += removed
        return removed

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All live entries as flat (src, dst) arrays (with multiplicity),
        vertex by vertex, each vertex's entries in insertion order."""
        rows = self._live_rows(self._owner >= 0)
        nbrs, _ = self._entries_of(rows)
        return np.repeat(self._owner[rows], self._fill[rows]), nbrs

    def snapshot_csr(self):
        """The current *simple* graph as a CSR (dedup over live entries)."""
        from repro.graph.csr import build_csr_from_edges

        src, dst = self.snapshot_arrays()
        return build_csr_from_edges(src, dst, self.n_vertices, dedup=True)

    def check_invariants(self) -> None:
        """Internal consistency check used by tests and fault injection."""
        cap, B = self.capacity, self.block_size
        bad = np.flatnonzero(
            (self._owner < -1) | (self._owner >= self.n_vertices)
        )
        if bad.size:
            raise ValidationError(
                f"block {bad[0]} has out-of-range owner {self._owner[bad[0]]}"
            )
        bad = np.flatnonzero((self._fill < 0) | (self._fill > B))
        if bad.size:
            b = bad[0]
            raise ValidationError(
                f"block {b} of vertex {self._owner[b]} has invalid fill "
                f"{self._fill[b]}"
            )
        owned = self._owner >= 0
        bad = np.flatnonzero(~owned & (self._fill != 0))
        if bad.size:
            raise ValidationError(
                f"free block {bad[0]} has fill {self._fill[bad[0]]}"
            )
        free = self._free
        if free.size and (free.min() < 0 or free.max() >= cap):
            raise ValidationError("free list holds an id outside the pool")
        on_list = np.bincount(free, minlength=cap)
        if np.any(on_list > 1):
            raise ValidationError(
                f"block {np.flatnonzero(on_list > 1)[0]} is on the free "
                "list twice"
            )
        if np.any((on_list == 1) == owned):
            b = np.flatnonzero((on_list == 1) == owned)[0]
            state = "free and owned" if owned[b] else "neither free nor owned"
            raise ValidationError(f"block {b} is {state}")
        count = int(self._fill[owned].sum())
        if count != self._n_entries:
            raise ValidationError(
                f"entry counter {self._n_entries} != actual {count}"
            )

        verts, tails, minima = self._vertex_summary(self._live_rows(owned))
        expected_tail = np.full(self.n_vertices, -1, dtype=np.int64)
        expected_tail[verts] = tails
        bad = np.flatnonzero(self._tail != expected_tail)
        if bad.size:
            u = bad[0]
            raise ValidationError(
                f"tail of vertex {u} is {self._tail[u]}, expected its "
                f"newest live block {expected_tail[u]}"
            )
        bad = np.flatnonzero(self._min_time[verts] > minima)
        if bad.size:
            raise ValidationError(
                f"min-time cache of vertex {verts[bad[0]]} is stale"
            )
