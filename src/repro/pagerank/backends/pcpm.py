"""Partition-centric (PCPM-style) propagation backend.

Lakhotia, Kannan & Prasanna, "Accelerating PageRank using Partition-Centric
Processing" (USENIX ATC'18): bin destination updates into vertex partitions
sized so each partition's slice of the rank vector fits a cache budget,
then reduce one partition at a time — the scattered full-width random
traffic of a flat pass becomes per-partition streaming passes.

The pull edge lists the kernels hand us are already **grouped by
destination** (the in-CSR row ids, and every compacted pack preserves that
order), so the binning needs no permutation at all: partition ``p`` owns
the contiguous edge span ``pstart[p]:pstart[p+1]`` found by one
``searchsorted`` over the row ids, and the per-partition local destination
is just ``rows % width``.  That is the per-window precomputation
(:meth:`PcpmBackend.make_plan`, workspace-pooled like compaction); each
iteration then runs gather → per-partition sequential ``bincount`` reduce.

**Bitwise identity** with the flat backend: ``np.bincount`` accumulates
strictly sequentially in array order, all edges of one destination live in
exactly one partition, and slicing an elementwise gather/multiply does not
change its values — so every destination receives the same additions in
the same order as the reference full-width reduction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.pagerank.backends.base import EdgePlan, KernelBackend
from repro.utils.segments import segment_sum_ordered

__all__ = [
    "DEFAULT_CACHE_BUDGET",
    "PcpmBackend",
    "PcpmPlan",
    "accumulate_binned",
]

#: default per-partition rank-slice budget in bytes: 256 KiB, the typical
#: per-core L2 share — 32768 float64 vertices per partition
DEFAULT_CACHE_BUDGET = 262_144


def accumulate_binned(
    contrib: np.ndarray,
    dst: np.ndarray,
    bin_starts: np.ndarray,
    bin_ends: np.ndarray,
    bin_width: int,
    out: np.ndarray,
) -> np.ndarray:
    """Per-bin sequential accumulation shared with the PB kernel.

    ``contrib``/``dst`` are grouped by destination bin (bin ``b`` spans
    ``bin_starts[b]:bin_ends[b]``); each bin's sums land in
    ``out[b*bin_width : b*bin_width + width]`` additively, so ``out`` must
    arrive zero-filled.  ``np.bincount`` keeps the within-destination
    accumulation strictly sequential, which is why both the PB kernel and
    this backend are bitwise-invariant in the bin width.
    """
    n = out.shape[0]
    for b in range(bin_starts.size):
        lo, hi = int(bin_starts[b]), int(bin_ends[b])
        if lo == hi:
            continue
        base = b * bin_width
        width = min(bin_width, n - base)
        out[base: base + width] += np.bincount(
            dst[lo:hi] - base, weights=contrib[lo:hi], minlength=width
        )
    return out


class PcpmPlan(EdgePlan):
    """Destination-partitioned plan over one destination-grouped edge list.

    Attributes
    ----------
    width:
        Vertices per partition (``cache_budget // 8``).
    n_parts:
        Partition count ``ceil(n_rows / width)``.
    pstart:
        ``(n_parts + 1,)`` edge-span boundaries per partition.
    dst_local:
        ``(n_edges,)`` partition-local destination ids (``rows % width``).
    """

    def __init__(
        self,
        col: np.ndarray,
        rows: np.ndarray,
        n_rows: int,
        width: int,
        workspace=None,
        key: str = "plan",
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(col, rows, n_rows)
        if rows.size and np.any(rows[1:] < rows[:-1]):
            raise ValidationError(
                "PCPM plans require destination-grouped (non-decreasing) "
                "row ids; the pull edge lists satisfy this by construction"
            )
        self.width = int(width)
        self.n_parts = -(-self.n_rows // self.width)
        bases = np.arange(self.n_parts + 1, dtype=np.int64) * self.width
        self.pstart = np.searchsorted(rows, bases)
        if workspace is not None and capacity is not None:
            buf = workspace.buffer(
                key + ".dst_local", (int(capacity),), np.int64
            )[: self.n_edges]
            np.mod(rows, self.width, out=buf, casting="unsafe")
            self.dst_local = buf
        else:
            self.dst_local = rows % self.width

    def propagate(
        self,
        w: np.ndarray,
        mask: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        contrib: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n = self.n_rows
        if out is None:
            out = np.empty(n, dtype=np.float64)
        if contrib is None and self.n_edges:
            contrib = np.empty(self.n_edges, dtype=np.float64)
        width = self.width
        pstart = self.pstart
        for p in range(self.n_parts):
            lo, hi = int(pstart[p]), int(pstart[p + 1])
            base = p * width
            wd = min(width, n - base)
            if lo == hi:
                out[base: base + wd] = 0.0
                continue
            cs = contrib[lo:hi]
            w.take(self.col[lo:hi], out=cs)
            if mask is not None:
                cs *= mask[lo:hi]
            if weights is not None:
                cs *= weights[lo:hi]
            out[base: base + wd] = np.bincount(
                self.dst_local[lo:hi], weights=cs, minlength=wd
            )
        return out

    def propagate_batch(
        self,
        W: np.ndarray,
        active: np.ndarray,
        out: Optional[np.ndarray] = None,
        contrib: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n = self.n_rows
        k = W.shape[1]
        if out is None:
            out = np.empty((n, k), dtype=np.float64)
        width = self.width
        pstart = self.pstart
        for p in range(self.n_parts):
            lo, hi = int(pstart[p]), int(pstart[p + 1])
            base = p * width
            wd = min(width, n - base)
            block = out[base: base + wd]
            if lo == hi:
                block[...] = 0.0
                continue
            if contrib is None:
                Cp = np.take(W, self.col[lo:hi], axis=0)
            else:
                Cp = contrib[lo:hi]
                np.take(W, self.col[lo:hi], axis=0, out=Cp)
            Cp *= active[lo:hi]
            segment_sum_ordered(
                Cp, self.dst_local[lo:hi], wd, out=block,
                scratch=None if scratch is None else scratch[lo:hi],
            )
        return out


class PcpmBackend(KernelBackend):
    """Backend producing :class:`PcpmPlan` under a cache budget."""

    name = "pcpm"

    def __init__(self, cache_budget: int = DEFAULT_CACHE_BUDGET) -> None:
        if cache_budget <= 0:
            raise ValidationError(
                f"cache_budget must be > 0 bytes, got {cache_budget}"
            )
        self.cache_budget = int(cache_budget)
        #: vertices whose float64 rank entries fill the cache budget
        self.width = max(1, self.cache_budget // 8)

    def make_plan(
        self,
        col: np.ndarray,
        rows: np.ndarray,
        n_rows: int,
        workspace=None,
        key: str = "plan",
        capacity: Optional[int] = None,
    ) -> PcpmPlan:
        return PcpmPlan(
            col, rows, n_rows, self.width,
            workspace=workspace, key=key, capacity=capacity,
        )

    def pb_bin_width(self, n_vertices: int, n_bins: int) -> int:
        """PB bins adopt the cache-budgeted partition width (the
        requested bin count is superseded by the budget)."""
        return min(self.width, max(n_vertices, 1))
