"""Reusable kernel scratch buffers (the per-graph allocation amortizer).

A multi-window graph's windows form one sequential partial-initialization
chain, and every window's solve allocates the same transient arrays: the
per-edge contribution buffer of each power iteration (pooled at the
graph's group count, sliced to the window's |E_w| packed edges), the
compacted and window-local relabelled edge lists, and the per-vertex
scratch.  The SpMV and weighted kernels iterate
in the window's own vertex space, so their rank ping-pong pair, share,
difference and inverse-degree vectors have length |V_w|: each is pooled as
a capacity-n buffer sliced to the window (the way the compaction pools its
edge arrays at the graph's group count), and only the zero-padded residual
buffer keeps length n.
PageRank work is memory-bound, so paying the allocator (and
first-touch page faults) for the same shapes once per window per iteration
is pure overhead.

:class:`Workspace` is a keyed buffer pool: ``buffer(key, shape, dtype)``
returns the same array on every call with matching shape/dtype and
reallocates only on mismatch.  One workspace serves one partial-init chain
(one thread/process task); it is deliberately **not** thread-safe — each
concurrent chain owns its own instance.

Contract for kernels that accept a workspace: *returned* values are always
freshly owned copies; only internal scratch lives in the pool.  Callers
therefore never observe aliasing between consecutive solves.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """A pool of named scratch arrays reused across windows of one chain.

    Attributes
    ----------
    hits / misses:
        Reuse counters: ``hits`` counts buffer requests served from the
        pool, ``misses`` counts (re)allocations.  A healthy partial-init
        chain converges to hit-rate ≈ 1 after the first window.
    """

    __slots__ = ("_buffers", "hits", "misses")

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def buffer(
        self,
        key: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        """An *uninitialized* scratch array for ``key``.

        Contents are whatever the previous user of the key left behind —
        callers must fully overwrite (use :meth:`zeros` otherwise).
        """
        if isinstance(shape, int):
            shape = (shape,)
        dtype = np.dtype(dtype)
        arr = self._buffers.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = np.empty(shape, dtype=dtype)
            self._buffers[key] = arr
            self.misses += 1
        else:
            self.hits += 1
        return arr

    def zeros(
        self,
        key: str,
        shape: Tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        """Like :meth:`buffer` but zero-filled."""
        arr = self.buffer(key, shape, dtype)
        arr.fill(0)
        return arr

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(a.nbytes for a in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace(buffers={len(self._buffers)}, "
            f"bytes={self.nbytes}, hits={self.hits}, misses={self.misses})"
        )
