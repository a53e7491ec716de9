"""Optional numba-JIT destination-partitioned backend.

Lakhotia, Kannan & Prasanna, "Accelerating PageRank using Partition-Centric
Processing" (USENIX ATC'18): bin destination updates into vertex partitions
sized so each partition's slice of the rank vector fits a cache budget,
then reduce one partition at a time.  The pull edge lists the kernels hand
us are already **grouped by destination** (the packed active edges keep
the in-CSR row order), so the binning needs no permutation:
partition ``p`` owns the contiguous edge span ``pstart[p]:pstart[p+1]``
found by one ``searchsorted`` over the row ids, and the per-partition
local destination is just ``rows % width``.  That is the per-window
precomputation (:meth:`NumbaBackend.make_plan`, workspace-pooled like
compaction).

The partitioning only pays with a fused reduce, so each partition's 1-D
pass is a JIT-compiled gather→weight→accumulate loop.  The scalar
loop adds each edge's contribution to its destination **in array order**
— exactly the accumulation order of ``np.bincount`` — and all edges of one
destination live in exactly one partition, so the result stays
bitwise-identical to the flat pass.

Without numba the backend **degrades gracefully**: ``make_plan`` returns
the flat :class:`~repro.pagerank.backends.numpy_backend.NumpyPlan`,
``numba_available()`` reports ``False``, and nothing raises.  A plan
whose compilation fails runs the inherited flat pass.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.pagerank.backends.base import KernelBackend
from repro.pagerank.backends.numpy_backend import NumpyPlan

__all__ = [
    "DEFAULT_CACHE_BUDGET",
    "NumbaBackend",
    "NumbaPlan",
    "numba_available",
]

#: default per-partition rank-slice budget in bytes: 256 KiB, the typical
#: per-core L2 share — 32768 float64 vertices per partition
DEFAULT_CACHE_BUDGET = 262_144

_EMPTY_F64 = np.zeros(0, dtype=np.float64)


@functools.cache
def numba_available() -> bool:
    """True iff ``import numba`` succeeds in this environment.

    Memoized: ``backend="auto"`` asks once per window, and a failed
    import is not cached by Python, so each retry would rescan
    ``sys.path``.  ``numba_available.cache_clear()`` forgets the answer.
    """
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


@functools.cache
def _load_pull_1d():
    """Compile (once) the fused per-partition pull loop; None if numba
    is absent or compilation fails.  ``_load_pull_1d.cache_clear()``
    forgets the kernel."""
    try:
        import numba
    except Exception:
        return None

    @numba.njit(fastmath=False)
    def pull_1d(col, dst_local, w, weights, has_weights, seg):
        seg[:] = 0.0
        # lint: disable=csr-python-loop — inside @njit the scalar loop is compiled, not interpreted
        for e in range(col.shape[0]):
            v = w[col[e]]
            if has_weights:
                v = v * weights[e]
            seg[dst_local[e]] += v

    return pull_1d


class NumbaPlan(NumpyPlan):
    """Destination-partitioned plan whose 1-D propagation runs the fused
    JIT loop.

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
                "partitioned plans require destination-grouped "
                "(non-decreasing) row ids; the pull edge lists satisfy "
                "this by construction"
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
        weights: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        contrib: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        pull_1d = _load_pull_1d()
        if pull_1d is None:
            return super().propagate(
                w, weights=weights, out=out, contrib=contrib
            )
        n = self.n_rows
        if out is None:
            out = np.empty(n, dtype=np.float64)
        width = self.width
        pstart = self.pstart
        for p in range(self.n_parts):
            lo, hi = int(pstart[p]), int(pstart[p + 1])
            base = p * width
            wd = min(width, n - base)
            seg = out[base: base + wd]
            if lo == hi:
                seg[:] = 0.0
                continue
            pull_1d(
                self.col[lo:hi], self.dst_local[lo:hi], w,
                weights[lo:hi] if weights is not None else _EMPTY_F64,
                weights is not None, seg,
            )
        return out


class NumbaBackend(KernelBackend):
    """Cache-budgeted partitioned backend with the JIT-fused 1-D reduce;
    flat plans when numba is not importable."""

    name = "numba"

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
    ) -> NumpyPlan:
        if not numba_available():
            return NumpyPlan(col, rows, n_rows)
        return NumbaPlan(
            col, rows, n_rows, self.width,
            workspace=workspace, key=key, capacity=capacity,
        )
