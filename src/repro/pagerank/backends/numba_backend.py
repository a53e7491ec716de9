"""Optional numba-JIT variant of the partition-centric backend.

Identical binning to :class:`~repro.pagerank.backends.pcpm.PcpmBackend`;
when numba is importable the per-partition 1-D reduce is a JIT-compiled
fused gather→mask→weight→accumulate loop (realizing the locality win the
NumPy slices can only approximate).  The scalar loop adds each edge's
contribution to its destination **in array order** — exactly the
accumulation order of ``np.bincount`` — so the result stays
bitwise-identical to every other backend.

Without numba (this container does not ship it) the backend **degrades
gracefully**: plans fall back to the inherited NumPy per-partition path,
``numba_available()`` reports ``False``, and nothing raises.  The batched
(SpMM) propagation always uses the inherited path.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.pagerank.backends.pcpm import (
    DEFAULT_CACHE_BUDGET,
    PcpmBackend,
    PcpmPlan,
)

__all__ = ["NumbaBackend", "NumbaPlan", "numba_available"]

#: lazily compiled kernel cache: ``checked`` flips after the first import
#: attempt so a missing numba costs one failed import per process
_JIT = {"checked": False, "pull_1d": None}

_EMPTY_F64 = np.zeros(0, dtype=np.float64)
_EMPTY_BOOL = np.zeros(0, dtype=np.bool_)


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


def _load_pull_1d():
    """Compile (once) the fused per-partition pull loop; None if numba
    is absent or compilation fails."""
    if _JIT["checked"]:
        return _JIT["pull_1d"]
    _JIT["checked"] = True
    try:
        import numba
    except Exception:
        return None

    @numba.njit(fastmath=False)
    def pull_1d(col, dst_local, w, mask, weights, has_mask, has_weights,
                seg):
        seg[:] = 0.0
        # lint: disable=csr-python-loop — inside @njit the scalar loop is compiled, not interpreted
        for e in range(col.shape[0]):
            v = w[col[e]]
            if has_mask:
                v = v * mask[e]
            if has_weights:
                v = v * weights[e]
            seg[dst_local[e]] += v

    _JIT["pull_1d"] = pull_1d
    return pull_1d


class NumbaPlan(PcpmPlan):
    """PCPM plan whose 1-D propagation runs the fused JIT loop."""

    def propagate(
        self,
        w: np.ndarray,
        mask: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        contrib: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        pull_1d = _load_pull_1d()
        if pull_1d is None:
            return super().propagate(
                w, mask=mask, weights=weights, out=out, contrib=contrib
            )
        n = self.n_rows
        if out is None:
            out = np.empty(n, dtype=np.float64)
        width = self.width
        pstart = self.pstart
        mask_arr = _EMPTY_BOOL if mask is None else mask
        weights_arr = _EMPTY_F64 if weights is None else weights
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
                mask_arr[lo:hi] if mask is not None else _EMPTY_BOOL,
                weights_arr[lo:hi] if weights is not None else _EMPTY_F64,
                mask is not None, weights is not None, seg,
            )
        return out


class NumbaBackend(PcpmBackend):
    """Cache-budgeted PCPM backend with the JIT-fused 1-D reduce."""

    name = "numba"

    def __init__(self, cache_budget: int = DEFAULT_CACHE_BUDGET) -> None:
        super().__init__(cache_budget)

    def make_plan(
        self,
        col: np.ndarray,
        rows: np.ndarray,
        n_rows: int,
        workspace=None,
        key: str = "plan",
        capacity: Optional[int] = None,
    ) -> PcpmPlan:
        return NumbaPlan(
            col, rows, n_rows, self.width,
            workspace=workspace, key=key, capacity=capacity,
        )
