"""The default flat NumPy backend.

One gather + one sequential segment reduction per iteration — exactly
the op sequence the kernels inlined before the backend registry existed,
so this backend *is* the bitwise reference the others are tested
against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.pagerank.backends.base import EdgePlan, KernelBackend
from repro.utils.segments import segment_sum_ordered

__all__ = ["NumpyBackend", "NumpyPlan"]


class NumpyPlan(EdgePlan):
    """Flat plan: no precomputation beyond holding the edge list."""

    def propagate(
        self,
        w: np.ndarray,
        weights: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        contrib: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if contrib is None:
            c = w.take(self.col)
        else:
            c = contrib
            w.take(self.col, out=c)
        if weights is not None:
            c *= weights
        return segment_sum_ordered(c, self.rows, self.n_rows, out=out)


class NumpyBackend(KernelBackend):
    """Backend producing :class:`NumpyPlan` (the bitwise reference)."""

    name = "numpy"

    def make_plan(
        self,
        col: np.ndarray,
        rows: np.ndarray,
        n_rows: int,
        workspace=None,
        key: str = "plan",
        capacity: Optional[int] = None,
    ) -> NumpyPlan:
        return NumpyPlan(col, rows, n_rows)
