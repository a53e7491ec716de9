"""The kernel-backend contract: edge plans and the backend interface.

A *backend* owns one execution strategy for the single-window kernels'
inner gather→reduce step.  For each window the SpMV, weighted and Katz
solves ask the backend for an :class:`EdgePlan` over the window's packed
active edges (:mod:`repro.pagerank.compaction`, relabelled into the
window-local vertex space) and then call the plan once per power
iteration.  The SpMM
batch has no plan: it reads its live (edge, window) cells directly
(:class:`~repro.pagerank.spmm.ActiveCells`).  The plan is where a
backend may precompute per-window acceleration structures (the numba
plan's destination binning); the call sequence inside ``propagate`` is
required to be **bitwise-identical** to the reference flat pass::

    c = np.take(w, col)          # gather per-source shares
    c *= weights                 # optional: per-edge multiplicities
    y = segment_sum_ordered(c, rows, n_rows)

``segment_sum_ordered`` accumulates strictly sequentially per destination,
and the row ids handed to plans are grouped by destination, so any
destination-partitioned schedule that preserves within-destination order
reproduces the reference bitwise (the PR 5 zero-insertion argument).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["EdgePlan", "KernelBackend"]


class EdgePlan:
    """A per-window propagation plan over one fixed edge list.

    Attributes
    ----------
    col:
        ``(n_edges,)`` source vertex per edge (gather indices).
    rows:
        ``(n_edges,)`` destination vertex per edge, grouped by
        destination (non-decreasing for the pull kernels).
    n_rows:
        Output vector length (number of vertices).
    n_edges:
        Edge count this plan traverses per iteration.
    """

    def __init__(
        self, col: np.ndarray, rows: np.ndarray, n_rows: int
    ) -> None:
        self.col = col
        self.rows = rows
        self.n_rows = int(n_rows)
        self.n_edges = int(col.shape[0])

    def propagate(
        self,
        w: np.ndarray,
        weights: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        contrib: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One gather→reduce pass for a single rank vector.

        Parameters
        ----------
        w:
            ``(n_rows,)`` per-source share vector (``x * inv_outdeg``).
        weights:
            Optional ``(n_edges,)`` per-edge multiplicities (the weighted
            kernel).
        out:
            Optional ``(n_rows,)`` float64 result buffer, fully
            overwritten (a workspace rank buffer in the hot kernels).
        contrib:
            Optional ``(n_edges,)`` float64 gather scratch; allocated per
            call when absent.
        """
        raise NotImplementedError


class KernelBackend:
    """Factory of :class:`EdgePlan` instances for one execution strategy.

    Attributes
    ----------
    name:
        Registry name of the strategy actually executing (``"numpy"``,
        ``"numba"``).
    """

    name = "abstract"

    def make_plan(
        self,
        col: np.ndarray,
        rows: np.ndarray,
        n_rows: int,
        workspace=None,
        key: str = "plan",
        capacity: Optional[int] = None,
    ) -> EdgePlan:
        """Build the per-window plan for one packed edge list.

        ``workspace``/``key``/``capacity`` let backends pool their
        precomputed per-edge arrays the way the kernels pool their
        iteration scratch: ``capacity`` is an upper bound on any window's
        edge count in the structure (its group count), so a pooled buffer
        allocated once serves every window of a chain sliced to the
        current edge count.
        """
        raise NotImplementedError
