"""The temporal vertex-program contract.

The paper's machinery below the driver layer — multi-window partitioning
(Section 4.1), partial-initialization chains (Section 4.2), pooled
workspaces, executors and edge compaction — is
PageRank-agnostic in principle: any per-window analytic that initializes a
per-vertex state, runs a (possibly iterative) propagation step over a
:class:`~repro.graph.temporal_csr.WindowView` and tests convergence can
ride the same stack.  :class:`VertexProgram` captures exactly that shape.

A program exposes **two solve surfaces**, one per graph representation:

* the *temporal* surface (``init_window`` / ``warm_start`` /
  ``solve_window`` / ``solve_batch``) operates on window views of
  a multi-window temporal CSR — the postmortem engine
  (:mod:`repro.programs.engine`) drives it through warm-start chains run
  in lockstep (whole graphs, or the regions of the SpMM schedule);
* the *materialized* surface (``solve_graph``) operates on a per-window
  simple :class:`~repro.graph.csr.CSRGraph` — the offline and streaming
  drivers use it, which is what makes cross-model parity a property every
  program inherits instead of a PageRank-only test.

Programs are small frozen dataclasses holding only configuration, so the
``shared`` executor can pickle them to its worker processes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.pagerank.result import LockstepResult, PagerankResult, WorkStats

__all__ = ["VertexProgram", "fixpoint_result"]


def fixpoint_result(
    values: np.ndarray, n_edges: int, n_active: int
) -> PagerankResult:
    """Wrap a non-iterative program's per-vertex answer (one pass over
    ``n_edges`` edges, no convergence loop) as a solved window."""
    work = WorkStats()
    work.edge_traversals += n_edges
    work.active_edge_traversals += n_edges
    work.vertex_ops += n_active
    return PagerankResult(
        values=values.astype(np.float64),
        iterations=0,
        converged=True,
        residual=0.0,
        work=work,
    )


class VertexProgram:
    """Base class for per-window vertex analytics.

    Attributes
    ----------
    name:
        The program's registry name (recorded in run metadata and rank
        stores so the serving layer knows what it is serving).
    iterative:
        Whether windows chain: iterative programs are warm-started from
        the previous window's solution (``warm_start``); non-iterative
        fixpoints (k-core) solve each window independently and never
        receive an ``x0``.  Only iterative programs run the SpMM
        region schedule.

    Every window solution is a per-vertex float vector in the view's local
    space; the engine scatters it to the global space and can stream it
    into rank stores.  Custom analytics subclass this class and pass the
    instance wherever a program name is accepted.
    """

    name: str = "program"
    iterative: bool = True

    # -- temporal surface (postmortem engine) --------------------------
    def init_window(self, view: WindowView) -> Optional[np.ndarray]:
        """Cold-start state for one window (``None`` for non-iterative
        programs, which take no initial vector)."""
        raise NotImplementedError

    def warm_start(
        self,
        view: WindowView,
        prev_view: WindowView,
        prev_values: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Warm-start ``view`` from its predecessor's solution (the
        generalization of eq. 4 partial initialization).  Defaults to a
        cold start for programs without a useful transfer."""
        return self.init_window(view)

    def solve_window(
        self,
        view: WindowView,
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
    ) -> PagerankResult:
        """Solve one window in the view's local vertex space.

        ``workspace`` is the chain's pooled
        :class:`~repro.pagerank.workspace.Workspace`; programs that use it
        must still return freshly owned values.
        """
        raise NotImplementedError

    def solve_batch(
        self,
        views: Sequence[WindowView],
        x0: Optional[Sequence[Optional[np.ndarray]]] = None,
        *,
        workspace=None,
    ) -> LockstepResult:
        """Solve one lockstep step: ``x0[j]`` seeds ``views[j]``, and the
        views may come from different graphs (or different regions of
        one), each solved in its own vertex space.  Column ``j`` of the
        returned :class:`~repro.pagerank.result.LockstepResult` must
        equal ``solve_window(views[j], x0[j])`` bit for bit.  The default
        solves the columns one by one; kernels with a batched loop
        override it.  ``x0=None`` starts every column cold.
        """
        seeds = [None] * len(views) if x0 is None else x0
        return LockstepResult(
            [self.solve_window(v, x) for v, x in zip(views, seeds)]
        )

    # -- materialized surface (offline / streaming drivers) ------------
    def solve_graph(
        self,
        graph: CSRGraph,
        active: np.ndarray,
        *,
        prev_values: Optional[np.ndarray] = None,
        prev_active: Optional[np.ndarray] = None,
    ) -> PagerankResult:
        """Solve one window materialized as a simple graph (global vertex
        space).  ``prev_values``/``prev_active`` warm-start iterative
        programs across streamed windows; offline runs pass neither."""
        raise NotImplementedError
