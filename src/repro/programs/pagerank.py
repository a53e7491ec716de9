"""PageRank re-homed as the reference :class:`VertexProgram`.

Every hook delegates to one library function —
:func:`~repro.pagerank.init.local_full_initialization` /
:func:`~repro.pagerank.init.local_partial_initialization` for state
(window-local seeds, with the bits of the whole-space eq. 4),
:func:`~repro.pagerank.spmv.pagerank_window` (or the weighted variant)
and its lockstep form :func:`~repro.pagerank.spmv.pagerank_windows_lockstep`
for the temporal kernel (every schedule, SpMM regions included, steps
through it), :func:`~repro.pagerank.incremental.incremental_pagerank` for
the materialized path — so engine output is bitwise-identical to the
masked single-window oracle by construction, not by tolerance.  The
parity suite asserts this across schedules × weighting × warm starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.pagerank.config import PagerankConfig
from repro.pagerank.incremental import incremental_pagerank
from repro.pagerank.init import (
    local_full_initialization,
    local_partial_initialization,
)
from repro.pagerank.result import LockstepResult, PagerankResult
from repro.pagerank.spmv import pagerank_window, pagerank_windows_lockstep
from repro.pagerank.weighted import (
    pagerank_window_weighted,
    pagerank_windows_weighted,
)
from repro.programs.base import VertexProgram

__all__ = ["PagerankProgram"]


@dataclass(frozen=True)
class PagerankProgram(VertexProgram):
    """The paper's PageRank (eq. 1) as a vertex program.

    ``weighted`` selects the event-multiplicity-weighted kernel
    (:class:`PostmortemOptions` pairs it with the SpMV schedule).
    """

    config: PagerankConfig = field(default_factory=PagerankConfig)
    weighted: bool = False

    name = "pagerank"
    iterative = True

    # -- temporal surface ----------------------------------------------
    def init_window(self, view: WindowView) -> np.ndarray:
        return local_full_initialization(view)

    def warm_start(
        self,
        view: WindowView,
        prev_view: WindowView,
        prev_values: np.ndarray,
    ) -> np.ndarray:
        return local_partial_initialization(view, prev_view, prev_values)

    def solve_window(
        self,
        view: WindowView,
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
    ) -> PagerankResult:
        solver = pagerank_window_weighted if self.weighted else pagerank_window
        return solver(view, self.config, x0=x0, workspace=workspace)

    def solve_batch(
        self,
        views: Sequence[WindowView],
        x0: Optional[Sequence[Optional[np.ndarray]]] = None,
        *,
        workspace=None,
    ) -> LockstepResult:
        """One lockstep step: one power iteration over every window's
        packed edges (the weighted loop when ``weighted``)."""
        solver = (
            pagerank_windows_weighted if self.weighted
            else pagerank_windows_lockstep
        )
        return solver(views, self.config, x0, workspace)

    # -- materialized surface ------------------------------------------
    def solve_graph(
        self,
        graph: CSRGraph,
        active: np.ndarray,
        *,
        prev_values: Optional[np.ndarray] = None,
        prev_active: Optional[np.ndarray] = None,
    ) -> PagerankResult:
        return incremental_pagerank(
            graph,
            self.config,
            active=active,
            prev_values=prev_values,
            prev_active=prev_active,
        )
