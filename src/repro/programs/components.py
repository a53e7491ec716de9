"""Temporal connected components as a vertex program.

The paper's Section 3.1 lists "connecting component" among the kernels the
sliding-window methodology carries over to; incremental sliding-window
connectivity (Zhang et al.) and components in stream graphs (Rannou et
al.) are the related analyses.  Like k-core this is a non-iterative
fixpoint: each window is labelled from scratch on the sequential schedule.

Each vertex's value is the size of its weakly connected component in the
window's undirected simple graph (the one :mod:`repro.programs.kcore`
peels); inactive vertices get 0.  A size, not a component label, because
the postmortem model solves in each multi-window graph's compacted local
vertex ids, so any min-label would differ between execution models while
a size does not depend on vertex ids.  Sizes are therefore bitwise-equal
across models and executors, and the rank-store / query tier serves them
unchanged (top-k answers "who sits in the largest components").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.csgraph import connected_components

from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.pagerank.result import PagerankResult
from repro.programs.base import VertexProgram, fixpoint_result
from repro.programs.kcore import undirected_simple_csr, undirected_window_csr

__all__ = ["ComponentsProgram", "component_sizes"]


def component_sizes(g: CSRGraph, active: np.ndarray) -> np.ndarray:
    """Per-vertex size of its connected component in the symmetrized
    simple graph ``g``; 0 where ``active`` is False.  A vertex whose only
    events are self-loops is its own component of size 1."""
    n_components, labels = connected_components(g.to_scipy(), directed=False)
    sizes = np.bincount(labels, minlength=n_components)
    return np.where(np.asarray(active, dtype=bool), sizes[labels], 0)


@dataclass(frozen=True)
class ComponentsProgram(VertexProgram):
    """Per-window weakly connected component sizes on the engine stack."""

    name = "components"
    iterative = False

    # -- temporal surface ----------------------------------------------
    def init_window(self, view: WindowView) -> Optional[np.ndarray]:
        return None

    def solve_window(
        self,
        view: WindowView,
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
    ) -> PagerankResult:
        sizes = component_sizes(
            undirected_window_csr(view), view.active_vertices_mask
        )
        return fixpoint_result(
            sizes, view.n_active_edges, view.n_active_vertices
        )

    # -- materialized surface ------------------------------------------
    def solve_graph(
        self,
        graph: CSRGraph,
        active: np.ndarray,
        *,
        prev_values: Optional[np.ndarray] = None,
        prev_active: Optional[np.ndarray] = None,
    ) -> PagerankResult:
        src, dst = graph.edges()
        und = undirected_simple_csr(src, dst, graph.n_vertices)
        mask = np.asarray(active, dtype=bool)
        return fixpoint_result(
            component_sizes(und, mask), graph.n_edges, int(mask.sum())
        )
