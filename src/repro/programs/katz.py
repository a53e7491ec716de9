"""Temporal Katz centrality as a first-class vertex program.

Katz solves the affine fixed point  x = a · A^T x + b  — the same
gather-over-in-edges step as the PageRank pull, with unit source weights
instead of the degree normalization — so it has no power loop of its own.
Both solve surfaces run PageRank's loops with Katz's constants (scale
``a``, the max-degree-clamped attenuation; base ``b``) and a normalized
residual: :func:`repro.pagerank.spmv._power_iterate` per window and per
lockstep step (packed active edges included; the SpMM region schedule's
batches are lockstep steps too, so Section 4.4's batching applies to a
second analytic), and :func:`repro.pagerank.incremental.
_power_iterate_graph` for the materialized snapshots of the offline and
streaming models.  The same attenuation clamp everywhere makes all three
execution models converge to one fixed point per window.  Nathan &
Bader's streaming Katz (cited in the paper's Section 3.2) updates it
incrementally; this is the *postmortem* version, with the eq. 4-style
partial-initialization warm start of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.pagerank.config import PagerankConfig
from repro.pagerank.incremental import _power_iterate_graph
from repro.pagerank.result import LockstepResult, PagerankResult
from repro.pagerank.spmv import _power_iterate, _seeds
from repro.programs.base import VertexProgram

__all__ = [
    "KatzConfig",
    "KatzProgram",
    "katz_partial_init",
]


@dataclass(frozen=True)
class KatzConfig:
    """Katz solver parameters.

    ``attenuation`` must stay below 1/λ_max for convergence; the classic
    safe default for sparse window graphs is a small constant, and the
    kernel additionally caps the contribution per iteration via the
    max-degree bound when ``auto_clamp`` is set.
    """

    attenuation: float = 0.05
    base: float = 1.0
    tolerance: float = 1e-9
    max_iterations: int = 200
    auto_clamp: bool = True
    strict: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.attenuation < 1.0):
            raise ValidationError("attenuation must be in (0, 1)")
        if self.base <= 0:
            raise ValidationError("base must be > 0")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be > 0")
        if self.max_iterations <= 0:
            raise ValidationError("max_iterations must be > 0")


def _effective_attenuation(
    config: KatzConfig, in_degrees: np.ndarray, out_degrees: np.ndarray
) -> float:
    """Clamp attenuation below 1/max_degree (a cheap spectral-radius
    upper bound) so the fixed point exists for every window."""
    a = config.attenuation
    if config.auto_clamp:
        dmax = int(max(in_degrees.max(initial=0), out_degrees.max(initial=0)))
        if dmax > 0:
            a = min(a, 0.9 / dmax)
    return a


def katz_partial_init(
    view: WindowView,
    prev_view: WindowView,
    prev_values: np.ndarray,
) -> np.ndarray:
    """Eq. 4-style warm start for Katz: previous scores on shared
    vertices, uniform mass on new vertices, renormalized to 1."""
    prev_values = np.asarray(prev_values, dtype=np.float64)
    n = view.adjacency.n_vertices
    if prev_values.shape != (n,):
        raise ValidationError("prev_values must be a per-vertex vector")

    cur = view.active_vertices_mask
    prev = prev_view.active_vertices_mask
    shared = cur & prev
    n_cur = view.n_active_vertices
    if n_cur == 0:
        return np.zeros(n, dtype=np.float64)
    shared_mass = float(prev_values[shared].sum())
    x = np.zeros(n, dtype=np.float64)
    if shared.any() and shared_mass > 0:
        n_shared = int(shared.sum())
        x[shared] = prev_values[shared] * (n_shared / n_cur) / shared_mass
        x[cur & ~prev] = 1.0 / n_cur
    else:
        x[cur] = 1.0 / n_cur
    return x


@dataclass(frozen=True)
class KatzProgram(VertexProgram):
    """Temporal Katz centrality on the PageRank-grade stack."""

    config: KatzConfig = field(default_factory=KatzConfig)

    name = "katz"
    iterative = True

    # -- temporal surface ----------------------------------------------
    def init_window(self, view: WindowView) -> np.ndarray:
        n = view.adjacency.n_vertices
        n_active = view.n_active_vertices
        if n_active == 0:
            return np.zeros(n, dtype=np.float64)
        b = self.config.base / n_active
        return np.where(view.active_vertices_mask, b, 0.0)

    def warm_start(
        self,
        view: WindowView,
        prev_view: WindowView,
        prev_values: np.ndarray,
    ) -> np.ndarray:
        return katz_partial_init(view, prev_view, prev_values)

    def solve_window(
        self,
        view: WindowView,
        x0: Optional[np.ndarray] = None,
        *,
        workspace=None,
    ) -> PagerankResult:
        return self._lockstep([view], [x0], workspace).columns[0]

    def solve_batch(
        self,
        views: Sequence[WindowView],
        x0: Optional[Sequence[Optional[np.ndarray]]] = None,
        *,
        workspace=None,
    ) -> LockstepResult:
        """One lockstep step on PageRank's loop, one clamped attenuation
        per column."""
        return self._lockstep(views, x0, workspace)

    def _lockstep(self, views, x0, workspace) -> LockstepResult:
        c = self.config
        return _power_iterate(
            views, self._solver(),
            [self.init_window(v) if x is None else x
             for v, x in zip(views, _seeds(views, x0))],
            workspace,
            [np.ones(v.n_active_vertices, dtype=np.float64) for v in views],
            [_effective_attenuation(c, v.in_degrees, v.out_degrees)
             for v in views],
            c.base, normalized=True,
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
        # the loop's eq. 4 transfer (mask_partial_initialization)
        # is deliberately not katz_partial_init: the two group their float
        # operations differently, and merging them would change the stored
        # bits of one of the models
        n = graph.n_vertices
        a = _effective_attenuation(
            self.config,
            np.bincount(graph.col, minlength=n),
            graph.out_degrees(),
        )
        return _power_iterate_graph(
            graph, self._solver(), np.asarray(active, dtype=bool),
            self.config.base, prev_values, prev_active,
            np.ones(n, dtype=np.float64), a, self.config.base,
            normalized=True,
        )

    def _solver(self) -> PagerankConfig:
        """Katz's tolerance, iteration cap and strictness in the form the
        shared power loops read.  The loops take the step's scale and
        base as arguments, and Katz's unit out-weights leave no dangling
        vertex, so no other field matters."""
        c = self.config
        return PagerankConfig(
            tolerance=c.tolerance, max_iterations=c.max_iterations,
            strict=c.strict,
        )
