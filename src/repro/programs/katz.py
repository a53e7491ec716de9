"""Temporal Katz centrality as a first-class vertex program.

Katz solves the affine fixed point  x = a · A^T x + b  — the same
gather-over-in-edges shape as the PageRank pull without the degree
normalization — so its temporal kernel reuses the SpMV propagation
contract *directly*: :func:`repro.pagerank.compaction.resolve_edge_path`
picks masked vs compacted edge traversal, the
:mod:`repro.pagerank.backends` registry supplies the
``make_plan``/``propagate`` pair (numpy / numba), and the chain's
pooled workspace feeds the plan exactly as :mod:`repro.pagerank.spmv`
does.  Nathan & Bader's streaming Katz (cited in the paper's Section 3.2)
updates it incrementally; this is the *postmortem* version, with the
eq. 4-style partial-initialization warm start of Section 4.2.

:func:`katz_window` (plain ``segment_sum`` over the masked structure) is
the independent reference the program is tested against.  Batched windows
ride :func:`katz_windows_spmm` (Section 4.4's batching applied to a
second kernel); the materialized surface runs the identical affine
iteration on a simple CSR snapshot, with the same max-degree attenuation
clamp so all three execution models converge to the same fixed point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.temporal_csr import WindowView
from repro.pagerank.backends import resolve_backend
from repro.pagerank.compaction import resolve_edge_path
from repro.pagerank.config import PagerankConfig
from repro.pagerank.init import materialized_partial_initialization
from repro.pagerank.result import BatchPagerankResult, PagerankResult, WorkStats
from repro.programs.base import VertexProgram
from repro.utils.segments import _check_indptr, _sum_nonempty, segment_sum

__all__ = [
    "KatzConfig",
    "KatzProgram",
    "katz_partial_init",
    "katz_window",
    "katz_window_backend",
    "katz_windows_spmm",
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


def _effective_attenuation(view: WindowView, config: KatzConfig) -> float:
    """Clamp attenuation below 1/max_in_degree (a cheap spectral-radius
    upper bound) so the fixed point exists for every window."""
    a = config.attenuation
    if config.auto_clamp:
        dmax = int(
            max(view.in_degrees.max(initial=0), view.out_degrees.max(initial=0))
        )
        if dmax > 0:
            a = min(a, 0.9 / dmax)
    return a


def _normalized(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    return v / total if total > 0 else v


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


def katz_window(
    view: WindowView,
    config: KatzConfig = KatzConfig(),
    x0: Optional[np.ndarray] = None,
) -> PagerankResult:
    """Reference Katz centrality of one window: a plain ``segment_sum``
    over the masked structure, normalized to unit L1 mass over the active
    vertices (so warm starts transfer across windows the same way eq. 4
    does for PageRank)."""
    adjacency = view.adjacency
    n = adjacency.n_vertices
    n_active = view.n_active_vertices
    if n_active == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64), iterations=0, converged=True, residual=0.0
        )

    in_csr = adjacency.in_csr
    dedup = view.in_dedup
    col = in_csr.col
    active = view.active_vertices_mask
    a = _effective_attenuation(view, config)
    b = config.base / n_active

    if x0 is None:
        x = np.where(active, b, 0.0)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        if x.shape != (n,):
            raise ValidationError(f"x0 must have shape ({n},)")

    work = WorkStats()
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        # raw affine iteration x <- a A^T x + b; the true Katz fixed point
        # (normalizing inside the loop would change it)
        contrib = np.where(dedup, x[col], 0.0)
        y = a * segment_sum(contrib, in_csr.indptr)
        y[active] += b
        y[~active] = 0.0

        # scale-invariant residual: Katz is used for ranking, so compare
        # the normalized iterates
        residual = float(np.abs(_normalized(y) - _normalized(x)).sum())
        x = y
        work.iterations += 1
        work.edge_traversals += in_csr.nnz
        work.active_edge_traversals += view.n_active_edges
        work.vertex_ops += n_active
        if residual < config.tolerance:
            return PagerankResult(_normalized(x), it, True, residual, work)

    if config.strict:
        raise ConvergenceError(
            f"Katz did not converge in {config.max_iterations} iterations"
        )
    return PagerankResult(
        _normalized(x), config.max_iterations, False, residual, work
    )


def katz_window_backend(
    view: WindowView,
    config: KatzConfig = KatzConfig(),
    routing: PagerankConfig = PagerankConfig(),
    x0: Optional[np.ndarray] = None,
    workspace=None,
    iteration_hint: Optional[int] = None,
) -> PagerankResult:
    """Katz centrality of one window through the backend contract.

    ``routing`` contributes only the propagation policy
    (``edge_path`` / ``backend`` / ``cache_budget``); the Katz parameters
    live in ``config``.  Output is L1-normalized over the active vertices,
    like :func:`katz_window`.
    """
    adjacency = view.adjacency
    n = adjacency.n_vertices
    n_active = view.n_active_vertices
    if n_active == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64),
            iterations=0, converged=True, residual=0.0,
        )

    in_csr = adjacency.in_csr
    dedup = view.in_dedup
    nnz = in_csr.nnz
    active = view.active_vertices_mask
    a = _effective_attenuation(view, config)
    b = config.base / n_active

    path = resolve_edge_path(
        routing, nnz, view.n_active_edges, n, iteration_hint
    )
    if path == "compacted":
        packed = view.compact_pull(workspace=workspace)
        it_col, it_rows = packed.col, packed.rows
        it_nnz = packed.n_edges
    else:
        it_col, it_rows = in_csr.col, in_csr.row_ids()
        it_nnz = nnz
    it_mask = dedup if path != "compacted" else None

    work = WorkStats()
    backend = resolve_backend(routing, it_nnz, n, iteration_hint)
    t_bin = time.perf_counter()
    plan = backend.make_plan(
        it_col, it_rows, n,
        workspace=workspace, key="katz.plan", capacity=nnz,
    )
    work.binning_seconds += time.perf_counter() - t_bin

    if x0 is None:
        x = np.where(active, b, 0.0)
    else:
        x = np.asarray(x0, dtype=np.float64)
        if x.shape != (n,):
            raise ValidationError(f"x0 must have shape ({n},), got {x.shape}")
        x = x.copy()

    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        # raw affine iteration x <- a A^T x + b (the true fixed point);
        # the residual compares normalized iterates, scale-invariantly
        t_prop = time.perf_counter()
        y = plan.propagate(x, mask=it_mask)
        work.propagate_seconds += time.perf_counter() - t_prop
        y = y * a
        y[active] += b
        y[~active] = 0.0

        residual = float(np.abs(_normalized(y) - _normalized(x)).sum())
        x = y
        work.iterations += 1
        work.edge_traversals += it_nnz
        work.active_edge_traversals += view.n_active_edges
        work.vertex_ops += n_active
        if residual < config.tolerance:
            return PagerankResult(_normalized(x), it, True, residual, work)

    if config.strict:
        raise ConvergenceError(
            f"Katz did not converge in {config.max_iterations} iterations"
        )
    return PagerankResult(
        _normalized(x), config.max_iterations, False, residual, work
    )


def _normalized_columns(M: np.ndarray) -> np.ndarray:
    totals = M.sum(axis=0)
    out = M.copy()
    nz = totals > 0
    out[:, nz] /= totals[nz]
    return out


def katz_windows_spmm(
    views: Sequence[WindowView],
    config: KatzConfig = KatzConfig(),
    x0: Optional[np.ndarray] = None,
) -> BatchPagerankResult:
    """Solve k windows' Katz centralities in one batched iteration loop.

    The SpMM trick is not PageRank-specific: any iterative kernel whose
    step is a gather over the shared multi-window structure can advance k
    windows per structure pass, exactly like
    :func:`repro.pagerank.spmm.pagerank_windows_spmm`.  All views must
    share one multi-window adjacency.  Column j of the result is the
    (L1-normalized) Katz vector of ``views[j]``.
    """
    if not views:
        raise ValidationError("need at least one window view")
    adjacency = views[0].adjacency
    for v in views[1:]:
        if v.adjacency is not adjacency:
            raise ValidationError(
                "batched Katz requires all windows from the same "
                "multi-window graph"
            )

    n = adjacency.n_vertices
    k = len(views)
    in_csr = adjacency.in_csr
    col = in_csr.col

    dedup = np.empty((in_csr.nnz, k), dtype=np.bool_)
    for j, v in enumerate(views):
        dedup[:, j] = v.in_dedup
    active = np.stack([v.active_vertices_mask for v in views], axis=1)
    n_active = np.array([v.n_active_vertices for v in views], dtype=np.int64)
    active_edge_counts = np.array(
        [v.n_active_edges for v in views], dtype=np.int64
    )
    a = np.array([_effective_attenuation(v, config) for v in views])
    safe = np.maximum(n_active, 1)
    b = np.where(n_active > 0, config.base / safe, 0.0)

    if x0 is None:
        X = active * b  # uniform base per column
    else:
        X = np.asarray(x0, dtype=np.float64).copy()
        if X.shape != (n, k):
            raise ValidationError(f"x0 must have shape ({n}, {k})")

    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.full(k, np.inf, dtype=np.float64)
    converged = n_active == 0
    residuals[converged] = 0.0
    work = WorkStats()

    live = ~converged
    it = 0
    while live.any() and it < config.max_iterations:
        it += 1
        idx = np.flatnonzero(live)
        Xl = X[:, idx]
        C = Xl[col, :] * dedup[:, idx]
        Y = segment_sum(C, in_csr.indptr) * a[idx]
        Y += b[idx] * active[:, idx]
        Y[~active[:, idx]] = 0.0

        res = np.abs(_normalized_columns(Y) - _normalized_columns(Xl)).sum(axis=0)
        X[:, idx] = Y
        iterations[idx] += 1
        residuals[idx] = res
        work.iterations += 1
        work.edge_traversals += in_csr.nnz
        work.active_edge_traversals += int(active_edge_counts[idx].sum())
        work.vertex_ops += int(n_active[idx].sum())

        newly = res < config.tolerance
        converged[idx[newly]] = True
        live = ~converged

    return BatchPagerankResult(
        values=_normalized_columns(X),
        window_indices=[v.window.index for v in views],
        iterations_per_window=iterations,
        converged=converged,
        residuals=residuals,
        work=work,
    )


def _katz_graph(
    graph: CSRGraph,
    config: KatzConfig,
    active: np.ndarray,
    prev_values: Optional[np.ndarray] = None,
    prev_active: Optional[np.ndarray] = None,
) -> PagerankResult:
    """The materialized-surface Katz solve (offline / streaming models).

    Same attenuation clamp and normalization as the temporal kernels, so
    every execution model converges to one fixed point per window.
    """
    n = graph.n_vertices
    mask = np.asarray(active, dtype=bool)
    n_active = int(mask.sum())
    if n_active == 0:
        return PagerankResult(
            values=np.zeros(n, dtype=np.float64),
            iterations=0, converged=True, residual=0.0,
        )

    in_graph = graph.transpose()
    in_col = in_graph.col
    in_indptr = _check_indptr(in_graph.indptr, in_col.size)
    nonempty = in_indptr[:-1] < in_indptr[1:]
    starts = in_indptr[:-1][nonempty]
    a = config.attenuation
    if config.auto_clamp:
        out_deg = graph.out_degrees()
        in_deg = in_graph.out_degrees()
        dmax = int(max(in_deg.max(initial=0), out_deg.max(initial=0)))
        if dmax > 0:
            a = min(a, 0.9 / dmax)
    b = config.base / n_active

    if prev_values is not None:
        # eq. 4 transfer, deliberately not shared with katz_partial_init:
        # the two group their float operations differently, and merging
        # them would change the stored bits of one of the models
        x = materialized_partial_initialization(
            mask, n_active, prev_values, prev_active
        )
    else:
        x = np.where(mask, b, 0.0)

    work = WorkStats()
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        y = a * _sum_nonempty(
            x[in_col], nonempty, starts, np.empty(n, dtype=np.float64)
        )
        y[mask] += b
        y[~mask] = 0.0
        residual = float(np.abs(_normalized(y) - _normalized(x)).sum())
        x = y
        work.iterations += 1
        work.edge_traversals += graph.n_edges
        work.active_edge_traversals += graph.n_edges
        work.vertex_ops += n_active
        if residual < config.tolerance:
            return PagerankResult(_normalized(x), it, True, residual, work)

    if config.strict:
        raise ConvergenceError(
            f"Katz did not converge in {config.max_iterations} iterations"
        )
    return PagerankResult(
        _normalized(x), config.max_iterations, False, residual, work
    )


@dataclass(frozen=True)
class KatzProgram(VertexProgram):
    """Temporal Katz centrality on the PageRank-grade stack."""

    config: KatzConfig = field(default_factory=KatzConfig)
    #: propagation policy (edge path, backend, cache budget) — the Katz
    #: parameters themselves live in ``config``
    routing: PagerankConfig = field(default_factory=PagerankConfig)

    name = "katz"
    iterative = True
    supports_batch = True

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
        iteration_hint: Optional[int] = None,
    ) -> PagerankResult:
        return katz_window_backend(
            view, self.config, self.routing, x0=x0,
            workspace=workspace, iteration_hint=iteration_hint,
        )

    def solve_batch(
        self,
        views: Sequence[WindowView],
        x0: np.ndarray,
        *,
        workspace=None,
        iteration_hint: Optional[int] = None,
    ) -> BatchPagerankResult:
        # the batched kernel manages its own scratch; workspace and the
        # edge-path hint apply only to the SpMV-shaped path
        return katz_windows_spmm(views, self.config, x0=x0)

    # -- materialized surface ------------------------------------------
    def solve_graph(
        self,
        graph: CSRGraph,
        active: np.ndarray,
        *,
        prev_values: Optional[np.ndarray] = None,
        prev_active: Optional[np.ndarray] = None,
    ) -> PagerankResult:
        return _katz_graph(
            graph, self.config, active,
            prev_values=prev_values, prev_active=prev_active,
        )
