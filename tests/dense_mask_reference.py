"""The dense-mask single-window power iteration, kept as a test oracle.

Before the single-window kernels iterated over each window's packed
active edges in a window-local vertex space, they streamed every stored
event of the multi-window graph each iteration, zeroed the inactive ones
with the window's first-active-event mask, and kept rank vectors of
length ``n`` with the active set applied by boolean vertex masks and the
residual run over all ``n`` entries.  This module is that loop, unchanged
in arithmetic and independent of the library's packing, so
the differential tests can require the SpMV, weighted and Katz solves to
match it bit for bit — one window at a time, or any number of windows
stepped together by the lockstep loop (the SpMM region schedule's
batches included).  It also keeps the other whole-structure oracles:
:func:`in_dedup`, a window's Θ(nnz) first-active-event mask, and
:func:`katz_window`, the plain ``segment_sum`` Katz reference.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.graph.multiwindow import LazyMultiWindowPartition
from repro.graph.temporal_csr import WindowView
from repro.models.schedule import spmm_region_schedule
from repro.pagerank import (
    Workspace,
    pagerank_window,
    pagerank_window_weighted,
    partial_initialization,
)
from repro.pagerank.config import PagerankConfig
from repro.errors import ConvergenceError, ValidationError
from repro.pagerank.init import full_initialization
from repro.pagerank.result import PagerankResult, WorkStats
from repro.programs.katz import KatzConfig, KatzProgram, _effective_attenuation
from repro.utils.segments import segment_sum, segment_sum_ordered

__all__ = [
    "ChainResult",
    "dense_mask_katz",
    "dense_mask_pagerank",
    "in_dedup",
    "katz_window",
    "pair_multiplicities",
    "reference_chain",
    "whole_space",
]


def in_dedup(view: WindowView) -> np.ndarray:
    """The in-orientation's first-active-event mask of ``view``'s window
    (``(nnz,)`` bool): one True per active simple edge, at the group's
    first event in the window — a Θ(nnz) pass over the stored events."""
    return view.adjacency.in_csr.dedup_mask(
        view.window.t_start, view.window.t_end
    )


def pair_multiplicities(csr, t_start: int, t_end: int):
    """``(rows, cols, counts)`` of one orientation's window: every
    distinct (row, neighbor) pair with an event in ``[t_start, t_end]``,
    in (row, neighbor) order, and its event count — ``np.unique`` over
    the active events, independent of the group index."""
    active = csr.active_mask(t_start, t_end)
    pairs = np.stack([csr.row_ids()[active], csr.col[active]])
    uniq, counts = np.unique(pairs, axis=1, return_counts=True)
    return uniq[0], uniq[1], counts


def whole_space(view: WindowView, x0) -> np.ndarray:
    """A seed as a fresh ``(n,)`` vector: a whole-space seed is copied, a
    window-local one (the value of each vertex of ``view.active_idx``,
    as the programs' ``init_window``/``warm_start`` return it) is
    scattered, 0 off the window."""
    x0 = np.asarray(x0, dtype=np.float64)
    n = view.adjacency.n_vertices
    if x0.shape == (n,):
        return x0.copy()
    if x0.shape != (view.n_active_vertices,):
        raise ValidationError(f"x0 must have shape ({n},)")
    x = np.zeros(n, dtype=np.float64)
    x[view.active_idx] = x0
    return x


def _unit_mass(values: np.ndarray, total: float) -> np.ndarray:
    return values / np.where(total > 0, total, 1.0)


def _masked_loop(
    view: WindowView,
    config: PagerankConfig,
    x: np.ndarray,
    inv_out: np.ndarray,
    dangling_idx: np.ndarray,
    scale: float,
    base: float,
    weights: Optional[np.ndarray] = None,
    normalized: bool = False,
) -> PagerankResult:
    """``y = scale * A^T (x * inv_out) + dangling + base / |V_w|`` over
    the whole vertex space, every stored event gathered and the inactive
    ones zeroed by the first-active-event mask (``weights`` per stored
    event, zero off the mask).  ``normalized`` compares and returns
    unit-mass iterates (Katz)."""
    in_csr = view.adjacency.in_csr
    n = view.adjacency.n_vertices
    dedup = in_dedup(view)
    rows = in_csr.row_ids()
    active_mask = view.active_vertices_mask
    n_active = view.n_active_vertices
    teleport = base / n_active
    total = float(np.add.reduce(x))
    residual = np.inf
    for it in range(1, config.max_iterations + 1):
        c = (x * inv_out).take(in_csr.col)
        c *= dedup
        if weights is not None:
            c *= weights
        y = segment_sum_ordered(c, rows, n)
        y *= scale
        if config.dangling == "uniform" and dangling_idx.size:
            dangling_mass = float(x[dangling_idx].sum())
            if dangling_mass:
                y[active_mask] += scale * dangling_mass / n_active
        y[active_mask] += teleport
        y[~active_mask] = 0.0
        if normalized:
            y_total = float(np.add.reduce(y))
            diff = _unit_mass(y, y_total) - _unit_mass(x, total)
            total = y_total
        else:
            diff = y - x
        residual = float(np.abs(diff).sum())
        x = y
        if residual < config.tolerance:
            break
    values = _unit_mass(x, total) if normalized else x
    return PagerankResult(values, it, residual < config.tolerance, residual)


def _empty(n: int) -> PagerankResult:
    return PagerankResult(
        values=np.zeros(n, dtype=np.float64), iterations=0,
        converged=True, residual=0.0,
    )


def dense_mask_pagerank(
    view: WindowView,
    config: PagerankConfig,
    x0: Optional[np.ndarray] = None,
    weighted: bool = False,
) -> PagerankResult:
    """PageRank of one window by the whole-vertex-space masked loop.

    ``weighted`` selects the event-multiplicity weights of
    :func:`~repro.pagerank.weighted.pagerank_window_weighted`, counted
    here by ``np.unique`` rather than read off the group index.
    """
    adjacency = view.adjacency
    n = adjacency.n_vertices
    if view.n_active_vertices == 0:
        return _empty(n)

    in_csr = adjacency.in_csr
    active_mask = view.active_vertices_mask
    dedup = in_dedup(view)
    if weighted:
        *_, counts = pair_multiplicities(
            in_csr, view.window.t_start, view.window.t_end
        )
        weights = np.zeros(in_csr.nnz, dtype=np.float64)
        weights[dedup] = counts
        out_strength = np.zeros(n, dtype=np.float64)
        np.add.at(out_strength, in_csr.col[dedup], weights[dedup])
        inv_out = np.zeros(n, dtype=np.float64)
        nz = out_strength > 0
        inv_out[nz] = 1.0 / out_strength[nz]
        dangling_idx = np.flatnonzero(active_mask & ~nz)
    else:
        weights = None
        inv_out = np.zeros(n, dtype=np.float64)
        nz = view.out_degrees > 0
        inv_out[nz] = 1.0 / view.out_degrees[nz]
        dangling_idx = np.flatnonzero(active_mask & (view.out_degrees == 0))

    if x0 is None:
        x = full_initialization(view)
    else:
        x = whole_space(view, x0)
    return _masked_loop(
        view, config, x, inv_out, dangling_idx, config.damping,
        config.alpha, weights=weights,
    )


def dense_mask_katz(
    view: WindowView,
    config: KatzConfig = KatzConfig(),
    x0: Optional[np.ndarray] = None,
) -> PagerankResult:
    """Katz of one window by the whole-vertex-space masked loop: unit
    source weights (no dangling set), the clamped attenuation as the
    scale and a normalized residual — what
    :meth:`~repro.programs.katz.KatzProgram.solve_window` computes."""
    n = view.adjacency.n_vertices
    if view.n_active_vertices == 0:
        return _empty(n)
    if x0 is None:
        x = KatzProgram(config=config).init_window(view)
    else:
        x = whole_space(view, x0)
    loop = PagerankConfig(
        tolerance=config.tolerance, max_iterations=config.max_iterations
    )
    inv_out = view.active_vertices_mask.astype(np.float64)
    scale = _effective_attenuation(config, view.in_degrees, view.out_degrees)
    return _masked_loop(
        view, loop, x, inv_out, np.zeros(0, dtype=np.int64),
        scale, config.base, normalized=True,
    )


def _normalized(v: np.ndarray) -> np.ndarray:
    total = v.sum()
    return v / total if total > 0 else v


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
        return _empty(n)

    in_csr = adjacency.in_csr
    dedup = in_dedup(view)
    col = in_csr.col
    active = view.active_vertices_mask
    a = _effective_attenuation(config, view.in_degrees, view.out_degrees)
    b = config.base / n_active

    if x0 is None:
        x = np.where(active, b, 0.0)
    else:
        x = whole_space(view, x0)

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


class ChainResult(NamedTuple):
    """Per-window answers of a postmortem run, indexed by window."""

    values: np.ndarray  # (n_windows, n_global_vertices)
    iterations: np.ndarray  # (n_windows,)


def reference_chain(
    events,
    spec,
    cfg: PagerankConfig,
    n_multiwindows: int,
    *,
    kernel: str = "spmv",
    vector_length: int = 4,
    weighted: bool = False,
    partial_init: bool = True,
    masked: bool = True,
) -> ChainResult:
    """The postmortem solve sequence over a uniform partition, hand-rolled.

    Replays what the driver does per multi-window graph: eq. 4 warm
    starts along each chain, where a chain is the whole graph (SpMV) or
    one region of the region schedule (SpMM).  Every window is solved on
    its own from the seed its schedule hands it.  ``masked=True`` solves
    with the masked oracle :func:`dense_mask_pagerank` — the canonical
    answer every execution knob must reproduce bitwise.  ``masked=False``
    calls the library's single-window kernels instead, with one pooled
    workspace per graph.
    """
    out = np.zeros((spec.n_windows, events.n_vertices))
    iterations = np.zeros(spec.n_windows, dtype=np.int64)
    partition = LazyMultiWindowPartition(events, spec, n_multiwindows)
    width = vector_length if kernel == "spmm" else 1
    solver = pagerank_window_weighted if weighted else pagerank_window
    for graph in partition:
        workspace = Workspace()
        views = {}
        values = {}
        for batch in spmm_region_schedule(
            graph.first_window, graph.n_windows, width
        ):
            for w, pred in zip(batch.windows, batch.predecessors):
                view = views[w] = graph.window_view(w)
                if partial_init and pred is not None:
                    x0 = partial_initialization(
                        view, views[pred], values[pred]
                    )
                else:
                    x0 = full_initialization(view)
                if masked:
                    pr = dense_mask_pagerank(
                        view, cfg, x0=x0, weighted=weighted
                    )
                else:
                    pr = solver(view, cfg, x0=x0, workspace=workspace)
                values[w] = pr.values
                out[w] = graph.to_global(pr.values, events.n_vertices)
                iterations[w] = pr.iterations
    return ChainResult(out, iterations)
