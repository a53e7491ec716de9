"""Per-window active-edge compaction (the literal Θ(|E_w|) iteration).

The masked kernels traverse **all stored nnz events** of their multi-window
graph every power iteration and zero out the inactive ones.  The paper's
complexity claim (Section 4.2, Figure 8) is asymptotic — partitioning
bounds nnz by the multi-window graph's |E_w| — but within one graph a
sparse window (small ``delta``, wide partition span: the Figure 9/10
regimes) still pays the full structure pass per iteration.

Compaction is the classic gather-scatter move from the GAP/STINGER CSR
lineage: pay one gather *per window* to pack the active deduplicated
in-edges into a dense ``(indptr_c, col_c, rows_c)`` triple, then iterate
over only the Θ(|E_w|) packed edges (the kernels then relabel the pack
into the window's own vertex space, so the vertex side of an iteration is
Θ(|V_w|) and the whole iteration Θ(|V_w| + |E_w|)).  The gather reads the
window view's active (row, neighbor) groups, so the pack costs
Θ(groups + |V| + |E_w|), not a pass over the stored events.  The groups
are listed in stored order, so the packed edges keep their **within-row
order** (and a monotone relabelling keeps it too); reducing them with the
sequential :func:`~repro.utils.segments.segment_sum_ordered` then
performs exactly the same additions in exactly the same order as the
masked path — the results are bitwise-identical (masked positions
contribute exact ``0.0``, and adding ``0.0`` to a non-negative
intermediate is exact in IEEE-754).  Note this identity genuinely needs
the *sequential* reduction: ``np.add.reduceat`` sums pairwise, so its
rounding depends on how many masked zeros pad each segment.

Selection between the two paths is the job of
:func:`repro.parallel.cost_model.choose_edge_path`: compaction amortizes
over the window's iterations, so it wins unless the window is almost fully
active or converges almost immediately.  ``PagerankConfig.edge_path``
pins the decision (``"masked"`` / ``"compacted"``) or delegates it
(``"auto"``, the default).  The choice steers the single-window kernels
(SpMV, weighted) only: the SpMM batch reads each window's active groups
directly (:class:`~repro.pagerank.spmm.ActiveCells`), which is the
compacted traversal with no mask to choose.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.utils.segments import lengths_to_indptr

#: one-shot latch for the non-positive iteration_hint debug note (tests
#: reset it to observe the message again)
_NONPOSITIVE_HINT_NOTED = False

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.temporal_csr import WindowView
    from repro.pagerank.config import PagerankConfig
    from repro.pagerank.workspace import Workspace

__all__ = [
    "CompactedPull",
    "compact_pull",
    "cost_model_estimate",
    "resolve_edge_path",
]


@dataclass(frozen=True)
class CompactedPull:
    """One window's active in-edges packed into a dense CSR pair.

    Attributes
    ----------
    indptr:
        ``(n_rows + 1,)`` int64 — per-destination ranges into ``col``.
    col:
        ``(n_edges,)`` int64 — source vertex per packed edge, preserving
        the stored within-row order (the bitwise-identity requirement).
    rows:
        ``(n_edges,)`` int64 — destination vertex per packed edge (the
        expansion of ``indptr``), consumed by the kernels' sequential
        :func:`~repro.utils.segments.segment_sum_ordered` reduction.

    When built against a :class:`~repro.pagerank.workspace.Workspace` the
    arrays are slices of pooled scratch: valid for the current window's
    solve, recycled by the chain's next compaction.
    """

    indptr: np.ndarray
    col: np.ndarray
    rows: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.col.size


def _packed_indptr(
    counts: np.ndarray, workspace: Optional["Workspace"], key: str
) -> np.ndarray:
    if workspace is None:
        return lengths_to_indptr(counts)
    indptr = workspace.buffer(key, (counts.size + 1,), np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _gather(
    values: np.ndarray,
    index: np.ndarray,
    workspace: Optional["Workspace"],
    key: str,
) -> np.ndarray:
    """``values[index]`` as int64 (the group index may store int32 ids),
    into group-capacity pooled scratch when a workspace is given (the
    capacity is constant per multi-window graph, so a chain allocates
    once)."""
    if workspace is None:
        return values[index].astype(np.int64, copy=False)
    out = workspace.buffer(key, values.shape, np.int64)[: index.size]
    np.copyto(out, values[index])
    return out


def compact_pull(
    view: "WindowView", workspace: Optional["Workspace"] = None
) -> CompactedPull:
    """Pack ``view``'s active in-edges into ``(indptr_c, col_c, rows_c)``.

    A scan of the view's group mask, a gather of the active groups'
    sources and destinations and a prefix sum over the view's in-degrees
    — Θ(groups + |V| + |E_w|) — after which every
    power iteration costs Θ(|E_w|) instead of Θ(nnz).  The weighted
    kernel pairs the packed edges with ``view.multiplicities``, which
    follow the same group order.
    """
    groups = view.adjacency.groups
    active = view.active_groups
    return CompactedPull(
        indptr=_packed_indptr(view.in_degrees, workspace, "compact.indptr"),
        col=_gather(groups.col, active, workspace, "compact.col"),
        rows=_gather(groups.row, active, workspace, "compact.rows"),
    )


def cost_model_estimate(
    config: "PagerankConfig", iteration_hint: Optional[int] = None
):
    """``(cost_model, expected_iterations)`` for an ``"auto"`` decision.

    Both ``auto`` knobs (``edge_path`` here, ``backend`` in
    :mod:`repro.pagerank.backends.registry`) price per-iteration savings
    against a one-off cost, so they share one iteration estimate:
    ``iteration_hint`` (typically the previous window of the chain, whose
    spectrum is nearly identical) when positive, otherwise a conservative
    default — either way capped by the config's iteration budget.

    A non-positive hint — a previous window that converged in zero
    iterations (empty window) or a driver that deliberately passes its
    raw counter — also falls back to the default, but *audibly*: a single
    debug-level note per process, because a chain that silently treats
    "converged instantly" as "no information" is hard to diagnose when
    the crossover lands on the wrong side.
    """
    # lazy import: repro.parallel pulls in the executor stack; the kernels
    # must stay importable without it at module-import time
    from repro.parallel import cost_model

    if iteration_hint is not None and iteration_hint > 0:
        return cost_model, min(iteration_hint, config.max_iterations)
    default = cost_model.DEFAULT_EXPECTED_ITERATIONS
    if iteration_hint is not None:
        global _NONPOSITIVE_HINT_NOTED
        if not _NONPOSITIVE_HINT_NOTED:
            _NONPOSITIVE_HINT_NOTED = True
            logging.getLogger(__name__).debug(
                "an 'auto' decision received iteration_hint=%d; "
                "falling back to DEFAULT_EXPECTED_ITERATIONS=%d (noted "
                "once per process)",
                iteration_hint, default,
            )
    return cost_model, min(config.max_iterations, default)


def resolve_edge_path(
    config: "PagerankConfig",
    nnz: int,
    n_active_edges: int,
    n_vertices: int,
    iteration_hint: Optional[int] = None,
) -> str:
    """Turn ``config.edge_path`` into a concrete ``"masked"``/``"compacted"``.

    ``"auto"`` asks the parallel cost model: compaction pays one pack to
    save ``(nnz - |E_w|)`` traversed events per iteration.  The model
    prices the pack per packed edge only; its Θ(groups + |V|) scan and
    prefix sum match work the view already did on either path, so they
    are left out (docs/tuning.md).  The iteration estimate comes from
    :func:`cost_model_estimate`.
    """
    path = config.edge_path
    if path != "auto":
        return path
    cost_model, expected = cost_model_estimate(config, iteration_hint)
    return cost_model.choose_edge_path(
        nnz, n_active_edges, n_vertices, expected
    )
