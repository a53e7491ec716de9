"""Per-window active-edge compaction (the literal Θ(|E_w|) iteration).

A window of a multi-window graph sees only a slice of the stored
structure: a sparse window (small ``delta``, wide partition span: the
Figure 9/10 regimes) has far fewer active deduplicated edges |E_w| than
stored events nnz.  The paper's Section 4.2 charges a window Θ(|E_w|)
work per iteration, so the single-window solves (SpMV, weighted, Katz)
never stream the stored structure: they pack the window's active edges
once and iterate over the pack.

Compaction is the classic gather-scatter move from the GAP/STINGER CSR
lineage: pay one gather *per window* to pack the active deduplicated
in-edges into a dense ``(col_c, rows_c)`` pair, then iterate
over only the Θ(|E_w|) packed edges (the kernels then relabel the pack
into the window's own vertex space, so the vertex side of an iteration is
Θ(|V_w|) and the whole iteration Θ(|V_w| + |E_w|)).  The gather reads the
window view's active (row, neighbor) groups, so the pack costs
Θ(groups + |E_w|), not a pass over the stored events.  The groups
are listed in stored order, so the packed edges keep their **within-row
order** (and a monotone relabelling keeps it too); reducing them with the
sequential :func:`~repro.utils.segments.segment_sum_ordered` then
performs exactly the same additions in exactly the same order as a
masked pass over all stored events — the results are bitwise-identical
to that pass (masked positions contribute exact ``0.0``, and adding
``0.0`` to a non-negative intermediate is exact in IEEE-754; the tests
keep the masked pass as their oracle, ``tests/dense_mask_reference.py``).
Note this identity genuinely needs the *sequential* reduction:
``np.add.reduceat`` sums pairwise, so its rounding depends on how many
masked zeros pad each segment.  The lockstep loop
(:mod:`repro.pagerank.spmv`) relabels each window's pack straight into
its concatenation of windows — every schedule, the SpMM region
schedule's batches included, iterates these packs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.temporal_csr import WindowView

__all__ = [
    "CompactedPull",
    "compact_pull",
]


@dataclass(frozen=True)
class CompactedPull:
    """One window's active in-edges packed into dense edge arrays.

    Attributes
    ----------
    col:
        ``(n_edges,)`` int64 — source vertex per packed edge, preserving
        the stored within-row order (the bitwise-identity requirement).
    rows:
        ``(n_edges,)`` int64 — destination vertex per packed edge,
        consumed by the kernels' sequential
        :func:`~repro.utils.segments.segment_sum_ordered` reduction.
    """

    col: np.ndarray
    rows: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.col.size


def compact_pull(view: "WindowView") -> CompactedPull:
    """Pack ``view``'s active in-edges into ``(col_c, rows_c)``.

    A scan of the view's group mask and a gather of the active groups'
    sources and destinations — Θ(groups + |E_w|) — after which every
    power iteration costs Θ(|E_w|) instead of Θ(nnz).  The weighted
    kernel pairs the packed edges with ``view.multiplicities``, which
    follow the same group order.  The group index may store int32 ids;
    the packed arrays are int64.
    """
    groups = view.adjacency.groups
    active = view.active_groups
    return CompactedPull(
        col=groups.col[active].astype(np.int64, copy=False),
        rows=groups.row[active].astype(np.int64, copy=False),
    )
