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
in-edges into a dense ``(col_c, rows_c)`` pair, relabelled into the
window's own vertex space ``[0, |V_w|)``, then iterate over only the
Θ(|E_w|) packed edges, so the vertex side of an iteration is Θ(|V_w|)
and the whole iteration Θ(|V_w| + |E_w|).  The window view builds the
pack as it is constructed, from the one gather of its active (row,
neighbor) groups that also yields its vertex set (:class:`~repro.graph.
temporal_csr.WindowView`), and hands it to the solve.  The groups are
listed in stored order and the relabelling is monotone, so the packed
edges keep their **within-row order**; reducing them with the
sequential :func:`~repro.utils.segments.segment_sum_ordered` then
performs exactly the same additions in exactly the same order as a
masked pass over all stored events — the results are bitwise-identical
to that pass (masked positions contribute exact ``0.0``, and adding
``0.0`` to a non-negative intermediate is exact in IEEE-754; the tests
keep the masked pass as their oracle, ``tests/dense_mask_reference.py``).
Note this identity genuinely needs the *sequential* reduction:
``np.add.reduceat`` sums pairwise, so its rounding depends on how many
masked zeros pad each segment.  The lockstep loop
(:mod:`repro.pagerank.spmv`) offsets each window's pack into its
concatenation of windows — every schedule, the SpMM region schedule's
batches included, iterates these packs.
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
    """One window's active in-edges packed into dense edge arrays, in
    the window-local vertex space ``[0, |V_w|)``.

    Attributes
    ----------
    col:
        ``(n_edges,)`` int64 — local source id per packed edge,
        preserving the stored within-row order (the bitwise-identity
        requirement).
    rows:
        ``(n_edges,)`` int64 — local destination id per packed edge,
        non-decreasing, consumed by the kernels' sequential
        :func:`~repro.utils.segments.segment_sum_ordered` reduction.
    """

    col: np.ndarray
    rows: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.col.size


def compact_pull(view: "WindowView") -> CompactedPull:
    """``view``'s active in-edges, packed and relabelled to local ids.

    Takes the pack the view built (:meth:`~repro.graph.temporal_csr.
    WindowView.take_local_edges`), so the view no longer holds it; a
    second call gathers it again.  The weighted kernel pairs the packed
    edges with ``view.multiplicities``, which follow the same group
    order.
    """
    return CompactedPull(*view.take_local_edges())
