"""The temporal CSR representation (paper Section 4.1, Figure 3).

One orientation of the structure stores, for every row vertex, its incident
events sorted **by neighbor id, then by timestamp** — exactly the layout of
Figure 3 (``rowA``, ``colA``, ``timeA``).  Because a window is a time
*interval* and each (row, neighbor) group is time-sorted, the events of a
group that are active in a window form a **contiguous run**, so the
activity test and the first-occurrence dedup mask are vectorized passes:

    active[j] = t_start <= timeA[j] <= t_end
    dedup[j]  = active[j] and (group_start[j] or not active[j-1])

``dedup`` selects exactly one event per active (row, neighbor) pair — the
simple-graph edge multiplicity collapse the PageRank kernels need.  Both
are Θ(nnz) per window, so they define a window's edges but do not build
its view.

:class:`TemporalAdjacency` holds the one orientation the paper stores:
rows are destinations, so the pull-style SpMV is a segment-sum over rows.
Its :class:`GroupIndex` lists the (destination, source) groups and orders
the stored events by time, which gives both degree vectors and every
window's simple edges without a second, push-style orientation.  A
:class:`WindowView` counts its window's events per group with one
``bincount`` over that window's run of the time order — Θ(window events +
groups) instead of a pass over every stored event — and keeps the active
groups, the degrees and the active vertex set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import GraphBuildError
from repro.graph.csr import CSRGraph, build_csr_from_edges
from repro.utils.segments import (
    indptr_to_row_ids,
    lengths_to_indptr,
    segment_count,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.events.event_set import TemporalEventSet
    from repro.events.windows import Window

__all__ = ["TemporalCSR", "TemporalAdjacency", "GroupIndex", "WindowView"]


class TemporalCSR:
    """One orientation of the temporal CSR structure.

    Attributes
    ----------
    indptr:
        ``rowA`` — per-row event ranges, ``n_rows + 1`` entries.
    col:
        ``colA`` — neighbor vertex id per event.
    time:
        ``timeA`` — timestamp per event.
    group_start:
        Boolean per event: True where a new (row, neighbor) group begins.
        Precomputed once at build; every window mask derives from it.
    """

    __slots__ = ("indptr", "col", "time", "group_start", "n_rows", "_row_ids")

    def __init__(
        self,
        indptr: np.ndarray,
        col: np.ndarray,
        time: np.ndarray,
        n_rows: int,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.col = np.ascontiguousarray(col, dtype=np.int64)
        self.time = np.ascontiguousarray(time, dtype=np.int64)
        self.n_rows = int(n_rows)
        if self.indptr.size != self.n_rows + 1:
            raise GraphBuildError("indptr size must be n_rows + 1")
        if self.indptr[-1] != self.col.size or self.col.size != self.time.size:
            raise GraphBuildError("col/time must both have indptr[-1] entries")

        self._row_ids: Optional[np.ndarray] = None
        self.group_start = self._compute_group_starts()

    def _compute_group_starts(self) -> np.ndarray:
        nnz = self.col.size
        gs = np.zeros(nnz, dtype=bool)
        if nnz == 0:
            return gs
        gs[0] = True
        # new group when the neighbor changes...
        np.not_equal(self.col[1:], self.col[:-1], out=gs[1:])
        # ...or when a new row starts (row boundaries from indptr)
        boundaries = self.indptr[1:-1]
        boundaries = boundaries[boundaries < nnz]
        gs[boundaries] = True
        return gs

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Stored event count Σ|Ew| (>= number of distinct edges)."""
        return self.col.size

    @property
    def n_groups(self) -> int:
        """Number of distinct (row, neighbor) pairs."""
        return int(self.group_start.sum())

    def row_ids(self) -> np.ndarray:
        """Per-event row id (cached expansion of ``indptr``)."""
        if self._row_ids is None:
            self._row_ids = indptr_to_row_ids(self.indptr)
        return self._row_ids

    # ------------------------------------------------------------------
    # window masks — the Θ(nnz) definition window views are tested against
    # ------------------------------------------------------------------
    def active_mask(self, t_start: int, t_end: int) -> np.ndarray:
        """Events with ``t_start <= t <= t_end``."""
        return (self.time >= t_start) & (self.time <= t_end)

    def dedup_mask(
        self,
        t_start: int,
        t_end: int,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """First active event of each (row, neighbor) group in the window.

        Selects exactly one representative per active simple edge.  Relies
        on per-group time-sortedness: active events in a group are
        contiguous, so the representative is the event whose predecessor is
        outside the window or in a different group.
        """
        if active is None:
            active = self.active_mask(t_start, t_end)
        dedup = active.copy()
        if dedup.size:
            dedup[1:] &= self.group_start[1:] | ~active[:-1]
        return dedup

    def degrees(self, t_start: int, t_end: int) -> np.ndarray:
        """Per-row count of distinct active neighbors in the window."""
        return segment_count(self.dedup_mask(t_start, t_end), self.indptr)

    def _arrays(self) -> tuple:
        return (self.indptr, self.col, self.time, self.group_start)

    def memory_bytes(self) -> int:
        """Bytes of the stored arrays (64-bit encoding, as in the paper)."""
        return sum(a.nbytes for a in self._arrays())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalCSR(n_rows={self.n_rows}, nnz={self.nnz}, "
            f"groups={self.n_groups})"
        )


def _build_orientation(
    rows: np.ndarray,
    cols: np.ndarray,
    times: np.ndarray,
    n_rows: int,
    order: Optional[np.ndarray] = None,
) -> TemporalCSR:
    """Sort events by (row, neighbor, time) and pack into a TemporalCSR.

    ``order`` is that sort's permutation (the input index of each stored
    event) when the caller already holds it."""
    if order is None:
        order = np.lexsort((times, cols, rows))
    rows, cols, times = rows[order], cols[order], times[order]
    counts = np.bincount(rows, minlength=n_rows) if rows.size else np.zeros(
        n_rows, dtype=np.int64
    )
    indptr = lengths_to_indptr(counts)
    return TemporalCSR(indptr, cols, times, n_rows)


class GroupIndex:
    """The in-orientation's (row, neighbor) groups, indexed by time.

    Built once per adjacency:

    * ``row`` / ``col`` — the destination and source of every group, in
      group (= stored) order;
    * ``time`` / ``group`` — every stored event's timestamp and group id
      in time order, so a window's events are one contiguous run
      ``span = [lo, hi)`` of that order, found by :meth:`span` with two
      ``searchsorted`` probes.  ``time_order`` is ``(order, time)`` when
      the adjacency was built from input in time order: ``order`` is the
      input index of each stored event and ``time`` the input's times.
      The index then *holds* that time array (no copy) and ``group`` is
      one scatter through ``order``; otherwise both come from a stable
      argsort of ``in_csr.time``.

    Vertex and group ids are int32 while they fit, so beside a held time
    array the index costs 4 B per stored event and 8 B per group.
    :meth:`counts` turns a span into events per group — a simple edge is
    active in a window iff its group has an event in it.
    """

    __slots__ = ("row", "col", "time", "group")

    def __init__(
        self,
        in_csr: TemporalCSR,
        time_order: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        starts = np.flatnonzero(in_csr.group_start)
        vertex_dtype = np.int32 if in_csr.n_rows < 2**31 else np.int64
        row = np.searchsorted(in_csr.indptr, starts, side="right")
        row -= 1
        self.row = row.astype(vertex_dtype)
        self.col = in_csr.col[starts].astype(vertex_dtype)
        id_dtype = np.int32 if in_csr.nnz < 2**31 else np.int64
        group = np.cumsum(in_csr.group_start, dtype=id_dtype)
        group -= 1
        if time_order is None:
            order = np.argsort(in_csr.time, kind="stable")
            self.time = in_csr.time[order]
            self.group = group[order]
        else:
            # in_csr.time == time[order], so scattering it back through
            # the permutation would only rebuild time
            order, self.time = time_order
            self.group = np.empty_like(group)
            self.group[order] = group

    @property
    def n_groups(self) -> int:
        return self.row.size

    def span(self, t_start: int, t_end: int) -> Tuple[int, int]:
        """The run ``[lo, hi)`` of the time order inside
        ``[t_start, t_end]``."""
        lo = int(np.searchsorted(self.time, t_start, side="left"))
        hi = int(np.searchsorted(self.time, t_end, side="right"))
        return lo, hi

    def counts(self, span: Tuple[int, int]) -> np.ndarray:
        """Events per group in the window whose time-order run is
        ``span`` — Θ(window events + groups)."""
        lo, hi = span
        return np.bincount(self.group[lo:hi], minlength=self.n_groups)


class TemporalAdjacency:
    """The temporal CSR of one event set.

    ``in_csr`` has **destinations** as rows and sources as neighbors: the
    pull-style PageRank iteration is a segment-sum over its rows.  Window
    views, out-degrees and out-edges come from :attr:`groups`, its
    :class:`GroupIndex`, built on the first view.
    """

    __slots__ = ("in_csr", "n_vertices", "_groups", "_time_order")

    def __init__(
        self,
        in_csr: TemporalCSR,
        time_order: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.in_csr = in_csr
        self.n_vertices = in_csr.n_rows
        self._groups: Optional[GroupIndex] = None
        #: ``(permutation, times)`` of time-ordered input (see
        #: :class:`GroupIndex`), held until the group index takes it
        self._time_order = time_order

    @classmethod
    def from_events(cls, events: "TemporalEventSet") -> "TemporalAdjacency":
        """Build the temporal CSR from a temporal event set — the single
        O(|Events| log |Events|) construction step of the postmortem model."""
        return cls.from_arrays(
            events.src, events.dst, events.time, events.n_vertices
        )

    @classmethod
    def from_arrays(
        cls, src, dst, time, n_vertices: int
    ) -> "TemporalAdjacency":
        """Build the temporal CSR from raw (src, dst, time) arrays."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        time = np.asarray(time, dtype=np.int64)
        order = np.lexsort((time, src, dst))
        in_csr = _build_orientation(dst, src, time, n_vertices, order)
        in_time_order = not np.any(time[1:] < time[:-1])
        return cls(in_csr, (order, time) if in_time_order else None)

    @property
    def nnz(self) -> int:
        return self.in_csr.nnz

    @property
    def groups(self) -> GroupIndex:
        """The in-orientation's :class:`GroupIndex` (built on first use)."""
        if self._groups is None:
            self._groups = GroupIndex(self.in_csr, self._time_order)
            self._time_order = None
        return self._groups

    def window_view(self, window: "Window") -> "WindowView":
        """Everything one PageRank run needs for ``window``.

        Θ(window events + groups) through the :class:`GroupIndex`, not a
        pass over every stored event.
        """
        return WindowView(self, window)

    def memory_bytes(self) -> int:
        """Bytes of the temporal CSR's arrays."""
        return self.in_csr.memory_bytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalAdjacency(n_vertices={self.n_vertices}, nnz={self.nnz})"
        )


class WindowView:
    """One window's activity, read off a :class:`TemporalAdjacency`.

    Construction counts the window's events per group through the
    adjacency's :class:`GroupIndex` — Θ(window events + groups) — and
    keeps:

    * ``group_mask`` — which in-orientation (row, neighbor) groups have
      an event in the window; :attr:`active_groups` lists them in group
      order, one per active simple edge;
    * ``in_degrees`` / ``out_degrees`` — ``bincount`` of the active
      groups' rows / neighbors;
    * ``active_vertices_mask`` (the active vertex set V_i),
      ``n_active_vertices`` and ``n_active_edges``.

    Two things are derived only on demand: :attr:`in_dedup`, the Θ(nnz)
    first-active-event mask that the masked reference loops stream, and
    :attr:`multiplicities`, the weighted kernel's per-edge event counts.
    Neither is kept on the view.
    """

    __slots__ = (
        "adjacency",
        "window",
        "group_mask",
        "out_degrees",
        "in_degrees",
        "active_vertices_mask",
        "n_active_vertices",
        "n_active_edges",
        "_span",
    )

    def __init__(self, adjacency: TemporalAdjacency, window: "Window") -> None:
        self.adjacency = adjacency
        self.window = window
        groups = adjacency.groups
        self._span = groups.span(window.t_start, window.t_end)
        self.group_mask = groups.counts(self._span) > 0

        active_groups = self.group_mask.nonzero()[0]
        n = adjacency.n_vertices
        self.in_degrees = np.bincount(
            groups.row[active_groups], minlength=n
        )
        self.out_degrees = np.bincount(
            groups.col[active_groups], minlength=n
        )
        active = np.logical_or(self.in_degrees, self.out_degrees)
        self.active_vertices_mask = active
        self.n_active_vertices = int(np.count_nonzero(active))
        self.n_active_edges = int(active_groups.size)

    @property
    def n_vertices(self) -> int:
        """|V_i| — vertices incident to at least one active edge."""
        return self.n_active_vertices

    @property
    def active_groups(self) -> np.ndarray:
        """Ids of the window's active (row, neighbor) groups, ascending —
        the order the in-orientation stores them in.

        Recomputed on each read rather than kept: the SpMM schedule holds
        two steps of views for its warm starts, and keeping this
        Θ(|E_w|) array on each of them raised the net peak RSS of the
        perfbench youtube workload (SpMM on two workers) from 27 to
        36 MiB."""
        return self.group_mask.nonzero()[0]

    @property
    def multiplicities(self) -> np.ndarray:
        """Events in the window per active group, aligned with
        :attr:`active_groups` (int64)."""
        return self.adjacency.groups.counts(self._span)[self.group_mask]

    @property
    def in_dedup(self) -> np.ndarray:
        """The in-orientation's first-active-event mask (``(nnz,)``
        bool): one True per active simple edge, at the group's first
        event in the window.

        A fresh Θ(nnz) :meth:`TemporalCSR.dedup_mask` on every read — not
        kept, so the views a chain holds stay group-sized.  The masked
        reference loops (:func:`repro.programs.katz.katz_window` and the
        test oracles) read it once per solve."""
        return self.adjacency.in_csr.dedup_mask(
            self.window.t_start, self.window.t_end
        )

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of the window's simple edges (int64), one per
        active group, in the in-orientation's group order — Θ(groups)."""
        groups = self.adjacency.groups
        active = self.active_groups
        return (
            groups.col[active].astype(np.int64),
            groups.row[active].astype(np.int64),
        )

    def compact_graph(self) -> CSRGraph:
        """The window's simple out-graph as a plain CSR (for reference
        implementations and the offline model comparison)."""
        src, dst = self.edges()
        return build_csr_from_edges(
            src, dst, self.adjacency.n_vertices, dedup=False
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowView(window={self.window.index}, "
            f"|V|={self.n_active_vertices}, |E|={self.n_active_edges})"
        )
