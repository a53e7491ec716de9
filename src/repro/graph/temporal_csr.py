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
:class:`WindowView` marks its window's active groups from that window's
run of the time order and builds everything a solve needs — its active
vertex index, local-id map, local out-degrees and relabelled edges — from
the active groups' rows and columns, gathered once.
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
    :meth:`active` turns a span into the window's active groups — a
    simple edge is active in a window iff its group has an event in it —
    and :meth:`counts` into events per group.
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
        # times are integers: the right edge of t_end is the left edge
        # of t_end + 1, so one probe finds both ends
        lo, hi = self.time.searchsorted((t_start, t_end + 1)).tolist()
        return lo, hi

    def active(self, span: Tuple[int, int]) -> np.ndarray:
        """Ids of the groups with an event in the window whose time-order
        run is ``span``, ascending: a 1-byte mark per group scattered
        from the run, then its ``nonzero``."""
        lo, hi = span
        mark = np.zeros(self.n_groups, dtype=bool)
        # an intp index scatters several times faster than an int32 one
        mark[self.group[lo:hi].astype(np.intp)] = True
        return mark.nonzero()[0]

    def counts(self, span: Tuple[int, int]) -> np.ndarray:
        """Events per group in the window whose time-order run is
        ``span`` (int64, one per group) — the weighted kernel's edge
        multiplicities."""
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
        """Build the temporal CSR from raw (src, dst, time) arrays.

        The (destination, source, time) order is one stable argsort of
        the fused key ``dst * n_vertices + src``: on input in time order
        a stable sort keeps each group's events in time order already.
        Other input is first put in time order by a stable argsort, so
        both give the permutation of ``np.lexsort((time, src, dst))``.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        time = np.asarray(time, dtype=np.int64)
        key = dst * n_vertices
        key += src
        in_time_order = not np.any(time[1:] < time[:-1])
        if in_time_order:
            order = np.argsort(key, kind="stable")
        else:
            by_time = np.argsort(time, kind="stable")
            order = by_time[np.argsort(key[by_time], kind="stable")]
        in_csr = _build_orientation(dst, src, time, n_vertices, order)
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

        Θ(window events + |E_w|) through the :class:`GroupIndex`, plus
        byte-wide passes over the groups and the vertices — not a pass
        over every stored event.
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

    Construction is one pass over the window's own events:

    1. a 1-byte mark per group, scattered from the window's run of the
       time order, whose ``nonzero`` lists the active groups (one per
       active simple edge, in stored order);
    2. one gather of those groups' rows and columns;
    3. a 1-byte mark per vertex from that gather, whose ``nonzero`` is
       ``active_idx``, the sorted active vertex set V_i;
    4. ``local_id``, the monotone map from a vertex to its rank in
       ``active_idx`` (``-1`` off the window), by one scatter;
    5. the relabelled edges and, by one ``bincount`` of their sources,
       ``local_out_degrees``.

    That is Θ(window events + |E_w|) plus byte-wide passes over the
    groups and vertices and the fill of ``local_id``.  A view keeps only
    Θ(|V_w|) and Θ(n) arrays: the relabelled edges are handed over once, to the solve that
    packs them (:meth:`take_local_edges`), so the views a chain holds
    after their solve stay vertex-sized.

    Whole-space vectors are derived on demand: ``active_vertices_mask``,
    ``out_degrees`` and ``in_degrees`` (Katz's degree clamp reads the
    last two), :attr:`active_groups`, :meth:`edges` and
    :attr:`multiplicities` (the weighted kernel's per-edge event counts).
    """

    __slots__ = (
        "adjacency",
        "window",
        "active_idx",
        "local_id",
        "local_out_degrees",
        "n_active_vertices",
        "n_active_edges",
        "_span",
        "_local_edges",
    )

    def __init__(self, adjacency: TemporalAdjacency, window: "Window") -> None:
        self.adjacency = adjacency
        self.window = window
        groups = adjacency.groups
        self._span = groups.span(window.t_start, window.t_end)
        active = groups.active(self._span)
        rows = groups.row.take(active).astype(np.intp)
        cols = groups.col.take(active).astype(np.intp)
        n = adjacency.n_vertices
        seen = np.zeros(n, dtype=bool)
        seen[rows] = True
        seen[cols] = True
        self.active_idx = seen.nonzero()[0]
        k = self.n_active_vertices = self.active_idx.size
        self.n_active_edges = active.size
        # an active vertex's local id is its rank among the active ones:
        # the packed edges join active vertices only, so relabelled rows
        # stay non-decreasing and within-row order is untouched
        self.local_id = np.full(n, -1, dtype=np.int64)
        self.local_id[self.active_idx] = np.arange(k)
        col = self.local_id.take(cols)
        self.local_out_degrees = np.bincount(col, minlength=k)
        self._local_edges: Optional[Tuple[np.ndarray, np.ndarray]] = (
            col, self.local_id.take(rows)
        )

    @property
    def n_vertices(self) -> int:
        """|V_i| — vertices incident to at least one active edge."""
        return self.n_active_vertices

    def take_local_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(col, rows)`` of the window's simple edges in window-local
        ids (int64), one per active group in stored order.

        The first call hands over the arrays construction built and the
        view stops holding them; a later call gathers them again from the
        group index."""
        edges = self._local_edges
        if edges is None:
            groups = self.adjacency.groups
            active = self.active_groups
            return (
                self.local_id.take(groups.col.take(active)),
                self.local_id.take(groups.row.take(active)),
            )
        self._local_edges = None
        return edges

    @property
    def active_vertices_mask(self) -> np.ndarray:
        """The active vertex set V_i as an ``(n,)`` bool mask."""
        return self.local_id >= 0

    @property
    def out_degrees(self) -> np.ndarray:
        """Active out-degree per vertex (``(n,)`` int64)."""
        out = np.zeros(self.adjacency.n_vertices, dtype=np.int64)
        out[self.active_idx] = self.local_out_degrees
        return out

    @property
    def in_degrees(self) -> np.ndarray:
        """Active in-degree per vertex (``(n,)`` int64)."""
        groups = self.adjacency.groups
        return np.bincount(
            groups.row.take(self.active_groups),
            minlength=self.adjacency.n_vertices,
        )

    @property
    def active_groups(self) -> np.ndarray:
        """Ids of the window's active (row, neighbor) groups, ascending —
        the order the in-orientation stores them in.  Marked again on
        each read rather than kept: a Θ(|E_w|) array on every view a
        chain holds raised the net peak RSS of the perfbench youtube
        workload from 27 to 36 MiB."""
        return self.adjacency.groups.active(self._span)

    @property
    def multiplicities(self) -> np.ndarray:
        """Events in the window per active group, aligned with
        :attr:`active_groups` (int64)."""
        return self.adjacency.groups.counts(self._span)[self.active_groups]

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of the window's simple edges (int64), one per
        active group, in the in-orientation's group order."""
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
