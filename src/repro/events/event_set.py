"""The temporal edge set: the single input of every execution model.

The paper assumes events ``(u, v, t)`` arrive in non-decreasing timestamp
order (Section 2.1).  :class:`TemporalEventSet` stores the three parallel
arrays (``src``, ``dst``, ``time``) contiguously, enforces the ordering, and
provides the vectorized range queries every model needs:

* the streaming model consumes events in timestamp order, batch by batch;
* the offline model slices ``[Ts, Te]`` per window;
* the postmortem model hands the whole arrays to the temporal-CSR builder.

Timestamps are integers (seconds in all the paper's datasets); vertices are
``0..n_vertices-1``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import EmptyEventSetError, ValidationError
from repro.utils.validation import check_1d_int, check_same_length

__all__ = ["TemporalEventSet"]


class TemporalEventSet:
    """An immutable, timestamp-sorted set of directed temporal events.

    Parameters
    ----------
    src, dst:
        Integer vertex ids of each event's endpoints.
    time:
        Integer timestamps, non-decreasing.  If ``sort=True`` (default) the
        events are sorted by time on construction (stable, so equal-time
        events keep input order — this mirrors how an event log would be
        replayed).
    n_vertices:
        Total vertex-set size |V|.  Defaults to ``max(src, dst) + 1``.  The
        paper assumes V is known up front ("the elements of V known because
        of offline behavior").
    """

    __slots__ = ("src", "dst", "time", "n_vertices")

    def __init__(
        self,
        src,
        dst,
        time,
        n_vertices: Optional[int] = None,
        *,
        sort: bool = True,
    ) -> None:
        src = check_1d_int(src, "src")
        dst = check_1d_int(dst, "dst")
        time = check_1d_int(time, "time")
        check_same_length((src, "src"), (dst, "dst"), (time, "time"))
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValidationError("vertex ids must be non-negative")

        if sort and time.size > 1 and np.any(np.diff(time) < 0):
            order = np.argsort(time, kind="stable")
            src, dst, time = src[order], dst[order], time[order]
        elif not sort and time.size > 1 and np.any(np.diff(time) < 0):
            raise ValidationError(
                "timestamps must be non-decreasing when sort=False"
            )

        max_id = int(max(src.max(), dst.max())) if src.size else -1
        if n_vertices is None:
            n_vertices = max_id + 1
        elif n_vertices <= max_id:
            raise ValidationError(
                f"n_vertices={n_vertices} too small for max vertex id {max_id}"
            )

        self.src = np.ascontiguousarray(src)
        self.dst = np.ascontiguousarray(dst)
        self.time = np.ascontiguousarray(time)
        self.n_vertices = int(n_vertices)

    @classmethod
    def from_validated(
        cls, src: np.ndarray, dst: np.ndarray, time: np.ndarray,
        n_vertices: int,
    ) -> "TemporalEventSet":
        """Wrap the columns of an event set that was already validated.

        Skips the constructor's O(|Events|) scans — for views of a log
        another event set checked, e.g. a shared-memory worker's attached
        copy of its parent's columns.
        """
        events = object.__new__(cls)
        events.src = src
        events.dst = dst
        events.time = time
        events.n_vertices = int(n_vertices)
        return events

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.src.size

    @property
    def n_events(self) -> int:
        """Number of events |Events| (with multiplicity)."""
        return self.src.size

    @property
    def t_min(self) -> int:
        """Timestamp of the earliest event."""
        self._require_nonempty()
        return int(self.time[0])

    @property
    def t_max(self) -> int:
        """Timestamp of the latest event."""
        self._require_nonempty()
        return int(self.time[-1])

    @property
    def span(self) -> int:
        """``t_max - t_min``, the covered time span."""
        return self.t_max - self.t_min

    def _require_nonempty(self) -> None:
        if self.src.size == 0:
            raise EmptyEventSetError("operation requires a non-empty event set")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self) == 0:
            return "TemporalEventSet(empty)"
        return (
            f"TemporalEventSet(n_events={self.n_events}, "
            f"n_vertices={self.n_vertices}, t=[{self.t_min}, {self.t_max}])"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalEventSet):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.time, other.time)
        )

    def __hash__(self):  # mutable-array container: keep unhashable semantics
        raise TypeError("TemporalEventSet is not hashable")

    # ------------------------------------------------------------------
    # range queries (all O(log n) + slice views, no copies)
    # ------------------------------------------------------------------
    def time_slice_indices(self, t_start: int, t_end: int) -> Tuple[int, int]:
        """Index range ``[lo, hi)`` of events with ``t_start <= t <= t_end``.

        Both bounds are inclusive, matching the paper's window definition
        ``Ts <= t <= Te``.
        """
        lo = int(np.searchsorted(self.time, t_start, side="left"))
        hi = int(np.searchsorted(self.time, t_end, side="right"))
        return lo, hi

    def events_between(self, t_start: int, t_end: int) -> "TemporalEventSet":
        """A view-backed event set of events in ``[t_start, t_end]``."""
        lo, hi = self.time_slice_indices(t_start, t_end)
        return TemporalEventSet(
            self.src[lo:hi],
            self.dst[lo:hi],
            self.time[lo:hi],
            n_vertices=self.n_vertices,
            sort=False,
        )

    def edges_between(self, t_start: int, t_end: int) -> Tuple[np.ndarray, np.ndarray]:
        """(src, dst) array views of events in ``[t_start, t_end]``."""
        lo, hi = self.time_slice_indices(t_start, t_end)
        return self.src[lo:hi], self.dst[lo:hi]

    def count_between(self, t_start: int, t_end: int) -> int:
        """Number of events with ``t_start <= t <= t_end``."""
        lo, hi = self.time_slice_indices(t_start, t_end)
        return hi - lo

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def symmetrized(self) -> "TemporalEventSet":
        """Return an event set with each event mirrored ``(v, u, t)``.

        Collaboration-style datasets (ca-cit-HepTh) are undirected; the
        paper treats them as a directed graph with both arcs present.
        """
        if len(self) == 0:
            return TemporalEventSet([], [], [], n_vertices=self.n_vertices)
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        time = np.concatenate([self.time, self.time])
        return TemporalEventSet(src, dst, time, n_vertices=self.n_vertices)

    def without_self_loops(self) -> "TemporalEventSet":
        """Drop events with ``u == v`` (self-loops contribute nothing to
        PageRank mass exchange and streaming frameworks typically drop
        them)."""
        keep = self.src != self.dst
        return TemporalEventSet(
            self.src[keep],
            self.dst[keep],
            self.time[keep],
            n_vertices=self.n_vertices,
            sort=False,
        )

    def iter_batches(self, batch_size: int) -> Iterator["TemporalEventSet"]:
        """Yield consecutive fixed-size batches in timestamp order.

        This is how the streaming model ingests the event log.
        """
        if batch_size <= 0:
            raise ValidationError(f"batch_size must be > 0, got {batch_size}")
        for lo in range(0, len(self), batch_size):
            hi = min(lo + batch_size, len(self))
            yield TemporalEventSet(
                self.src[lo:hi],
                self.dst[lo:hi],
                self.time[lo:hi],
                n_vertices=self.n_vertices,
                sort=False,
            )

    def concatenated(self, other: "TemporalEventSet") -> "TemporalEventSet":
        """Merge two event sets (re-sorts by timestamp)."""
        n = max(self.n_vertices, other.n_vertices)
        return TemporalEventSet(
            np.concatenate([self.src, other.src]),
            np.concatenate([self.dst, other.dst]),
            np.concatenate([self.time, other.time]),
            n_vertices=n,
        )
