"""The ``.tcsr`` artifact: the time-sorted event log as a memory-mapped file.

Mirrors the ``.rankstore`` design on the *input* side of the pipeline: a
versioned preamble at offset 0, every array at a fixed 64-byte-aligned
offset so readers ``np.memmap`` them directly, and a trailing JSON table
describing the layout.  Opening an artifact costs O(1) I/O regardless of
event count.  Every runtime graph is compacted from a slice of the event
log (:func:`repro.graph.multiwindow.graph_from_payload`), so the log and
its time index are all the artifact stores.

Layout of a ``.tcsr`` file::

    offset 0    preamble (64 bytes, little-endian):
                  magic "TCSRART1", version u32, flags u32,
                  n_vertices u64, n_events u64,
                  table_offset u64, table_len u64, time_index_stride u64
    offset 64   the arrays, each 64-byte aligned, in table order:
                  ev_src/ev_dst/ev_time      the time-sorted event log
                  time_index                 every stride-th timestamp
    after them  the JSON table: per-array name/dtype/shape/offset + meta

That is 24 B per event plus 8 B per ``time_index_stride`` events.

The file is written by :class:`TemporalCSRBuilder` in **bounded memory**:
incoming event chunks spill to a side file, a parallel pass (one thread
task per chunk) time-sorts each chunk in place and samples its
timestamps, and chunks are merged bucket-at-a-time into the final
time-sorted log — never holding more than O(chunk) events in RAM.  The
log is bitwise-identical to the in-RAM ``TemporalEventSet`` of the same
events (stable sorts compose: per-chunk sort + in-order bucket merge
reproduces the global stable time sort exactly).
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Callable, Dict, Iterable, List, Optional, Tuple, TypeVar, Union,
)

import numpy as np

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet
from repro.sanitize import freeze_boundary

__all__ = [
    "MAGIC",
    "VERSION",
    "TemporalCSRBuilder",
    "TcsrFile",
    "MappedEventSet",
    "build_tcsr",
    "write_tcsr",
    "open_events",
    "is_tcsr",
]

PathLike = Union[str, os.PathLike]
T = TypeVar("T")

MAGIC = b"TCSRART1"
VERSION = 3
#: preamble struct: magic, version, flags, n_vertices, n_events,
#: table_offset, table_len, time_index_stride (+ padding to 64 bytes)
_PREAMBLE = struct.Struct("<8sII5Q")
PREAMBLE_SIZE = 64
#: byte alignment of every array (cache-line / SIMD friendly, and int64
#: safe for any future dtype)
ALIGNMENT = 64
FLAG_FINALIZED = 1

DEFAULT_CHUNK_EVENTS = 1_000_000
DEFAULT_TIME_INDEX_STRIDE = 8192

#: per-chunk boundary samples collected during the sort pass — enough to
#: place near-quantile bucket boundaries without rescanning any chunk
_SAMPLES_PER_CHUNK = 64

#: the array names of an artifact, in layout order
ARRAY_NAMES = (
    "ev_src", "ev_dst", "ev_time",
    "time_index",
)


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _pack_preamble(
    flags: int, n_vertices: int, n_events: int,
    table_offset: int, table_len: int, stride: int,
) -> bytes:
    head = _PREAMBLE.pack(
        MAGIC, VERSION, flags, n_vertices, n_events,
        table_offset, table_len, stride,
    )
    return head + b"\0" * (PREAMBLE_SIZE - len(head))


def _drop_pages(arr, dirty: bool = False, lo=None, hi=None) -> None:
    """Tell the kernel a mapped array's resident pages may be reclaimed.

    ``lo``/``hi`` (element indices) restrict the drop to one range —
    the construction passes call this after finishing each block, which
    is what keeps peak RSS at O(chunk) instead of O(file): ``ru_maxrss``
    is a high-water mark, so dropping only between passes would still
    let a single pass page the whole file in.  ``dirty=True`` flushes
    first so file-backed writes survive the drop (``MADV_DONTNEED`` on a
    shared file mapping is not destructive — dirty page-cache pages
    remain the file's up-to-date content — but flushing keeps the dirty
    set bounded too).  Advisory only: platforms without ``madvise`` just
    keep the pages.
    """
    if not isinstance(arr, np.memmap):
        return
    mm = getattr(arr, "_mmap", None)
    if mm is None or not hasattr(mm, "madvise"):
        return
    if lo is None and hi is None:
        if dirty:
            arr.flush()
        mm.madvise(mmap.MADV_DONTNEED)
        return
    page = mmap.PAGESIZE
    item = arr.dtype.itemsize
    # the mmap starts at the allocation-granularity floor of the array's
    # file offset; element positions shift by the remainder
    delta = int(getattr(arr, "offset", 0)) % mmap.ALLOCATIONGRANULARITY
    lo_b = delta + (0 if lo is None else int(lo)) * item
    hi_b = delta + (arr.size if hi is None else int(hi)) * item
    start = lo_b // page * page
    stop = min(-(-hi_b // page) * page, len(mm))
    if stop <= start:
        return
    if dirty:
        mm.flush(start, stop - start)
    mm.madvise(mmap.MADV_DONTNEED, start, stop - start)


def _map_items(
    fn: Callable[[int], T], n_items: int, n_workers: int
) -> List[T]:
    """``[fn(i) for i in range(n_items)]``, one thread task per item when
    there is more than one worker; the first failure re-raises here."""
    if n_workers == 1 or n_items <= 1:
        return [fn(i) for i in range(n_items)]
    with ThreadPoolExecutor(n_workers) as pool:
        return list(pool.map(fn, range(n_items)))


def _unlink_if_exists(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:  # lint: disable=silent-except
        pass


def _close_map(arr) -> None:
    if isinstance(arr, np.memmap):
        mm = getattr(arr, "_mmap", None)
        if mm is not None:
            try:
                mm.close()
            except BufferError:  # lint: disable=silent-except
                # a caller still holds a view; the mapping lives until
                # that reference dies (read-only file map: nothing leaks)
                pass


def _layout(
    n_events: int, ti_len: int
) -> Tuple[List[Dict[str, object]], int]:
    """Per-array table entries (name/dtype/shape/offset) + end offset."""
    dtype = np.dtype("<i8")
    entries: List[Dict[str, object]] = []
    offset = PREAMBLE_SIZE
    for name in ARRAY_NAMES:
        shape = (ti_len,) if name == "time_index" else (n_events,)
        offset = _aligned(offset)
        entries.append(
            {
                "name": name,
                "dtype": dtype.str,
                "shape": list(shape),
                "offset": offset,
            }
        )
        # plain ints: a corrupt preamble's sizes must not overflow int64
        offset += shape[0] * dtype.itemsize
    return entries, offset


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class TemporalCSRBuilder:
    """Builds a ``.tcsr`` artifact from event chunks in bounded memory.

    Usage::

        builder = TemporalCSRBuilder(path, n_vertices)
        for src, dst, time in chunks:   # any order, any chunk size
            builder.add_events(src, dst, time)
        builder.finalize()

    ``chunk_events`` bounds both the spill granularity and the working
    set of both construction passes (per-chunk sort, bucket merge); peak
    resident memory is O(``chunk_events`` x ``n_workers``), never
    O(total events).
    """

    def __init__(
        self,
        path: PathLike,
        n_vertices: int,
        *,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        n_workers: int = 4,
        time_index_stride: int = DEFAULT_TIME_INDEX_STRIDE,
    ) -> None:
        if n_vertices < 0:
            raise ValidationError("n_vertices must be >= 0")
        if chunk_events <= 0:
            raise ValidationError("chunk_events must be > 0")
        if time_index_stride <= 0:
            raise ValidationError("time_index_stride must be > 0")
        if n_workers <= 0:
            raise ValidationError("n_workers must be > 0")
        self.path = os.fspath(path)
        self.n_vertices = int(n_vertices)
        self.chunk_events = int(chunk_events)
        self.n_workers = int(n_workers)
        self.time_index_stride = int(time_index_stride)
        self._spill_path = self.path + ".spill"
        self._spill_file = open(self._spill_path, "wb")
        #: (element offset into the int64 spill, event count) per chunk
        self._chunks: List[Tuple[int, int]] = []
        self._n_events = 0
        self._finalized = False

    # ------------------------------------------------------------------
    def add_events(self, src, dst, time) -> None:
        """Append one chunk of events (any timestamp order).

        Oversized inputs are split so no spill chunk exceeds
        ``chunk_events``; total added events may exceed RAM.
        """
        if self._finalized:
            raise ValidationError("builder is finalized")
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        time = np.ascontiguousarray(time, dtype=np.int64)
        if not (src.ndim == dst.ndim == time.ndim == 1):
            raise ValidationError("event chunks must be 1-D arrays")
        if not (src.size == dst.size == time.size):
            raise ValidationError("src/dst/time chunks must match in length")
        if src.size == 0:
            return
        lo_id = min(int(src.min()), int(dst.min()))
        hi_id = max(int(src.max()), int(dst.max()))
        if lo_id < 0 or hi_id >= self.n_vertices:
            raise ValidationError(
                f"vertex ids must lie in [0, {self.n_vertices}), got "
                f"[{lo_id}, {hi_id}]"
            )
        for lo in range(0, src.size, self.chunk_events):
            hi = min(lo + self.chunk_events, src.size)
            self._chunks.append((self._spill_file.tell() // 8, hi - lo))
            self._spill_file.write(src[lo:hi].tobytes())
            self._spill_file.write(dst[lo:hi].tobytes())
            self._spill_file.write(time[lo:hi].tobytes())
            self._n_events += hi - lo

    # ------------------------------------------------------------------
    def _chunk_views(
        self, spill: np.ndarray, ci: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        off, cnt = self._chunks[ci]
        return (
            spill[off: off + cnt],
            spill[off + cnt: off + 2 * cnt],
            spill[off + 2 * cnt: off + 3 * cnt],
        )

    def _sort_pass(self, spill: np.ndarray) -> np.ndarray:
        """Time-sort every spill chunk in place; the sorted boundary
        samples of every chunk fall out of the same scan."""

        def sort_chunk(ci: int) -> np.ndarray:
            s_v, d_v, t_v = self._chunk_views(spill, ci)
            order = np.argsort(t_v, kind="stable")
            t = t_v[order]
            t_v[:] = t
            s_v[:] = s_v[order]
            d_v[:] = d_v[order]
            step = max(1, t.size // _SAMPLES_PER_CHUNK)
            off, cnt = self._chunks[ci]
            _drop_pages(spill, dirty=True, lo=off, hi=off + 3 * cnt)
            return t[::step].copy()

        samples = _map_items(sort_chunk, len(self._chunks), self.n_workers)
        return (
            np.sort(np.concatenate(samples))
            if samples else np.empty(0, dtype=np.int64)
        )

    def _bucket_splits(
        self, spill: np.ndarray, samples: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Near-quantile time-bucket boundaries and the per-chunk split
        table (chunk x bucket event ranges via searchsorted)."""
        n = self._n_events
        n_buckets = max(1, -(-n // self.chunk_events))
        if n_buckets > 1 and samples.size:
            qpos = (
                np.arange(1, n_buckets, dtype=np.int64) * samples.size
            ) // n_buckets
            bounds = np.unique(samples[qpos])
        else:
            bounds = np.empty(0, dtype=np.int64)
        splits = np.zeros(
            (len(self._chunks), bounds.size + 2), dtype=np.int64
        )
        for ci in range(len(self._chunks)):
            _, _, t_v = self._chunk_views(spill, ci)
            splits[ci, 1:-1] = np.searchsorted(t_v, bounds, side="left")
            splits[ci, -1] = t_v.size
        return bounds, splits

    def _merge_pass(
        self,
        spill: np.ndarray,
        splits: np.ndarray,
        maps: Dict[str, np.ndarray],
    ) -> None:
        """Gather each time bucket from every chunk (in add order), stable
        sort by time, and stream it to its final slot in the event log.

        Chunk-order concatenation + stable sort reproduces the global
        stable time sort exactly, so equal-timestamp events keep their
        input order — the bitwise-parity invariant with the in-RAM path.
        """
        sizes = (splits[:, 1:] - splits[:, :-1]).sum(axis=0)
        starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes)]
        )
        ev_src, ev_dst, ev_time = (
            maps["ev_src"], maps["ev_dst"], maps["ev_time"]
        )
        ti = maps["time_index"]
        stride = self.time_index_stride
        n_chunks = len(self._chunks)

        def merge(b: int) -> None:
            slices = [
                (ci, int(splits[ci, b]), int(splits[ci, b + 1]))
                for ci in range(n_chunks)
                if splits[ci, b + 1] > splits[ci, b]
            ]
            if not slices:
                return
            g0, g1 = int(starts[b]), int(starts[b + 1])
            # gather one component at a time straight from the mapped
            # spill, freeing each as soon as it is written: the transient
            # heap peak is what the RSS bound pays for
            t = np.concatenate(
                [self._chunk_views(spill, ci)[2][a:z] for ci, a, z in slices]
            )
            order = np.argsort(t, kind="stable")
            t = t[order]
            ev_time[g0:g1] = t
            p0 = -(-g0 // stride) * stride
            ps = np.arange(p0, g1, stride, dtype=np.int64)
            if ps.size:
                ti[ps // stride] = t[ps - g0]
            del t
            _drop_pages(ev_time, dirty=True, lo=g0, hi=g1)
            for comp, out in ((0, ev_src), (1, ev_dst)):
                vals = np.concatenate(
                    [self._chunk_views(spill, ci)[comp][a:z]
                     for ci, a, z in slices]
                )
                out[g0:g1] = vals[order]
                del vals
                _drop_pages(out, dirty=True, lo=g0, hi=g1)
            # this bucket's slice of every chunk is consumed — no later
            # bucket rereads it
            for ci, a, z in slices:
                off, cnt = self._chunks[ci]
                for base in (off, off + cnt, off + 2 * cnt):
                    _drop_pages(spill, lo=base + a, hi=base + z)

        _map_items(merge, int(sizes.size), self.n_workers)
        for arr in (ev_src, ev_dst, ev_time, ti):
            _drop_pages(arr, dirty=True)

    # ------------------------------------------------------------------
    def finalize(self) -> str:
        """Run the construction passes and seal the artifact.

        Returns the artifact path.  The preamble's ``finalized`` flag is
        written last, so a crash mid-build leaves a file every reader
        rejects rather than a silently-truncated artifact; a build that
        raises removes that file and the spill before re-raising.
        """
        if self._finalized:
            return self.path
        self._finalized = True
        self._spill_file.flush()
        self._spill_file.close()
        opened_artifact = False
        spill: Optional[np.ndarray] = None
        maps: Dict[str, np.ndarray] = {}
        try:
            n, V = self._n_events, self.n_vertices
            if n:
                spill = np.memmap(
                    self._spill_path, dtype=np.int64, mode="r+",
                    shape=(3 * n,),
                )
                samples = self._sort_pass(spill)
                _, splits = self._bucket_splits(spill, samples)
            else:
                splits = np.zeros((0, 2), dtype=np.int64)

            ti_len = len(range(0, n, self.time_index_stride))
            entries, arrays_end = _layout(n, ti_len)
            with open(self.path, "wb") as f:
                opened_artifact = True
                f.write(
                    _pack_preamble(0, V, n, 0, 0, self.time_index_stride)
                )
                f.truncate(arrays_end)
            for e in entries:
                shape = tuple(e["shape"])
                if int(np.prod(shape, dtype=np.int64)) == 0:
                    maps[e["name"]] = np.empty(shape, dtype=e["dtype"])
                else:
                    maps[e["name"]] = np.memmap(
                        self.path, dtype=np.dtype(str(e["dtype"])),
                        mode="r+", offset=int(e["offset"]), shape=shape,
                    )

            if n:
                self._merge_pass(spill, splits, maps)
            # the spill is dead once the merged log exists
            if spill is not None:
                _close_map(spill)
                spill = None
            os.unlink(self._spill_path)

            table = {
                "arrays": entries,
                "meta": {
                    "chunk_events": self.chunk_events,
                    "n_chunks": len(self._chunks),
                    "time_index_stride": self.time_index_stride,
                },
            }
            payload = json.dumps(table).encode()
            for arr in maps.values():
                if isinstance(arr, np.memmap):
                    arr.flush()
            with open(self.path, "r+b") as f:
                f.seek(arrays_end)
                f.write(payload)
                f.seek(0)
                f.write(
                    _pack_preamble(
                        FLAG_FINALIZED, V, n, arrays_end, len(payload),
                        self.time_index_stride,
                    )
                )
                f.flush()
                os.fsync(f.fileno())
        except BaseException:
            # the spill is as large as the event log and the half-written
            # artifact never got its finalized flag: neither may outlive
            # a failed build
            _unlink_if_exists(self._spill_path)
            if opened_artifact:
                _unlink_if_exists(self.path)
            raise
        finally:
            _close_map(spill)
            for arr in maps.values():
                _close_map(arr)
        return self.path

    def abort(self) -> None:
        """Drop the spill without writing an artifact."""
        if not self._finalized:
            self._finalized = True
            self._spill_file.close()
            _unlink_if_exists(self._spill_path)

    def __enter__(self) -> "TemporalCSRBuilder":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.finalize()


def build_tcsr(
    chunks: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    path: PathLike,
    n_vertices: int,
    **builder_kwargs,
) -> str:
    """Build a ``.tcsr`` from an iterable of ``(src, dst, time)`` chunks.

    The chunks may arrive in any timestamp order and need never coexist
    in memory; equal-timestamp events keep chunk-concatenation order
    (the same stable-sort semantics as ``TemporalEventSet``).
    """
    with TemporalCSRBuilder(path, n_vertices, **builder_kwargs) as b:
        for src, dst, time in chunks:
            b.add_events(src, dst, time)
    return os.fspath(path)


def write_tcsr(
    events: TemporalEventSet, path: PathLike, **builder_kwargs
) -> str:
    """Write an in-RAM event set as a ``.tcsr`` artifact.

    ``open_events`` on the result equals ``events`` array for array.
    """
    chunk = builder_kwargs.get("chunk_events", DEFAULT_CHUNK_EVENTS)
    with TemporalCSRBuilder(
        path, events.n_vertices, **builder_kwargs
    ) as b:
        for lo in range(0, len(events), chunk):
            hi = min(lo + chunk, len(events))
            b.add_events(
                events.src[lo:hi], events.dst[lo:hi], events.time[lo:hi]
            )
    return os.fspath(path)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
def _narrowed_searchsorted(
    time_arr: np.ndarray,
    time_index: np.ndarray,
    stride: int,
    value: int,
    side: str,
) -> int:
    """``searchsorted`` over the full time column touching at most one
    stride block, located via the in-RAM time index."""
    n = time_arr.size
    if n == 0:
        return 0
    i = int(np.searchsorted(time_index, value, side=side))
    lo = max(i - 1, 0) * stride
    hi = min(i * stride + 1, n)
    return lo + int(np.searchsorted(time_arr[lo:hi], value, side=side))


class TcsrFile:
    """Read side of the ``.tcsr`` artifact.

    Arrays are exposed as read-only ``np.memmap`` views created on first
    access — opening a file costs one preamble page plus the JSON table,
    regardless of event count.  Use as a context manager or call
    :meth:`close`; views are invalid afterwards.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        size = os.path.getsize(self.path)
        with open(self.path, "rb") as f:
            head = f.read(PREAMBLE_SIZE)
            if len(head) < PREAMBLE_SIZE:
                raise ValidationError(
                    f"{self.path}: not a temporal-CSR artifact "
                    "(file too short)"
                )
            (magic, version, flags, n_vertices, n_events,
             table_offset, table_len, stride) = _PREAMBLE.unpack(
                head[: _PREAMBLE.size]
            )
            if magic != MAGIC:
                raise ValidationError(
                    f"{self.path}: not a temporal-CSR artifact (bad magic)"
                )
            if version != VERSION:
                raise ValidationError(
                    f"{self.path}: unsupported .tcsr version {version} "
                    f"(need v{VERSION}); rebuild it from its events"
                )
            if not flags & FLAG_FINALIZED:
                raise ValidationError(
                    f"{self.path}: artifact was never finalized "
                    "(builder crashed or is still running?)"
                )
            if table_offset + table_len > size or table_len == 0:
                raise ValidationError(
                    f"{self.path}: truncated artifact (layout table "
                    "extends past end of file)"
                )
            f.seek(table_offset)
            try:
                table = json.loads(f.read(table_len).decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValidationError(
                    f"{self.path}: corrupt layout table ({exc})"
                ) from None
        self.n_vertices = int(n_vertices)
        self.n_events = int(n_events)
        self.time_index_stride = int(stride)
        # the preamble fixes the whole layout: the table must restate it
        # exactly, so no table entry is ever trusted on its own
        if stride == 0:
            raise ValidationError(
                f"{self.path}: corrupt preamble (time-index stride 0)"
            )
        ti_len = -(-self.n_events // self.time_index_stride)
        entries, arrays_end = _layout(self.n_events, ti_len)
        if arrays_end > table_offset:
            raise ValidationError(
                f"{self.path}: arrays extend past the layout table "
                "(corrupt artifact)"
            )
        if not (
            isinstance(table, dict) and table.get("arrays") == entries
            and isinstance(table.get("meta", {}), dict)
        ):
            raise ValidationError(
                f"{self.path}: layout table does not match the preamble "
                "(corrupt artifact)"
            )
        self.meta: Dict[str, object] = table.get("meta", {})
        self._entries: Dict[str, Dict[str, object]] = {
            e["name"]: e for e in entries
        }
        self._views: Dict[str, np.ndarray] = {}
        self._time_index_ram: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def array(self, name: str) -> np.ndarray:
        """A read-only mapped view of one stored array (cached).

        Views page lazily and are frozen at the artifact boundary; they
        are invalid after :meth:`close` — copy to outlive the file.
        """
        arr = self._views.get(name)
        if arr is None:
            e = self._entries.get(name)
            if e is None:
                raise ValidationError(
                    f"{self.path}: no array {name!r} "
                    f"(has {sorted(self._entries)})"
                )
            shape = tuple(int(d) for d in e["shape"])
            dtype = np.dtype(str(e["dtype"]))
            if int(np.prod(shape, dtype=np.int64)) == 0:
                arr = np.empty(shape, dtype=dtype)
                arr.flags.writeable = False
            else:
                arr = np.memmap(
                    self.path, dtype=dtype, mode="r",
                    offset=int(e["offset"]), shape=shape,
                )
            self._views[name] = arr
        # the accessor is the one sanctioned zero-copy boundary of the
        # artifact (documented contract above)
        # lint: disable=mmap-escape
        return freeze_boundary(arr)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Every stored array, keyed by name."""
        return {name: self.array(name) for name in self._entries}

    # ------------------------------------------------------------------
    def _time_index(self) -> np.ndarray:
        if self._time_index_ram is None:
            # tiny (n / stride entries): keep a heap copy so slicing
            # never pages the full time column
            self._time_index_ram = np.array(self.array("time_index"))
        return self._time_index_ram

    def time_slice_indices(self, t_start: int, t_end: int) -> Tuple[int, int]:
        """Event-log index range ``[lo, hi)`` with ``t_start <= t <=
        t_end``, touching at most two stride blocks of the time column."""
        time_arr = self.array("ev_time")
        ti = self._time_index()
        lo = _narrowed_searchsorted(
            time_arr, ti, self.time_index_stride, int(t_start), "left"
        )
        hi = _narrowed_searchsorted(
            time_arr, ti, self.time_index_stride, int(t_end), "right"
        )
        return lo, hi

    def events(self) -> "MappedEventSet":
        """The artifact's event log as a mapped
        :class:`~repro.events.event_set.TemporalEventSet`."""
        return MappedEventSet(
            self.path,
            self.array("ev_src"),
            self.array("ev_dst"),
            self.array("ev_time"),
            self.n_vertices,
            self._time_index(),
            self.time_index_stride,
        )

    # ------------------------------------------------------------------
    def header_info(self) -> Dict[str, object]:
        """The raw preamble fields (shared header-dump shape with
        ``.rankstore``; see ``repro-temporal inspect``)."""
        return {
            "magic": MAGIC.decode(),
            "version": VERSION,
            "finalized": True,
            "n_vertices": self.n_vertices,
            "n_events": self.n_events,
            "time_index_stride": self.time_index_stride,
            "preamble_bytes": PREAMBLE_SIZE,
            "alignment": ALIGNMENT,
        }

    def array_table(self) -> List[Dict[str, object]]:
        """Per-array layout rows (name, dtype, shape, offset, bytes)."""
        rows = []
        for name in self._entries:
            e = self._entries[name]
            nbytes = int(
                np.prod(e["shape"], dtype=np.int64)
            ) * np.dtype(str(e["dtype"])).itemsize
            rows.append(
                {
                    "name": name,
                    "dtype": str(e["dtype"]),
                    "shape": tuple(int(d) for d in e["shape"]),
                    "offset": int(e["offset"]),
                    "bytes": nbytes,
                }
            )
        return rows

    def stored_bytes(self) -> int:
        """Total bytes of all mapped arrays (address space, not RSS)."""
        return sum(int(r["bytes"]) for r in self.array_table())

    def info(self) -> Dict[str, object]:
        """A flat summary for ``repro-temporal inspect``."""
        info: Dict[str, object] = {
            "format": f"tcsr v{VERSION}",
            "vertices": self.n_vertices,
            "events": self.n_events,
            "arrays": len(self._entries),
            "array bytes": self.stored_bytes(),
            "file bytes": os.path.getsize(self.path),
            "time-index entries": len(self._time_index()),
            "time-index stride": self.time_index_stride,
        }
        if self.n_events:
            t = self.array("ev_time")
            info["time span"] = f"[{int(t[0])}, {int(t[-1])}]"
        for key in ("chunk_events", "n_chunks"):
            if key in self.meta:
                info[f"built with {key}"] = self.meta[key]
        return info

    def close(self) -> None:
        """Release the mappings; all views become invalid."""
        for arr in self._views.values():
            _close_map(arr)
        self._views.clear()

    def __enter__(self) -> "TcsrFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TcsrFile({self.path!r}, vertices={self.n_vertices}, "
            f"events={self.n_events})"
        )


class MappedEventSet(TemporalEventSet):
    """A ``TemporalEventSet`` whose arrays are ``.tcsr``-mapped views.

    Construction is trusted (the artifact writer validated and sorted
    once), so opening is O(1) — no full-array scans.  Pickling carries
    only the artifact path: workers reopen the file and map the same
    pages instead of serializing the arrays.
    """

    __slots__ = ("path", "_time_index", "_stride")

    def __init__(
        self,
        path: PathLike,
        src: np.ndarray,
        dst: np.ndarray,
        time: np.ndarray,
        n_vertices: int,
        time_index: np.ndarray,
        stride: int,
    ) -> None:
        # deliberately NOT calling TemporalEventSet.__init__: its O(n)
        # validation scans (id bounds, monotone timestamps) would page
        # the whole mapped log in; the writer enforced both invariants
        self.src = src
        self.dst = dst
        self.time = time
        self.n_vertices = int(n_vertices)
        self.path = os.fspath(path)
        self._time_index = np.array(time_index)
        self._stride = int(stride)

    def time_slice_indices(self, t_start: int, t_end: int) -> Tuple[int, int]:
        lo = _narrowed_searchsorted(
            self.time, self._time_index, self._stride,
            int(t_start), "left",
        )
        hi = _narrowed_searchsorted(
            self.time, self._time_index, self._stride,
            int(t_end), "right",
        )
        return lo, hi

    def __reduce__(self):
        return (open_events, (self.path,))

    def close(self) -> None:
        """Unmap the event arrays; all views become invalid."""
        for arr in (self.src, self.dst, self.time):
            _close_map(arr)


def open_events(path: PathLike) -> MappedEventSet:
    """Open a ``.tcsr`` artifact's event log as a mapped event set."""
    return TcsrFile(path).events()


def is_tcsr(path: PathLike) -> bool:
    """Whether ``path`` starts with the ``.tcsr`` magic."""
    try:
        with open(path, "rb") as f:
            return f.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
