"""Zero-copy shared-memory publication for process-parallel tasks.

Pickling a task's arrays into every worker gives back what building the
event log **once** bought.  This module publishes read-only arrays (the
event log's ``src``/``dst``/``time`` columns) into POSIX shared memory
(``multiprocessing.shared_memory``) instead — or, when they are already
``.tcsr``-mapped, points workers at the same file regions — so a task
submission carries only a few-hundred-byte *handle* (the segment name
plus an offset manifest) and a small payload, and workers read zero-copy
views of the same physical pages.  :func:`run_arena_tasks` is the one
entry point; :func:`repro.runtime.execution.map_tasks` routes the
``shared`` executor through it.

Ownership model (see docs/architecture.md for the diagram):

* the **parent** process creates segments via :class:`SharedArenaRegistry`
  and is the only process that ever ``unlink``\\ s them — teardown runs in
  a ``finally`` (plus an ``atexit`` safety net), so segments are reclaimed
  after normal exit, driver exceptions, *and* killed workers;
* **workers** only attach.  A worker crash cannot leak ``/dev/shm``
  entries because attaching never creates one, and the per-process
  attachment cache keeps repeated tasks on the same segment free.

Results flow back through a queue drained by a parent-side thread, which
is what lets ``value_sink`` callbacks (e.g. a streaming
:class:`~repro.service.RankStoreWriter`) work under process execution:
workers put ``(window, values, meta)`` tuples, the drain thread invokes
the user callback in the parent.
"""

from __future__ import annotations

import atexit
import ctypes
import logging
import multiprocessing
import os
import pickle
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.utils.arrays import file_backed_descriptor

__all__ = [
    "ArrayDesc",
    "ArenaHandle",
    "ArenaView",
    "FileArrayDesc",
    "MappedArenaHandle",
    "MappedArenaView",
    "SharedArena",
    "SharedArenaRegistry",
    "attach_arena",
    "run_arena_tasks",
]

_LOG = logging.getLogger("repro.parallel.shared_arena")

#: byte alignment of every packed array (cache-line / SIMD friendly)
_ALIGNMENT = 64

#: /dev/shm name prefix of every segment this module creates — the
#: lifecycle tests grep for it to prove nothing leaks
ARENA_NAME_PREFIX = "repro_arena"

#: per-process cache of attached segments: segment name -> ArenaView
_ATTACH_CACHE: Dict[str, "ArenaView"] = {}

#: worker-process state installed by the pool initializer
_WORKER_STATE: Dict[str, object] = {}


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


@dataclass(frozen=True)
class ArrayDesc:
    """Location of one packed array inside a segment (picklable)."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n


@dataclass(frozen=True)
class ArenaHandle:
    """Everything a worker needs to attach: name + manifest (picklable)."""

    segment: str
    manifest: Tuple[ArrayDesc, ...]

    def attach(self) -> "ArenaView":
        """Open the segment in this process (cached; see
        :func:`attach_arena`)."""
        return attach_arena(self)

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(d.key for d in self.manifest)


class ArenaView:
    """An attached segment plus lazily-created read-only array views.

    Note on CPython's shared-memory resource tracker: attaching registers
    the segment name again (bpo-39959), but our workers are always
    children of the creating parent and therefore share its tracker
    process, where registration is idempotent by name — the parent's
    single ``unlink`` balances the books.  Explicitly unregistering
    attachments here would strip the parent's own registration from the
    shared tracker and make the eventual unlink error.
    """

    def __init__(self, handle: ArenaHandle) -> None:
        self._shm = shared_memory.SharedMemory(name=handle.segment)
        self._descs: Dict[str, ArrayDesc] = {
            d.key: d for d in handle.manifest
        }
        self._views: Dict[str, np.ndarray] = {}
        #: per-attachment objects tasks derive from the views (dropped
        #: on close)
        self.memo: Dict[str, object] = {}
        self.segment = handle.segment

    def shared_view(self, key: str) -> np.ndarray:
        """A read-only zero-copy view of one published array.

        The view aliases shared pages: it is valid only while this
        process's attachment is open, and callers that outlive the arena
        must copy.  Functions outside this module that hand such views
        onward are flagged by the ``mmap-escape`` lint rule unless they
        justify it.
        """
        arr = self._views.get(key)
        if arr is None:
            desc = self._descs.get(key)
            if desc is None:
                raise ValidationError(
                    f"segment {self.segment!r} has no array {key!r}"
                )
            arr = np.ndarray(
                desc.shape,
                dtype=np.dtype(desc.dtype),
                buffer=self._shm.buf,
                offset=desc.offset,
            )
            arr.flags.writeable = False
            self._views[key] = arr
        # the accessor itself is the one sanctioned zero-copy boundary
        # (documented contract above)
        # lint: disable=mmap-escape
        return arr

    def arrays(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """All views whose key starts with ``prefix``, keys de-prefixed."""
        return {
            d.key[len(prefix):]: self.shared_view(d.key)
            for d in self._descs.values()
            if d.key.startswith(prefix)
        }

    def close(self) -> None:
        """Drop the views and this process's mapping (never unlinks)."""
        self._views.clear()
        self.memo.clear()
        _ATTACH_CACHE.pop(self.segment, None)
        try:
            self._shm.close()
        except BufferError as exc:
            # a caller still holds a view; the mapping lives until that
            # reference dies, but the segment itself is not leaked (only
            # the creator's unlink controls /dev/shm)
            _LOG.warning("arena %s close deferred: %s", self.segment, exc)


@dataclass(frozen=True)
class FileArrayDesc:
    """Location of one array inside a memory-mapped *file* (picklable).

    The out-of-core sibling of :class:`ArrayDesc`: instead of a shm
    segment offset it carries ``(path, byte offset)`` into an on-disk
    artifact (e.g. a ``.tcsr``), recovered by
    :func:`repro.utils.arrays.file_backed_descriptor`.
    """

    key: str
    dtype: str
    shape: Tuple[int, ...]
    path: str
    offset: int

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n


@dataclass(frozen=True)
class MappedArenaHandle:
    """A zero-copy arena handle over file-backed arrays (picklable).

    No shared-memory segment exists: every worker ``mmap``\\ s the same
    file regions, so the kernel page cache is the shared medium and
    publication costs nothing regardless of array size.  Nothing to
    unlink either — reclamation is closing the per-process mappings.
    """

    segment: str
    manifest: Tuple[FileArrayDesc, ...]

    def attach(self) -> "MappedArenaView":
        return attach_arena(self)

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(d.key for d in self.manifest)

    @property
    def nbytes(self) -> int:
        return sum(d.nbytes for d in self.manifest)


class MappedArenaView:
    """Per-process read-only mappings of a :class:`MappedArenaHandle`.

    Same access interface as :class:`ArenaView` (``shared_view`` /
    ``arrays`` / ``memo`` / ``close``), so arena workers are agnostic to whether
    their arrays live in ``/dev/shm`` or in an on-disk artifact.
    """

    def __init__(self, handle: MappedArenaHandle) -> None:
        self._descs: Dict[str, FileArrayDesc] = {
            d.key: d for d in handle.manifest
        }
        self._views: Dict[str, np.ndarray] = {}
        self.memo: Dict[str, object] = {}
        self.segment = handle.segment

    def shared_view(self, key: str) -> np.ndarray:
        """A read-only view mapping the array's file region (cached)."""
        arr = self._views.get(key)
        if arr is None:
            desc = self._descs.get(key)
            if desc is None:
                raise ValidationError(
                    f"mapped arena {self.segment!r} has no array {key!r}"
                )
            if desc.nbytes == 0:
                arr = np.empty(desc.shape, dtype=np.dtype(desc.dtype))
                arr.flags.writeable = False
            else:
                arr = np.memmap(
                    desc.path,
                    dtype=np.dtype(desc.dtype),
                    mode="r",
                    offset=desc.offset,
                    shape=desc.shape,
                )
        self._views[key] = arr
        # the accessor itself is the one sanctioned zero-copy boundary
        # (same contract as ArenaView)
        # lint: disable=mmap-escape
        return arr

    def arrays(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """All views whose key starts with ``prefix``, keys de-prefixed."""
        return {
            d.key[len(prefix):]: self.shared_view(d.key)
            for d in self._descs.values()
            if d.key.startswith(prefix)
        }

    def close(self) -> None:
        """Drop the views and close this process's file mappings."""
        views = dict(self._views)
        self._views.clear()
        self.memo.clear()
        _ATTACH_CACHE.pop(self.segment, None)
        for arr in views.values():
            mm = getattr(arr, "_mmap", None)
            if mm is not None:
                try:
                    mm.close()
                except BufferError as exc:
                    # a caller still holds a view; the read-only file
                    # mapping dies with that reference — nothing leaks
                    _LOG.warning(
                        "mapped arena %s close deferred: %s",
                        self.segment, exc,
                    )


def mapped_manifest(
    arrays: Dict[str, np.ndarray]
) -> Optional[Tuple[FileArrayDesc, ...]]:
    """File descriptors for ``arrays`` when *every* one is file-backed.

    Returns ``None`` (publish must copy into shm) as soon as any array
    is a plain heap array or a non-contiguous view.
    """
    descs: List[FileArrayDesc] = []
    for key, arr in arrays.items():
        located = file_backed_descriptor(arr)
        if located is None:
            return None
        path, offset = located
        descs.append(
            FileArrayDesc(
                key=key,
                dtype=arr.dtype.str,
                shape=tuple(arr.shape),
                path=path,
                offset=offset,
            )
        )
    return tuple(descs) if descs else None


def attach_arena(handle) -> "ArenaView | MappedArenaView":
    """Attach to a published arena, reusing this process's mapping.

    Dispatches on the handle type: shm-backed :class:`ArenaHandle` or
    file-backed :class:`MappedArenaHandle`.
    """
    view = _ATTACH_CACHE.get(handle.segment)
    if view is None:
        if isinstance(handle, MappedArenaHandle):
            view = MappedArenaView(handle)
        else:
            view = ArenaView(handle)
        _ATTACH_CACHE[handle.segment] = view
    return view


class SharedArena:
    """One shared-memory segment holding a set of packed arrays.

    Created (and eventually unlinked) by the parent process only; workers
    go through :class:`ArenaHandle`/:func:`attach_arena`.
    """

    def __init__(
        self, arrays: Dict[str, np.ndarray], name: Optional[str] = None
    ) -> None:
        descs: List[ArrayDesc] = []
        payload: List[np.ndarray] = []
        offset = 0
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = _aligned(offset)
            descs.append(
                ArrayDesc(
                    key=key,
                    dtype=arr.dtype.str,
                    shape=tuple(arr.shape),
                    offset=offset,
                )
            )
            payload.append(arr)
            offset += arr.nbytes
        if name is None:
            name = (
                f"{ARENA_NAME_PREFIX}_{os.getpid()}_{uuid.uuid4().hex[:12]}"
            )
        self.name = name
        self.nbytes = offset
        self._shm = shared_memory.SharedMemory(
            create=True, name=name, size=max(offset, 1)
        )
        for desc, arr in zip(descs, payload):
            if arr.nbytes == 0:
                continue
            dst = np.ndarray(
                desc.shape,
                dtype=arr.dtype,
                buffer=self._shm.buf,
                offset=desc.offset,
            )
            dst[...] = arr
            del dst  # release the buffer export before any close()
        self.manifest: Tuple[ArrayDesc, ...] = tuple(descs)
        self._destroyed = False

    def handle(self) -> ArenaHandle:
        return ArenaHandle(segment=self.name, manifest=self.manifest)

    def destroy(self, unlink: bool = True) -> None:
        """Unlink (reclaim the /dev/shm entry) and close our mapping.

        Unlink happens *first*: even if a still-exported view keeps the
        local mapping alive, the named segment is gone and cannot leak.
        Idempotent.
        """
        if self._destroyed:
            return
        self._destroyed = True
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError as exc:
                _LOG.debug("arena %s already unlinked: %s", self.name, exc)
        view = _ATTACH_CACHE.get(self.name)
        if view is not None:
            view.close()
        try:
            self._shm.close()
        except BufferError as exc:
            _LOG.warning("arena %s close deferred: %s", self.name, exc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedArena({self.name!r}, arrays={len(self.manifest)}, "
            f"bytes={self.nbytes})"
        )


class SharedArenaRegistry:
    """Owns every arena a run creates and guarantees reclamation.

    Use as a context manager (or call :meth:`close` in a ``finally``);
    an ``atexit`` hook is the last-resort net for interpreter exit with
    the registry still open.  Single-threaded by design: one registry
    belongs to one driver run in one thread.
    """

    def __init__(self) -> None:
        self._arenas: List[SharedArena] = []
        self._mapped: List[MappedArenaHandle] = []
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def publish(self, arrays: Dict[str, np.ndarray]):
        """Publish ``arrays``; returns a picklable arena handle.

        When every array is already file-backed (mmap views of a
        ``.tcsr`` artifact), no shared-memory segment is created at all —
        the returned :class:`MappedArenaHandle` points workers at the
        same file regions, zero bytes copied.  Otherwise the arrays are
        packed into a fresh shm segment as before.
        """
        if self._closed:
            raise ValidationError("registry is closed")
        manifest = mapped_manifest(arrays)
        if manifest is not None:
            digest = uuid.uuid5(
                uuid.NAMESPACE_URL, repr(manifest)
            ).hex[:12]
            handle = MappedArenaHandle(
                segment=f"mapped_{digest}", manifest=manifest
            )
            self._mapped.append(handle)
            return handle
        arena = SharedArena(arrays)
        self._arenas.append(arena)
        return arena.handle()

    @property
    def total_bytes(self) -> int:
        """Bytes *copied* into shm segments (mapped arenas cost zero)."""
        return sum(a.nbytes for a in self._arenas)

    @property
    def mapped_bytes(self) -> int:
        """Bytes published as file mappings without copying."""
        return sum(h.nbytes for h in self._mapped)

    @property
    def segments(self) -> List[str]:
        return [a.name for a in self._arenas]

    def close(self, unlink: bool = True) -> None:
        """Destroy every arena (idempotent; safe from atexit)."""
        if self._closed:
            return
        self._closed = True
        for arena in self._arenas:
            arena.destroy(unlink=unlink)
        for handle in self._mapped:
            view = _ATTACH_CACHE.get(handle.segment)
            if view is not None:
                view.close()
        atexit.unregister(self.close)

    def __enter__(self) -> "SharedArenaRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# result shuttle: worker -> queue -> parent drain thread -> value_sink
# ----------------------------------------------------------------------
class _SinkDrain:
    """Parent-side thread that forwards queued window results to the
    user's ``value_sink`` callback."""

    def __init__(self, sink: Callable, ctx) -> None:
        self.queue = ctx.Queue()
        self._sink = sink
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._loop, name="arena-sink-drain", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _loop(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            if self.error is not None:
                continue  # keep draining so workers never block, drop
            try:
                self._sink(*item)
            except BaseException as exc:  # surface via finish()
                self.error = exc

    def finish(self) -> Optional[BaseException]:
        """Stop the thread and report the first sink error (if any)."""
        self.queue.put(None)
        self._thread.join()
        return self.error


def _init_worker(sink_queue, worker, args) -> None:
    """Pool initializer: installs the per-run constants in the worker.

    The result queue, the worker callable, and the shared ``args`` tuple
    are identical for every task of a run, so they ride the initializer
    (pickled once per worker process) instead of every task submission —
    task submissions stay at "handle + small payload + index", which is
    what the zero-payload probe asserts.
    """
    _WORKER_STATE["sink_queue"] = sink_queue
    _WORKER_STATE["worker"] = worker
    _WORKER_STATE["args"] = args


def _worker_sink(window_index: int, values, meta) -> None:
    """The ``value_sink`` stand-in inside workers: ship, don't call."""
    queue = _WORKER_STATE.get("sink_queue")
    if queue is None:
        raise ValidationError(
            "worker has no sink queue (pool started without initializer)"
        )
    queue.put((window_index, values, meta))


def _malloc_trim() -> Optional[Callable[[int], int]]:
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    return trim


def _run_arena_task(handle: ArenaHandle, payload, index: int):
    """Module-level task shim for :func:`run_arena_tasks` workers.

    A task's arrays are all freed by the time it returns, but glibc keeps
    freed heap resident and gives the top of it back only past a
    threshold that moves with the largest array freed so far.  What a
    worker holds after a task, and so its peak during the next one, would
    then depend on which tasks it happened to run before; trimming after
    every task starts each one from the same footprint.
    """
    view = attach_arena(handle)
    sink = _worker_sink if _WORKER_STATE.get("sink_queue") is not None else None
    try:
        return _WORKER_STATE["worker"](
            view, payload, index, sink, *_WORKER_STATE["args"]
        )
    finally:
        if "malloc_trim" not in _WORKER_STATE:
            _WORKER_STATE["malloc_trim"] = _malloc_trim()
        trim = _WORKER_STATE["malloc_trim"]
        if trim is not None:
            trim(0)


def run_arena_tasks(
    arrays: Dict[str, np.ndarray],
    payloads: Sequence,
    worker: Callable,
    args: Tuple = (),
    n_workers: int = 2,
    value_sink: Optional[Callable] = None,
    mp_context=None,
):
    """Execute ``worker(view, payload, index, sink, *args)`` per payload
    in a process pool attached to one published segment of ``arrays``.

    Publishes the read-only ``arrays`` once and fans small, picklable
    ``payloads`` out over them — e.g. the event log's ``src``/``dst``/
    ``time`` columns with multi-window graph recipes or window ranges.
    Workers receive the attached :class:`ArenaView` (cached per process,
    with a ``memo`` for objects derived from it) and must copy anything
    that outlives the task.  ``worker`` must be module-level (pickled by
    reference); it and ``args`` ride the pool initializer, once per worker
    process, so each task ships only ``(handle, payload, index)``.
    ``value_sink(window, values, meta)``, when given, is invoked in the
    *parent* by a drain thread fed from a worker-side queue.

    Returns ``(results, stats)``: worker return values in submission order
    and the dispatch cost — pickled bytes of all task payloads
    (``payload_bytes``, the probe the tests and the shared-memory
    benchmark assert on), the one-time initializer bytes per worker
    (``init_bytes``), copied and mapped arena bytes, and publish time.
    The first sink error is re-raised after the pool winds down; the
    arena is reclaimed on every exit path.
    """
    if n_workers <= 0:
        raise ValidationError("n_workers must be > 0")
    ctx = mp_context if mp_context is not None else multiprocessing.get_context()
    registry = SharedArenaRegistry()
    stats: Dict[str, object] = {}
    try:
        t0 = time.perf_counter()
        handle = registry.publish(arrays)
        stats["publish_seconds"] = time.perf_counter() - t0
        stats["arena_bytes"] = registry.total_bytes
        stats["mapped_bytes"] = registry.mapped_bytes
        stats["segments"] = list(registry.segments)

        task_payloads = [(handle, p, i) for i, p in enumerate(payloads)]
        stats["payload_bytes"] = sum(
            len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
            for p in task_payloads
        )
        stats["init_bytes"] = len(
            pickle.dumps((worker, tuple(args)),
                         protocol=pickle.HIGHEST_PROTOCOL)
        )
        stats["n_tasks"] = len(task_payloads)

        drain: Optional[_SinkDrain] = None
        if value_sink is not None:
            drain = _SinkDrain(value_sink, ctx)
            drain.start()
        initargs = (
            drain.queue if drain is not None else None, worker, tuple(args)
        )
        try:
            with ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=initargs,
            ) as pool:
                futures = [
                    pool.submit(_run_arena_task, *p) for p in task_payloads
                ]
                results = [f.result() for f in futures]
        finally:
            sink_error = drain.finish() if drain is not None else None
        if sink_error is not None:
            raise sink_error
    finally:
        registry.close(unlink=True)
    return results, stats
