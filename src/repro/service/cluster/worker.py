"""The shard worker process: one window range served out of shared memory.

A worker owns no rank data.  The coordinator packs each shard's rows of
the rank matrix into a POSIX shared-memory arena
(:mod:`repro.parallel.shared_arena`); the worker *attaches* and builds a
:class:`ShardStore` — a rank-store stand-in whose ``matrix`` is a
zero-copy view of those shared pages — so R replicas of a shard share one
physical copy of the rows instead of R heap copies.  On top of the store
sits a :class:`~repro.service.engine.QueryEngine` (LRU slice/top-k
caches) fed by a :class:`BatchingExecutor`, the micro-batching layer:
every request enqueues onto one queue, a bounded pool of threads drains
it in gulps, concatenates the drained queries and evaluates them through
``QueryEngine.batch``, so concurrent queries against the same window
share one slice decode.  Under no load a request is evaluated alone (no
added latency); under load, coalescing amortizes decode cost exactly
when it matters.

Transport is a ``multiprocessing`` duplex pipe.  Requests arrive as
``(req_id, kind, payload)`` tuples with *local* window indices (the
coordinator translates global indices before sending); replies go back
as ``(req_id, ok, result)``.  Replies may be sent from any executor
thread, so the connection is written under a send lock.  A ``None``
message is the shutdown sentinel: the worker drains, closes, and exits.

Pipe EOF alone cannot signal abrupt coordinator death: under the fork
start method each worker inherits the parent-side pipe fds of every
sibling spawned before it, so those fds outlive the parent and the pipe
never closes.  The recv loop therefore polls with a timeout and watches
``os.getppid()`` — an orphaned worker (parent gone, reparented to init)
exits within a second instead of lingering.

Kinds::

    batch   payload = list of query dicts  -> list of result dicts
    slice   payload = local window index   -> that window's rank vector
                                              (the cross-shard movers path)
    ping    payload = None                 -> executor + cache stats
                                              (the health-check probe)
"""

from __future__ import annotations

import logging
import os
import queue
import threading
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.parallel.shared_arena import ArenaHandle, attach_arena
from repro.sanitize import (
    LOCK_RANK_EXECUTOR_COUNTERS,
    LOCK_RANK_EXECUTOR_STATE,
    make_lock,
)
from repro.service.cluster.shard_map import ShardSpec
from repro.service.engine import QueryEngine

__all__ = ["BatchingExecutor", "ShardStore", "shard_worker_main"]

logger = logging.getLogger(__name__)

_STOP = object()


class _Job:
    """One submitted unit: a list of queries and the future for their
    results (a single GET is a one-query job)."""

    __slots__ = ("queries", "future")

    def __init__(self, queries: Sequence[Dict]) -> None:
        self.queries = list(queries)
        self.future: "Future[List[Dict]]" = Future()


class BatchingExecutor:
    """Coalesces concurrent query jobs into shared engine batches.

    The queue is unbounded: the coordinator-side :class:`~repro.service.
    cluster.coordinator.ReplicaProxy` already bounds (and sheds) what
    reaches a shard worker's pipe.
    """

    def __init__(
        self,
        engine: QueryEngine,
        workers: int = 4,
        max_batch: int = 64,
    ) -> None:
        if workers <= 0:
            raise ValidationError(f"workers must be > 0, got {workers}")
        if max_batch <= 0:
            raise ValidationError(f"max_batch must be > 0, got {max_batch}")
        self.engine = engine
        self.max_batch = max_batch
        self._queue: "queue.Queue" = queue.Queue()
        self._counter_lock = make_lock(
            "executor-counters", LOCK_RANK_EXECUTOR_COUNTERS
        )
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.batches_executed = 0
        self.batched_queries = 0
        self.jobs_coalesced = 0
        #: guards ``_stopped`` together with queue insertion, so a job can
        #: never be enqueued behind the ``_STOP`` sentinels (where no
        #: worker would ever drain it)
        self._state_lock = make_lock(
            "executor-state", LOCK_RANK_EXECUTOR_STATE
        )
        self._stopped = False
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"rank-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._workers:
            t.start()

    # ------------------------------------------------------------------
    def submit(self, queries: Sequence[Dict]) -> "Future[List[Dict]]":
        """Enqueue one job; the future resolves to one result per query."""
        job = _Job(queries)
        with self._state_lock:
            if self._stopped:
                raise ValidationError("executor is stopped")
            self._queue.put(job)
        with self._counter_lock:
            self.jobs_submitted += 1
        return job.future

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            jobs = [job]
            # gulp whatever queued up behind this job: those queries ride
            # in the same engine batch and share slice decodes
            while sum(len(j.queries) for j in jobs) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    self._queue.put(_STOP)  # hand the sentinel back
                    break
                jobs.append(nxt)
            queries = [q for j in jobs for q in j.queries]
            try:
                results = self.engine.batch(queries)
            except Exception as exc:  # noqa: BLE001 - worker boundary
                with self._counter_lock:
                    self.jobs_completed += len(jobs)
                for j in jobs:
                    if not j.future.set_running_or_notify_cancel():
                        continue
                    j.future.set_exception(exc)
                continue
            with self._counter_lock:
                self.batches_executed += 1
                self.batched_queries += len(queries)
                self.jobs_completed += len(jobs)
                if len(jobs) > 1:
                    self.jobs_coalesced += len(jobs)
            offset = 0
            for j in jobs:
                part = results[offset:offset + len(j.queries)]
                offset += len(j.queries)
                if j.future.set_running_or_notify_cancel():
                    j.future.set_result(part)

    def stats(self) -> Dict[str, float]:
        with self._counter_lock:
            in_flight = self.jobs_submitted - self.jobs_completed
            mean_batch = (
                self.batched_queries / self.batches_executed
                if self.batches_executed
                else 0.0
            )
            return {
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs_completed,
                "in_flight": in_flight,
                "batches_executed": self.batches_executed,
                "jobs_coalesced": self.jobs_coalesced,
                "mean_batch_queries": round(mean_batch, 3),
                "workers": len(self._workers),
            }

    def stop(self, timeout: float = 5.0) -> bool:
        """Drain outstanding jobs, then stop the workers.

        Returns ``True`` when every worker actually exited within
        ``timeout``; ``False`` means some worker is still mid-batch and
        may touch the engine after this call (the caller must not unmap
        the store in that case).  Jobs left undrained (only possible on
        timeout) get their futures failed so no waiter hangs.
        """
        with self._state_lock:
            if self._stopped:
                return all(not t.is_alive() for t in self._workers)
            self._stopped = True
            for _ in self._workers:
                self._queue.put(_STOP)
        for t in self._workers:
            t.join(timeout)
        all_exited = all(not t.is_alive() for t in self._workers)
        # fail any leftovers so their waiters get an immediate error
        # instead of blocking until their request timeout
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is _STOP:
                continue
            if job.future.set_running_or_notify_cancel():
                job.future.set_exception(
                    ValidationError("executor is stopped")
                )
        # the drain may have eaten a sentinel a straggler still needs to
        # exit once its batch finishes — re-seed one per live worker
        for t in self._workers:
            if t.is_alive():
                self._queue.put(_STOP)
        return all_exited


class ShardStore:
    """A rank-store stand-in over one shard's shared-memory rows.

    Exposes exactly the read surface :class:`QueryEngine` consumes:
    ``matrix`` / ``n_windows`` / ``n_vertices`` / ``check_window`` /
    ``check_vertex`` / ``windows_at`` / ``info`` / ``close``.  Window
    indices are *local* (row 0 is global window ``spec.window_lo``); the
    coordinator owns the translation.
    """

    def __init__(self, handle: ArenaHandle, prefix: str,
                 spec: ShardSpec) -> None:
        self.spec = spec
        self._view = attach_arena(handle)
        self.matrix = self._view.shared_view(prefix + "matrix")
        if self.matrix.ndim != 2:
            raise ValidationError(
                f"shard {spec.shard_id}: expected a 2-D rank matrix, got "
                f"shape {self.matrix.shape}"
            )
        if self.matrix.shape[0] != spec.n_windows:
            raise ValidationError(
                f"shard {spec.shard_id}: arena holds "
                f"{self.matrix.shape[0]} rows, spec says {spec.n_windows}"
            )
        self.n_windows = int(self.matrix.shape[0])
        self.n_vertices = int(self.matrix.shape[1])
        self.dtype = self.matrix.dtype
        self.path = f"shard://{spec.shard_id}"

    # ------------------------------------------------------------------
    def check_window(self, index: int) -> int:
        index = int(index)
        if not (0 <= index < self.n_windows):
            raise ValidationError(
                f"window index {index} out of range [0, {self.n_windows}) "
                f"on shard {self.spec.shard_id}"
            )
        return index

    def check_vertex(self, vertex: int) -> int:
        vertex = int(vertex)
        if not (0 <= vertex < self.n_vertices):
            raise ValidationError(
                f"vertex {vertex} out of range [0, {self.n_vertices})"
            )
        return vertex

    def windows_at(self, timestamp: int) -> np.ndarray:
        raise ValidationError(
            "timestamp lookup is answered by the cluster frontend, not a "
            "shard"
        )

    def info(self) -> Dict[str, object]:
        return {
            "format": "shard (shared-memory)",
            "shard": self.spec.shard_id,
            "window_lo": self.spec.window_lo,
            "window_hi": self.spec.window_hi,
            "windows": self.n_windows,
            "vertices": self.n_vertices,
            "dtype": self.dtype.name,
        }

    def close(self) -> None:
        """Drop the matrix reference (the arena mapping belongs to the
        attach cache; the segment itself to the coordinator)."""
        self.matrix = None


def shard_worker_main(
    shard_id: int,
    replica_id: int,
    handle: ArenaHandle,
    prefix: str,
    spec: ShardSpec,
    conn,
    engine_workers: int = 2,
    max_batch: int = 64,
    slice_cache_size: int = 64,
    topk_cache_size: int = 256,
) -> None:
    """Entry point of one replica process: serve the pipe until told not to.

    Every reply path (executor callback threads, the recv loop itself)
    funnels through one send lock so pipe writes never interleave.
    """
    store: Optional[ShardStore] = None
    executor: Optional[BatchingExecutor] = None
    engine: Optional[QueryEngine] = None
    send_lock = threading.Lock()

    def reply(req_id: int, ok: bool, result) -> None:
        with send_lock:
            try:
                conn.send((req_id, ok, result))
            except (BrokenPipeError, OSError) as exc:
                # the parent went away; nothing to answer to anymore
                logger.warning(
                    "shard %d/%d reply failed: %s", shard_id, replica_id, exc
                )

    try:
        store = ShardStore(handle, prefix, spec)
        engine = QueryEngine(
            store,
            slice_cache_size=slice_cache_size,
            topk_cache_size=topk_cache_size,
        )
        executor = BatchingExecutor(
            engine, workers=engine_workers, max_batch=max_batch
        )
        parent_pid = os.getppid()
        while True:
            try:
                if not conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        logger.warning(
                            "shard %d/%d orphaned (coordinator %d gone), "
                            "exiting", shard_id, replica_id, parent_pid,
                        )
                        break
                    continue
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            req_id, kind, payload = msg
            if kind == "batch":
                future = executor.submit(payload)

                def _done(f, rid=req_id):
                    exc = f.exception()
                    if exc is not None:
                        reply(rid, False, str(exc))
                    else:
                        reply(rid, True, f.result())

                future.add_done_callback(_done)
            elif kind == "slice":
                try:
                    values = engine.window_slice(int(payload))
                except ValidationError as exc:
                    reply(req_id, False, str(exc))
                else:
                    reply(req_id, True, values)
            elif kind == "ping":
                stats = dict(engine.stats())
                stats["batching"] = executor.stats()
                stats["shard"] = shard_id
                stats["replica"] = replica_id
                reply(req_id, True, stats)
            else:
                reply(req_id, False, f"unknown request kind {kind!r}")
    finally:
        if executor is not None:
            executor.stop(timeout=2.0)
        if engine is not None:
            engine.close()
        elif store is not None:
            store.close()
        try:
            conn.close()
        except OSError as exc:  # pragma: no cover - teardown race
            logger.debug("shard %d/%d conn close: %s",
                         shard_id, replica_id, exc)
