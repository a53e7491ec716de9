"""The cluster coordinator: shard processes, routing, health, degradation.

:class:`ShardCluster` federates one ``.rankstore`` across worker
processes:

* at startup each shard's rows of the rank matrix are published
  **once** as an arena: a mapping of the store file when it is
  file-backed, otherwise a POSIX shared-memory segment owned and
  eventually unlinked by this process only; every replica of a shard
  attaches zero-copy, so hot rank pages exist once per machine
  regardless of replica count;
* each query is routed by the :class:`~repro.service.cluster.shard_map.
  ShardMap`: point lookups (``top_k``/``rank``) go to the owning shard,
  ``trajectory`` scatters over every overlapping shard and gathers the
  segments in window order, cross-shard ``movers`` fetches the two
  window vectors and ranks the deltas parent-side with the *same*
  :func:`~repro.service.engine.compute_movers` the single-process engine
  uses, and ``windows_at`` is answered from the interval index held here
  (no shard round-trip);
* every replica proxy carries a **bounded admission queue**: when a
  shard's queue is full past the submit timeout the query is shed with
  :class:`~repro.errors.OverloadedError` (HTTP ``429``) instead of
  queueing without bound — backpressure propagates to clients rather
  than turning into latency;
* a health thread pings replicas and watches their processes; when every
  replica of a shard is dead the shard's window range degrades: queries
  touching it come back with an explicit ``degraded`` flag (partial
  results where the op allows it) while the surviving ranges keep
  serving.

The coordinator is transport-agnostic — ``batch()`` takes and returns
the same query/result dicts as :meth:`QueryEngine.batch` — so the
asyncio frontend, the CLI, and the tests all drive one code path.
"""

from __future__ import annotations

import logging
import os
import queue
import signal
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    OverloadedError,
    ShardUnavailableError,
    ValidationError,
)
from repro.parallel.shared_arena import SharedArenaRegistry
from repro.sanitize import (
    LOCK_RANK_CLUSTER_COUNTERS,
    LOCK_RANK_CLUSTER_REPLICA,
    LOCK_RANK_CLUSTER_STATE,
    make_lock,
)
from repro.service.cluster.shard_map import ShardMap, ShardSpec
from repro.service.cluster.worker import shard_worker_main
from repro.service.engine import compute_movers
from repro.service.store import RankStore, intervals_containing

__all__ = ["ReplicaProxy", "ShardCluster"]

logger = logging.getLogger(__name__)


class ReplicaProxy:
    """Parent-side handle to one replica process.

    Owns the duplex pipe, a sender thread (so no caller ever blocks on a
    pipe write while holding locks), a receiver thread (resolves request
    futures), and the bounded admission semaphore that implements
    per-shard backpressure.
    """

    def __init__(
        self,
        spec: ShardSpec,
        replica_id: int,
        process,
        conn,
        max_queue: int = 64,
        submit_timeout: float = 0.0,
    ) -> None:
        self.spec = spec
        self.replica_id = replica_id
        self.process = process
        self._conn = conn
        self.max_queue = max_queue
        self.submit_timeout = submit_timeout
        self._slots = threading.BoundedSemaphore(max_queue)
        self._lock = make_lock(
            f"replica-{spec.shard_id}.{replica_id}",
            LOCK_RANK_CLUSTER_REPLICA,
        )
        self._pending: Dict[int, Tuple[Future, bool]] = {}
        self._next_id = 0
        self._dead = False
        self._stopping = False
        self._death_reason: Optional[str] = None
        #: written only by the health thread, read by stats()
        self.last_stats: Optional[Dict] = None
        self._send_queue: "queue.Queue" = queue.Queue()
        self._sender = threading.Thread(
            target=self._send_loop,
            name=f"shard-{spec.shard_id}.{replica_id}-send",
            daemon=True,
        )
        self._receiver = threading.Thread(
            target=self._recv_loop,
            name=f"shard-{spec.shard_id}.{replica_id}-recv",
            daemon=True,
        )
        self._sender.start()
        self._receiver.start()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    def submit(self, kind: str, payload, admission: bool = True) -> Future:
        """Ship one request; the future resolves to the worker's reply.

        ``admission=False`` bypasses the bounded queue (health pings must
        get through precisely when the queue is full).
        """
        if self._dead:
            raise ShardUnavailableError(self._death_note())
        if admission and not self._slots.acquire(
            timeout=self.submit_timeout
        ):
            raise OverloadedError(
                f"shard {self.spec.shard_id} replica {self.replica_id} "
                f"queue full ({self.max_queue}); request shed"
            )
        future: Future = Future()
        with self._lock:
            if self._dead:
                if admission:
                    self._slots.release()
                raise ShardUnavailableError(self._death_note())
            req_id = self._next_id
            self._next_id = req_id + 1
            self._pending[req_id] = (future, admission)
        self._send_queue.put((req_id, kind, payload))
        return future

    # ------------------------------------------------------------------
    def _send_loop(self) -> None:
        while True:
            item = self._send_queue.get()
            if item is None:
                try:
                    self._conn.send(None)  # worker shutdown sentinel
                except (BrokenPipeError, OSError) as exc:
                    logger.debug("replica %s sentinel send failed: %s",
                                 self.name, exc)
                return
            try:
                self._conn.send(item)
            except (BrokenPipeError, OSError) as exc:
                self._mark_dead(f"pipe write failed: {exc}")
                return

    def _recv_loop(self) -> None:
        while True:
            try:
                req_id, ok, result = self._conn.recv()
            except (EOFError, OSError):
                self._mark_dead("pipe closed (process exited?)")
                return
            with self._lock:
                entry = self._pending.pop(req_id, None)
                if entry is not None and entry[1]:
                    self._slots.release()
            if entry is None:
                continue  # request already failed over / timed out
            future = entry[0]
            # resolve outside the replica lock: future callbacks may take
            # coarser (lower-rank) cluster locks
            if not future.set_running_or_notify_cancel():
                continue
            if ok:
                future.set_result(result)
            else:
                future.set_exception(ValidationError(str(result)))

    def _death_note(self) -> str:
        return (
            f"shard {self.spec.shard_id} replica {self.replica_id} is dead"
            + (f": {self._death_reason}" if self._death_reason else "")
        )

    def _mark_dead(self, reason: str) -> None:
        with self._lock:
            if self._dead:
                return
            self._dead = True
            self._death_reason = reason
            pending = list(self._pending.values())
            self._pending.clear()
            for _, admission in pending:
                if admission:
                    self._slots.release()
        note = logger.debug if self._stopping else logger.warning
        note("replica %s marked dead: %s", self.name, reason)
        exc = ShardUnavailableError(self._death_note())
        for future, _ in pending:
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)

    def mark_dead(self, reason: str) -> None:
        """Externally declare this replica dead (health checker)."""
        self._mark_dead(reason)

    @property
    def name(self) -> str:
        return f"{self.spec.shard_id}.{self.replica_id}"

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: sentinel, join, escalate to terminate/kill."""
        self._stopping = True
        self._send_queue.put(None)
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout)
        self._mark_dead("stopped")
        try:
            self._conn.close()
        except OSError as exc:  # pragma: no cover - teardown race
            logger.debug("replica %s conn close: %s", self.name, exc)
        self.process.close()

    def kill(self) -> None:
        """SIGKILL the replica process (failure-injection hook)."""
        if self.process.pid is not None and self.process.is_alive():
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.join(timeout=5.0)


# ----------------------------------------------------------------------
# per-query routing plans
# ----------------------------------------------------------------------
class _Part:
    """One shard-bound fragment of a query's plan."""

    __slots__ = ("shard_id", "query", "slice_window", "result", "error",
                 "degraded", "shed")

    def __init__(self, shard_id: int, query: Optional[Dict] = None,
                 slice_window: Optional[int] = None) -> None:
        self.shard_id = shard_id
        self.query = query
        self.slice_window = slice_window
        self.result = None
        self.error: Optional[str] = None
        self.degraded = False
        self.shed = False

    def fail(self, error: str, degraded: bool = False,
             shed: bool = False) -> None:
        self.error = error
        self.degraded = degraded
        self.shed = shed


class ShardCluster:
    """A sharded serving tier over one rank store."""

    def __init__(
        self,
        store: Union[str, os.PathLike],
        n_shards: int = 2,
        replicas: int = 1,
        max_queue: int = 64,
        submit_timeout: float = 0.0,
        request_timeout: float = 10.0,
        engine_workers: int = 2,
        max_batch: int = 64,
        health_interval: float = 0.5,
        ping_timeout: float = 5.0,
        mp_context=None,
    ) -> None:
        # checked here, not in the worker processes, where a bad value
        # would only surface as a dead shard
        for name, value in (("replicas", replicas), ("max_queue", max_queue),
                            ("engine_workers", engine_workers),
                            ("max_batch", max_batch)):
            if value <= 0:
                raise ValidationError(f"{name} must be > 0, got {value}")
        if submit_timeout < 0:
            raise ValidationError(
                f"submit_timeout must be >= 0, got {submit_timeout}"
            )
        import multiprocessing

        ctx = mp_context if mp_context is not None \
            else multiprocessing.get_context()
        self.store_path = os.fspath(store)
        self.request_timeout = request_timeout
        self._registry = SharedArenaRegistry()
        self._state_lock = make_lock("cluster-state",
                                     LOCK_RANK_CLUSTER_STATE)
        self._counter_lock = make_lock("cluster-counters",
                                       LOCK_RANK_CLUSTER_COUNTERS)
        self.queries_routed = 0
        self.queries_degraded = 0
        self.queries_shed = 0
        self._rr: Dict[int, int] = {}
        self._closed = False
        self._replicas: Dict[int, List[ReplicaProxy]] = {}
        try:
            with RankStore(self.store_path) as src:
                self.n_windows = src.n_windows
                self.n_vertices = src.n_vertices
                self.shard_map = ShardMap.build(src.n_windows, n_shards)
                self.t_start = (
                    np.array(src.t_start, copy=True)
                    if src.t_start is not None else None
                )
                self.t_end = (
                    np.array(src.t_end, copy=True)
                    if src.t_end is not None else None
                )
                self._store_info = dict(src.info())
                # one arena per shard: a file-backed store's rows are
                # published as a mapping of the file, others are copied
                # into shm once; every replica attaches zero-copy
                for spec in self.shard_map.shards:
                    prefix = f"s{spec.shard_id}/"
                    rows = np.ascontiguousarray(
                        src.matrix[spec.window_lo:spec.window_hi]
                    )
                    handle = self._registry.publish(
                        {prefix + "matrix": rows}
                    )
                    procs: List[ReplicaProxy] = []
                    for rid in range(replicas):
                        parent_conn, child_conn = ctx.Pipe(duplex=True)
                        process = ctx.Process(
                            target=shard_worker_main,
                            args=(spec.shard_id, rid, handle, prefix,
                                  spec, child_conn, engine_workers,
                                  max_batch),
                            name=f"rank-shard-{spec.shard_id}.{rid}",
                            daemon=True,
                        )
                        process.start()
                        child_conn.close()
                        procs.append(
                            ReplicaProxy(
                                spec, rid, process, parent_conn,
                                max_queue=max_queue,
                                submit_timeout=submit_timeout,
                            )
                        )
                    self._replicas[spec.shard_id] = procs
        except BaseException:
            self._teardown()
            raise
        self._health_stop = threading.Event()
        self._health_pings: Dict[str, Tuple[Future, float]] = {}
        self._ping_timeout = ping_timeout
        self._health_thread = threading.Thread(
            target=self._health_loop,
            args=(health_interval,),
            name="cluster-health",
            daemon=True,
        )
        self._health_thread.start()

    # ------------------------------------------------------------------
    # topology / health
    # ------------------------------------------------------------------
    def live_replicas(self, shard_id: int) -> List[ReplicaProxy]:
        return [r for r in self._replicas[shard_id] if r.alive]

    def shard_alive(self, shard_id: int) -> bool:
        return bool(self.live_replicas(shard_id))

    def degraded(self) -> bool:
        """Whether any shard's window range is currently unserveable."""
        return any(
            not self.shard_alive(s.shard_id)
            for s in self.shard_map.shards
        )

    def _health_loop(self, interval: float) -> None:
        while not self._health_stop.wait(interval):
            for procs in self._replicas.values():
                for replica in procs:
                    if replica._dead:
                        continue
                    if not replica.process.is_alive():
                        replica.mark_dead("process exited")
                        continue
                    self._check_ping(replica)

    def _check_ping(self, replica: ReplicaProxy) -> None:
        """Harvest the previous ping (stats + liveness) and send the next."""
        entry = self._health_pings.get(replica.name)
        if entry is not None:
            future, sent = entry
            if future.done():
                del self._health_pings[replica.name]
                exc = future.exception()
                if exc is None:
                    replica.last_stats = future.result()
            elif time.monotonic() - sent > self._ping_timeout:
                del self._health_pings[replica.name]
                replica.mark_dead(
                    f"ping unanswered for {self._ping_timeout:.1f}s"
                )
                return
            else:
                return  # previous ping still in flight
        try:
            self._health_pings[replica.name] = (
                replica.submit("ping", None, admission=False),
                time.monotonic(),
            )
        except ShardUnavailableError:
            logger.debug("health ping raced replica %s death", replica.name)

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL every replica of one shard (failure injection)."""
        for replica in self._replicas[shard_id]:
            replica.kill()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _choose_replica(self, shard_id: int) -> Optional[ReplicaProxy]:
        live = self.live_replicas(shard_id)
        if not live:
            return None
        with self._state_lock:
            turn = self._rr.get(shard_id, 0)
            self._rr[shard_id] = turn + 1
        return live[turn % len(live)]

    def _dead_range_note(self, shard_id: int) -> str:
        spec = self.shard_map.shards[shard_id]
        return (
            f"shard {shard_id} unavailable (windows "
            f"[{spec.window_lo}, {spec.window_hi}))"
        )

    def _plan(self, query: Dict, parts: List[_Part]):
        """Build one query's shard parts; returns a finisher callable.

        Raises the same exception types :meth:`QueryEngine._eval` turns
        into error results, so malformed queries produce byte-identical
        error shapes on cluster and single-process paths.
        """
        op = query.get("op")
        if op in ("top_k", "rank"):
            if op == "rank":
                query["vertex"]  # engine reads vertex first: same KeyError
            window = int(query["window"])
            spec = self.shard_map.shard_of(window)
            translated = dict(query)
            translated["window"] = spec.to_local(window)
            part = _Part(spec.shard_id, query=translated)
            parts.append(part)
            return lambda: self._finish_simple(part)
        if op == "windows_at":
            result = self.windows_at(query["t"])
            return lambda: {"ok": True, "result": result}
        if op == "trajectory":
            # mirror QueryEngine.trajectory's validation (same checks,
            # same order, same wording) so error results stay identical
            vertex = int(query["vertex"])
            if not (0 <= vertex < self.n_vertices):
                raise ValidationError(
                    f"vertex {vertex} out of range [0, {self.n_vertices})"
                )
            stop = query.get("stop")
            stop = self.n_windows if stop is None else int(stop)
            start = int(query.get("start", 0))
            if not (0 <= start < self.n_windows):
                raise ValidationError(
                    f"window index {start} out of range "
                    f"[0, {self.n_windows})"
                )
            if not (start < stop <= self.n_windows):
                raise ValidationError(
                    f"trajectory range [{start}, {stop}) invalid for "
                    f"{self.n_windows} windows"
                )
            segs = self.shard_map.shards_in_range(start, stop)
            my_parts: List[Tuple[_Part, int, int]] = []
            for spec, lo, hi in segs:
                translated = {
                    "op": "trajectory",
                    "vertex": query["vertex"],
                    "start": spec.to_local(lo),
                    "stop": spec.to_local(hi - 1) + 1,
                }
                part = _Part(spec.shard_id, query=translated)
                parts.append(part)
                my_parts.append((part, lo, hi))
            return lambda: self._finish_trajectory(my_parts)
        if op == "movers":
            k = int(query.get("k", 10))
            if k <= 0:
                raise ValidationError(f"k must be > 0, got {k}")
            w_from, w_to = int(query["from"]), int(query["to"])
            spec_a = self.shard_map.shard_of(w_from)
            spec_b = self.shard_map.shard_of(w_to)
            if spec_a.shard_id == spec_b.shard_id:
                translated = {
                    "op": "movers",
                    "from": spec_a.to_local(w_from),
                    "to": spec_a.to_local(w_to),
                    "k": k,
                }
                part = _Part(spec_a.shard_id, query=translated)
                parts.append(part)
                return lambda: self._finish_simple(part)
            part_a = _Part(spec_a.shard_id,
                           slice_window=spec_a.to_local(w_from))
            part_b = _Part(spec_b.shard_id,
                           slice_window=spec_b.to_local(w_to))
            parts.extend((part_a, part_b))
            return lambda: self._finish_movers(part_a, part_b, k)
        raise ValidationError(f"unknown query op: {op!r}")

    # -- finishers ------------------------------------------------------
    @staticmethod
    def _part_failure(part: _Part) -> Dict:
        out: Dict[str, object] = {"ok": False, "error": part.error}
        if part.degraded:
            out["degraded"] = True
        if part.shed:
            out["shed"] = True
        return out

    def _finish_simple(self, part: _Part) -> Dict:
        if part.error is not None:
            return self._part_failure(part)
        return part.result

    def _finish_trajectory(
        self, segments: Sequence[Tuple[_Part, int, int]]
    ) -> Dict:
        values: List[Optional[float]] = []
        missing: List[List[int]] = []
        degraded = False
        for part, lo, hi in segments:
            if part.error is not None:
                if not part.degraded:
                    return self._part_failure(part)
                degraded = True
                missing.append([lo, hi])
                values.extend([None] * (hi - lo))
                continue
            seg = part.result
            if not seg.get("ok", False):
                return seg
            values.extend(seg["result"])
        out: Dict[str, object] = {"ok": True, "result": values}
        if degraded:
            out["degraded"] = True
            out["missing_windows"] = missing
        return out

    def _finish_movers(self, part_a: _Part, part_b: _Part,
                       k: int) -> Dict:
        for part in (part_a, part_b):
            if part.error is not None:
                return self._part_failure(part)
        movers = compute_movers(part_a.result, part_b.result, k)
        return {"ok": True, "result": movers}

    # ------------------------------------------------------------------
    # the public query surface
    # ------------------------------------------------------------------
    def batch(self, queries: Sequence[Dict],
              timeout: Optional[float] = None) -> List[Dict]:
        """Evaluate queries across the shards; one result dict per query.

        Results match :meth:`QueryEngine.batch` shapes, with two
        additions under failure: ``"degraded": True`` when a dead
        shard's range is involved (partial data where the op allows) and
        ``"shed": True`` when backpressure dropped the query.
        """
        timeout = self.request_timeout if timeout is None else timeout
        finishers: List[Optional[object]] = [None] * len(queries)
        results: List[Optional[Dict]] = [None] * len(queries)
        all_parts: List[List[_Part]] = [[] for _ in queries]
        for i, query in enumerate(queries):
            try:
                finishers[i] = self._plan(query, all_parts[i])
            except (ValidationError, KeyError, TypeError, ValueError) as exc:
                results[i] = {"ok": False, "error": str(exc)}
        self._execute_parts(
            [p for parts in all_parts for p in parts], timeout
        )
        n_degraded = n_shed = 0
        for i, finisher in enumerate(finishers):
            if results[i] is None:
                results[i] = finisher()
            if results[i].get("degraded"):
                n_degraded += 1
            if results[i].get("shed"):
                n_shed += 1
        with self._counter_lock:
            self.queries_routed += len(queries)
            self.queries_degraded += n_degraded
            self.queries_shed += n_shed
        return results

    def _execute_parts(self, parts: List[_Part], timeout: float) -> None:
        """Scatter all shard parts, gather replies, annotate failures."""
        by_shard: Dict[int, List[_Part]] = {}
        for part in parts:
            by_shard.setdefault(part.shard_id, []).append(part)

        pending: List[Tuple[Future, List[_Part]]] = []
        for shard_id, shard_parts in by_shard.items():
            batch_parts = [p for p in shard_parts if p.query is not None]
            slice_parts = [p for p in shard_parts
                           if p.slice_window is not None]
            replica = self._choose_replica(shard_id)
            if replica is None:
                note = self._dead_range_note(shard_id)
                for p in shard_parts:
                    p.fail(note, degraded=True)
                continue
            if batch_parts:
                self._submit_group(
                    replica, "batch",
                    [p.query for p in batch_parts], batch_parts, pending,
                )
            for p in slice_parts:
                self._submit_group(
                    replica, "slice", p.slice_window, [p], pending
                )

        deadline = time.monotonic() + timeout
        for future, group in pending:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                payload = future.result(timeout=remaining)
            except ShardUnavailableError as exc:
                for p in group:
                    p.fail(str(exc), degraded=True)
                continue
            except FutureTimeoutError:
                for p in group:
                    p.fail(
                        f"shard {group[0].shard_id} timed out after "
                        f"{timeout:.1f}s",
                        degraded=True,
                    )
                continue
            except ValidationError as exc:
                for p in group:
                    p.fail(str(exc))
                continue
            if len(group) == 1 and group[0].slice_window is not None:
                group[0].result = payload
            else:
                for p, res in zip(group, payload):
                    p.result = res

    def _submit_group(
        self,
        replica: ReplicaProxy,
        kind: str,
        payload,
        group: List[_Part],
        pending: List[Tuple[Future, List[_Part]]],
    ) -> None:
        try:
            pending.append((replica.submit(kind, payload), group))
        except OverloadedError as exc:
            for p in group:
                p.fail(str(exc), shed=True)
        except ShardUnavailableError as exc:
            for p in group:
                p.fail(str(exc), degraded=True)

    # -- convenience single-op wrappers (tests, CLI) --------------------
    def query(self, query: Dict) -> Dict:
        """One query dict -> one engine-shaped result dict."""
        return self.batch([query])[0]

    def top_k(self, window: int, k: int = 10) -> Dict:
        return self.query({"op": "top_k", "window": window, "k": k})

    def rank(self, vertex: int, window: int) -> Dict:
        return self.query(
            {"op": "rank", "vertex": vertex, "window": window}
        )

    def trajectory(self, vertex: int, start: int = 0,
                   stop: Optional[int] = None) -> Dict:
        query: Dict[str, object] = {
            "op": "trajectory", "vertex": vertex, "start": start,
        }
        if stop is not None:
            query["stop"] = stop
        return self.query(query)

    def movers(self, w_from: int, w_to: int, k: int = 10) -> Dict:
        return self.query(
            {"op": "movers", "from": w_from, "to": w_to, "k": k}
        )

    def windows_at(self, timestamp: int) -> List[int]:
        if self.t_start is None or self.t_end is None:
            raise ValidationError(
                "store carries no window intervals; rewrite it passing a "
                "WindowSpec to enable timestamp lookup"
            )
        return [
            int(w)
            for w in intervals_containing(
                self.t_start, self.t_end, timestamp
            )
        ]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def info(self) -> Dict[str, object]:
        """Store summary + topology (the frontend's ``/store``)."""
        info = dict(self._store_info)
        info["shards"] = self.shard_map.n_shards
        info["arena bytes"] = self._registry.total_bytes
        return info

    def status(self) -> Dict[str, object]:
        """Topology and liveness (the frontend's ``/cluster``)."""
        shards = []
        for spec in self.shard_map.shards:
            replicas = [
                {
                    "replica": r.replica_id,
                    "alive": r.alive,
                    "in_flight": r.in_flight(),
                }
                for r in self._replicas[spec.shard_id]
            ]
            shards.append(
                {
                    "shard": spec.shard_id,
                    "window_lo": spec.window_lo,
                    "window_hi": spec.window_hi,
                    "alive": self.shard_alive(spec.shard_id),
                    "replicas": replicas,
                }
            )
        return {
            "store": self.store_path,
            "windows": self.n_windows,
            "vertices": self.n_vertices,
            "degraded": self.degraded(),
            "shards": shards,
        }

    def stats(self) -> Dict[str, object]:
        """Router counters + the last health-ping stats per replica."""
        with self._counter_lock:
            router = {
                "queries_routed": self.queries_routed,
                "queries_degraded": self.queries_degraded,
                "queries_shed": self.queries_shed,
            }
        replicas: Dict[str, object] = {}
        for procs in self._replicas.values():
            for r in procs:
                replicas[r.name] = {
                    "alive": r.alive,
                    "in_flight": r.in_flight(),
                    "worker": r.last_stats,
                }
        return {"router": router, "replicas": replicas}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _teardown(self) -> None:
        for procs in self._replicas.values():
            for replica in procs:
                try:
                    replica.stop()
                except (OSError, ValueError) as exc:
                    logger.warning("replica %s stop failed: %s",
                                   replica.name, exc)
        self._replicas.clear()
        self._registry.close(unlink=True)

    def shutdown(self) -> None:
        """Stop every replica, reclaim every arena segment (idempotent).

        Replica stop escalates sentinel -> terminate -> SIGKILL, and the
        arenas are unlinked regardless — a SIGKILLed worker cannot leak
        ``/dev/shm`` because workers only ever attach.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._health_stop.set()
        self._health_thread.join(timeout=5.0)
        self._teardown()

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
