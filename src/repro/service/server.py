"""JSON-over-HTTP serving of a rank store — stdlib only.

Two pieces:

* :class:`BatchingExecutor` — the micro-batching layer.  Every request
  (one query, or a ``POST /batch`` list) enqueues onto one shared queue;
  a bounded worker pool drains the queue in gulps, concatenates the
  drained queries, and evaluates them through ``QueryEngine.batch`` so
  concurrent queries against the same window share one slice decode.
  Under no load a request is evaluated alone (no added latency); under
  load, coalescing amortizes decode cost exactly when it matters.
* :class:`QueryServer` — a ``ThreadingHTTPServer`` translating GET/POST
  routes into engine queries, with ``/stats`` exposing cache and batching
  counters and a graceful ``shutdown()`` that finishes in-flight work.

Endpoints::

    GET  /health                       liveness (plain ok)
    GET  /healthz                      liveness + load (in-flight count)
    GET  /store                        store summary
    GET  /stats                        cache + batching counters
    GET  /top_k?window=W&k=K
    GET  /rank?vertex=V&window=W
    GET  /trajectory?vertex=V&start=S&stop=E
    GET  /movers?from=A&to=B&k=K
    GET  /windows_at?t=T
    POST /batch                        JSON list of query dicts

Under saturation the executor's admission queue is bounded
(``max_queue``): a submit that cannot enter the queue within
``submit_timeout`` raises :class:`~repro.errors.OverloadedError`, which
the HTTP layer reports as ``429`` — explicit load-shedding instead of
unbounded queueing latency.  The cluster frontend
(:mod:`repro.service.cluster`) relies on that signal for backpressure.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.errors import OverloadedError, ValidationError
from repro.sanitize import (
    LOCK_RANK_EXECUTOR_COUNTERS,
    LOCK_RANK_EXECUTOR_STATE,
    make_lock,
)
from repro.service.engine import QueryEngine
from repro.service.store import RankStore

__all__ = ["BatchingExecutor", "QueryServer"]

logger = logging.getLogger(__name__)

_STOP = object()

#: GET route → (query op, {url param → query key}) — every value is parsed
#: as an int (the API is all indices, ids and timestamps)
_GET_ROUTES: Dict[str, Tuple[str, Dict[str, str]]] = {
    "/top_k": ("top_k", {"window": "window", "k": "k"}),
    "/rank": ("rank", {"vertex": "vertex", "window": "window"}),
    "/trajectory": (
        "trajectory",
        {"vertex": "vertex", "start": "start", "stop": "stop"},
    ),
    "/movers": ("movers", {"from": "from", "to": "to", "k": "k"}),
    "/windows_at": ("windows_at", {"t": "t"}),
}

#: largest ``POST /batch`` body accepted (the cluster frontend applies
#: the same cap); a larger ``Content-Length`` is answered 413 unread
_MAX_BODY = 8 * 1024 * 1024


class _Job:
    """One submitted unit: a list of queries and the future for their
    results (a single GET is a one-query job)."""

    __slots__ = ("queries", "future")

    def __init__(self, queries: Sequence[Dict]) -> None:
        self.queries = list(queries)
        self.future: "Future[List[Dict]]" = Future()


class BatchingExecutor:
    """Coalesces concurrent query jobs into shared engine batches.

    ``max_queue`` bounds how many jobs may sit in the admission queue at
    once (``None`` = unbounded, the pre-federation behaviour).  A submit
    against a full queue waits at most ``submit_timeout`` seconds for a
    slot and then raises :class:`~repro.errors.OverloadedError` — the
    load-shedding signal the serving frontends turn into ``429``.
    """

    def __init__(
        self,
        engine: QueryEngine,
        workers: int = 4,
        max_batch: int = 64,
        max_queue: Optional[int] = None,
        submit_timeout: float = 0.0,
    ) -> None:
        if workers <= 0:
            raise ValidationError(f"workers must be > 0, got {workers}")
        if max_batch <= 0:
            raise ValidationError(f"max_batch must be > 0, got {max_batch}")
        if max_queue is not None and max_queue <= 0:
            raise ValidationError(f"max_queue must be > 0, got {max_queue}")
        if submit_timeout < 0:
            raise ValidationError(
                f"submit_timeout must be >= 0, got {submit_timeout}"
            )
        self.engine = engine
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.submit_timeout = submit_timeout
        self._queue: "queue.Queue" = queue.Queue()
        # admission slots live beside the queue (not as queue maxsize) so
        # the _STOP sentinels can never be blocked out by a full queue
        self._slots = (
            threading.BoundedSemaphore(max_queue)
            if max_queue is not None
            else None
        )
        self._counter_lock = make_lock(
            "executor-counters", LOCK_RANK_EXECUTOR_COUNTERS
        )
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_shed = 0
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
        """Enqueue one job; the future resolves to one result per query.

        Raises :class:`~repro.errors.OverloadedError` when the bounded
        admission queue stays full past ``submit_timeout``.
        """
        if self._slots is not None and not self._slots.acquire(
            timeout=self.submit_timeout
        ):
            with self._counter_lock:
                self.jobs_shed += 1
            raise OverloadedError(
                f"admission queue full ({self.max_queue} jobs); request "
                "shed after "
                f"{self.submit_timeout:.3f}s"
            )
        job = _Job(queries)
        try:
            with self._state_lock:
                if self._stopped:
                    raise ValidationError("executor is stopped")
                self._queue.put(job)
        except BaseException:
            self._release_slot()
            raise
        with self._counter_lock:
            self.jobs_submitted += 1
        return job.future

    def _release_slot(self) -> None:
        if self._slots is not None:
            try:
                self._slots.release()
            except ValueError:  # pragma: no cover - defensive double release
                logger.warning("admission slot over-released")

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            self._release_slot()
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
                self._release_slot()
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

    def in_flight(self) -> int:
        """Jobs admitted but not yet answered (queued + mid-batch)."""
        with self._counter_lock:
            return self.jobs_submitted - self.jobs_completed

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
                "jobs_shed": self.jobs_shed,
                "in_flight": in_flight,
                "batches_executed": self.batches_executed,
                "jobs_coalesced": self.jobs_coalesced,
                "mean_batch_queries": round(mean_batch, 3),
                "max_queue": self.max_queue or 0,
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


class _Handler(BaseHTTPRequestHandler):
    server: "_RankHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def _reply(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:
        if self.server.verbose:  # pragma: no cover - log plumbing
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path == "/health":
            self._reply(200, {"status": "ok"})
            return
        if url.path == "/healthz":
            # the cluster health checker's probe: liveness plus load, so
            # a hung-but-accepting server is distinguishable from a
            # healthy one
            self._reply(
                200,
                {
                    "status": "ok",
                    "in_flight": self.server.executor.in_flight(),
                    "workers": len(self.server.executor._workers),
                },
            )
            return
        if url.path == "/store":
            self._reply(200, self.server.engine.store.info())
            return
        if url.path == "/stats":
            self._reply(200, self.server.stats())
            return
        route = _GET_ROUTES.get(url.path)
        if route is None:
            self._reply(404, {"error": f"unknown endpoint {url.path}"})
            return
        op, params = route
        query: Dict[str, object] = {"op": op}
        try:
            raw = parse_qs(url.query)
            for url_key, query_key in params.items():
                if url_key in raw:
                    query[query_key] = int(raw[url_key][0])
        except ValueError as exc:
            self._reply(400, {"error": f"bad query parameter: {exc}"})
            return
        self._dispatch([query], single=True)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path != "/batch":
            self._reply(404, {"error": f"unknown endpoint {url.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-n) would read to EOF, holding this thread for as
            # long as a keep-alive client stays connected; with the body's
            # framing unknown the connection cannot carry another request
            self.close_connection = True
            self._reply(
                400, {"error": "Content-Length must be a non-negative integer"}
            )
            return
        if length > _MAX_BODY:
            # reading would allocate the whole declared length up front;
            # the unread body leaves the connection unusable
            self.close_connection = True
            self._reply(413, {"error": f"body larger than {_MAX_BODY} bytes"})
            return
        try:
            queries = json.loads(self.rfile.read(length).decode())
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"bad request body: {exc}"})
            return
        if not isinstance(queries, list):
            self._reply(400, {"error": "/batch expects a JSON list"})
            return
        self._dispatch(queries, single=False)

    # ------------------------------------------------------------------
    def _dispatch(self, queries: List[Dict], single: bool) -> None:
        try:
            future = self.server.executor.submit(queries)
            results = future.result(timeout=self.server.request_timeout)
        except OverloadedError as exc:
            self._reply(429, {"error": str(exc), "shed": True})
            return
        except Exception as exc:  # noqa: BLE001 - request boundary
            self._reply(500, {"error": str(exc)})
            return
        if single:
            (result,) = results
            status = 200 if result["ok"] else 400
            self._reply(status, result)
        else:
            self._reply(200, {"results": results})


class _RankHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    engine: QueryEngine
    executor: BatchingExecutor
    request_timeout: float
    verbose: bool

    def stats(self) -> Dict:
        payload: Dict[str, object] = dict(self.engine.stats())
        payload["batching"] = self.executor.stats()
        return payload


class QueryServer:
    """The serving façade: store → engine → batching pool → HTTP.

    ``port=0`` binds an ephemeral port (tests); ``address`` reports the
    bound endpoint.  ``serve_forever()`` blocks until ``shutdown()`` (or
    Ctrl-C in the CLI); ``start()`` runs the accept loop on a background
    thread instead.
    """

    def __init__(
        self,
        store: Union[str, RankStore, QueryEngine],
        host: str = "127.0.0.1",
        port: int = 8321,
        workers: int = 4,
        max_batch: int = 64,
        max_queue: Optional[int] = None,
        submit_timeout: float = 0.0,
        request_timeout: float = 30.0,
        verbose: bool = False,
    ) -> None:
        self.engine = (
            store if isinstance(store, QueryEngine) else QueryEngine(store)
        )
        self.executor = BatchingExecutor(
            self.engine,
            workers=workers,
            max_batch=max_batch,
            max_queue=max_queue,
            submit_timeout=submit_timeout,
        )
        self._httpd = _RankHTTPServer((host, port), _Handler)
        self._httpd.engine = self.engine
        self._httpd.executor = self.executor
        self._httpd.request_timeout = request_timeout
        self._httpd.verbose = verbose
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown`."""
        self._httpd.serve_forever()

    def start(self) -> "QueryServer":
        """Serve on a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="rank-serve-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting, finish in-flight jobs, release the store.

        The store is unmapped only once every batching worker has
        verifiably exited — unmapping under a live worker would turn its
        next matrix read into a segfault.  If a worker overruns the stop
        timeout the engine is left open (leaked, but safe) and a warning
        is logged.
        """
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.executor.stop(timeout=5.0):
            self.engine.close()
        else:
            logger.warning(
                "batching workers did not exit within the stop timeout; "
                "leaving the rank store mapped to avoid a use-after-unmap"
            )

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
