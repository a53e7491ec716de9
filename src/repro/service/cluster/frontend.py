"""The asyncio front door of the serving tier — stdlib only.

:class:`ClusterFrontend` is the HTTP server ``repro serve`` runs: the
:class:`~repro.service.engine.QueryEngine` query surface as JSON over
HTTP, served by an ``asyncio`` acceptor and answered by a
:class:`~repro.service.cluster.coordinator.ShardCluster`.  Concurrency
is two-level:

* the event loop multiplexes thousands of connections on one thread and
  applies **global admission control** — at most ``max_inflight``
  requests may be inside the router at once, everything beyond that is
  answered ``429`` immediately (protecting the gather thread pool the
  way the per-shard bounded queues protect the workers);
* each admitted request runs the blocking scatter/gather
  (``cluster.batch``) on the loop's default thread-pool executor, so the
  acceptor never blocks on a shard round-trip.

Endpoints::

    GET  /health                      liveness (plain ok)
    GET  /healthz                     liveness, load and shard liveness
    GET  /store                       store summary
    GET  /stats                       router, cache and batching counters
    GET  /cluster                     topology + per-replica status
    GET  /top_k?window=W&k=K
    GET  /rank?vertex=V&window=W
    GET  /trajectory?vertex=V&start=S&stop=E
    GET  /movers?from=A&to=B&k=K
    GET  /windows_at?t=T
    POST /batch                       JSON list of query dicts

Failure semantics on single-query endpoints: ``429`` when the query was
shed (global cap or a shard's bounded queue), ``503`` when a dead shard
made the answer impossible, ``200`` with ``"degraded": true`` when a
partial answer exists (e.g. a trajectory with a dead shard's windows
``null``-ed out and listed in ``missing_windows``).  ``POST /batch``
always returns ``200`` with per-query result dicts carrying the same
flags.

The HTTP/1.1 handling is deliberately minimal (request line, headers,
``Content-Length`` bodies, one request per connection) — enough for the
CLI, the traffic generator, and ``curl``, with zero dependencies.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from typing import Dict, Optional, Tuple

from repro.errors import ValidationError
from repro.service.cluster.coordinator import ShardCluster

__all__ = ["ClusterFrontend"]

logger = logging.getLogger(__name__)

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

#: largest ``POST /batch`` body accepted; a larger ``Content-Length`` is
#: answered 413 without reading the body
_MAX_BODY = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ClusterFrontend:
    """Async HTTP frontend over one :class:`ShardCluster`.

    All mutable state (the in-flight counter, shed counter) is touched
    only from the event-loop thread, so no locks are needed here; the
    cluster's own locks cover the cross-thread parts.
    """

    def __init__(
        self,
        cluster: ShardCluster,
        host: str = "127.0.0.1",
        port: int = 8321,
        max_inflight: int = 256,
        request_timeout: float = 30.0,
        own_cluster: bool = False,
    ) -> None:
        if max_inflight <= 0:
            raise ValidationError(
                f"max_inflight must be > 0, got {max_inflight}"
            )
        self.cluster = cluster
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.own_cluster = own_cluster
        self.requests_served = 0
        self.requests_shed = 0
        self._inflight = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — valid after :meth:`start`."""
        if self._server is None:
            raise ValidationError("frontend is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ClusterFrontend":
        """Run the event loop + acceptor on a background thread."""
        self._thread = threading.Thread(
            target=self._run_loop, name="cluster-frontend", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise ValidationError(
                f"frontend failed to bind {self.host}:{self.port}: "
                f"{self._startup_error}"
            )
        if self._server is None:
            raise ValidationError("frontend failed to start (timeout)")
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(
                        self._handle_connection, self.host, self.port
                    )
                )
            except OSError as exc:
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            # drain callbacks scheduled by shutdown, then free the loop
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (the CLI foreground path)."""
        if self._thread is None:
            self.start()
        self._thread.join()

    def shutdown(self) -> None:
        """Stop accepting, wind down the loop, optionally the cluster."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and self._server is not None:
            def _stop() -> None:
                self._server.close()
                loop.stop()

            loop.call_soon_threadsafe(_stop)
        elif loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self.own_cluster:
            self.cluster.shutdown()

    def __enter__(self) -> "ClusterFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            status, payload = await self._handle_request(reader)
            body = json.dumps(payload).encode()
            text = _STATUS_TEXT.get(status, "Error")
            head = (
                f"HTTP/1.1 {status} {text}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError) as exc:
            logger.debug("client went away mid-response: %s", exc)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError) as exc:
                logger.debug("close raced client reset: %s", exc)

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict]:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=self.request_timeout
            )
        except asyncio.TimeoutError:
            return 400, {"error": "timed out reading request"}
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            return 400, {"error": "Content-Length is not an integer"}
        if length < 0:
            return 400, {"error": "Content-Length is negative"}
        if length > _MAX_BODY:
            return 413, {"error": f"body larger than {_MAX_BODY} bytes"}
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                return 400, {
                    "error": f"body ended after {len(exc.partial)} of "
                    f"{length} bytes"
                }
        return await self._route(method, target, body)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict]:
        path, _, raw_query = target.partition("?")
        if method == "GET":
            if path == "/health":
                return 200, {"status": "ok"}
            if path == "/healthz":
                return 200, await self._snapshot(self._healthz)
            if path == "/store":
                return 200, await self._snapshot(self.cluster.info)
            if path == "/cluster":
                return 200, await self._snapshot(self.cluster.status)
            if path == "/stats":
                return 200, await self._snapshot(self.stats)
            route = _GET_ROUTES.get(path)
            if route is None:
                return 404, {"error": f"unknown endpoint {path}"}
            op, params = route
            query: Dict[str, object] = {"op": op}
            try:
                for pair in raw_query.split("&"):
                    if not pair:
                        continue
                    key, _, value = pair.partition("=")
                    if key in params:
                        query[params[key]] = int(value)
            except ValueError as exc:
                return 400, {"error": f"bad query parameter: {exc}"}
            return await self._dispatch([query], single=True)
        if method == "POST":
            if path != "/batch":
                return 404, {"error": f"unknown endpoint {path}"}
            try:
                queries = json.loads(body.decode())
            except (ValueError, json.JSONDecodeError) as exc:
                return 400, {"error": f"bad request body: {exc}"}
            if not isinstance(queries, list):
                return 400, {"error": "/batch expects a JSON list"}
            return await self._dispatch(queries, single=False)
        return 404, {"error": f"unsupported method {method}"}

    async def _dispatch(
        self, queries, single: bool
    ) -> Tuple[int, Dict]:
        # global admission control: reject instead of queueing — the
        # per-shard bounded queues bound worker latency, this cap bounds
        # the frontend's own thread pool and memory
        if self._inflight >= self.max_inflight:
            self.requests_shed += 1
            return 429, {
                "error": (
                    f"frontend at capacity ({self.max_inflight} requests "
                    "in flight); request shed"
                ),
                "shed": True,
            }
        self._inflight += 1
        try:
            loop = asyncio.get_running_loop()
            results = await loop.run_in_executor(
                None, self.cluster.batch, list(queries)
            )
        except Exception as exc:  # noqa: BLE001 - request boundary
            return 500, {"error": str(exc)}
        finally:
            self._inflight -= 1
            self.requests_served += 1
        if not single:
            return 200, {"results": results}
        (result,) = results
        if result.get("ok"):
            return 200, result
        if result.get("shed"):
            return 429, result
        if result.get("degraded"):
            return 503, result
        return 400, result

    async def _snapshot(self, fn):
        """Run a synchronous cluster snapshot off the event loop.

        ``degraded()``/``status()``/``stats()``/``info()`` all take
        ranked cluster locks (replica in-flight counts, counter
        totals); waiting on one of those locks on the loop thread would
        stall every concurrent request — including the health probe
        meant to notice the stall.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, fn)

    def _healthz(self) -> Dict[str, object]:
        degraded = self.cluster.degraded()
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "in_flight": self._inflight,
            "shards_alive": sum(
                1
                for s in self.cluster.shard_map.shards
                if self.cluster.shard_alive(s.shard_id)
            ),
            "shards": self.cluster.shard_map.n_shards,
        }

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        payload = dict(self.cluster.stats())
        payload["frontend"] = {
            "requests_served": self.requests_served,
            "requests_shed": self.requests_shed,
            "in_flight": self._inflight,
            "max_inflight": self.max_inflight,
        }
        return payload
