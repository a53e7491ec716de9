"""End-to-end tests for the JSON/HTTP query server ``repro serve`` runs
by default: a one-shard :class:`~repro.service.cluster.ShardCluster`
behind the :class:`~repro.service.cluster.ClusterFrontend`, plus the
shard worker's micro-batching :class:`BatchingExecutor`."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.service import QueryEngine, RankStoreWriter
from repro.service.cluster import ClusterFrontend, ShardCluster
from repro.service.cluster.frontend import _MAX_BODY
from repro.service.cluster.worker import BatchingExecutor


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    rng = np.random.default_rng(7)
    path = tmp_path_factory.mktemp("srv") / "srv.rankstore"
    with RankStoreWriter(path, n_windows=6, n_vertices=50) as w:
        for i in range(6):
            row = rng.random(50)
            w.write_window(i, row / row.sum())
    return path


def start_server(store_path, **cluster_kwargs):
    """The default ``repro serve`` tier: one shard behind the frontend
    (frequent health pings keep the worker counters in /stats fresh)."""
    cluster_kwargs.setdefault("engine_workers", 2)
    cluster = ShardCluster(
        store_path, n_shards=1, health_interval=0.05, **cluster_kwargs
    )
    try:
        return ClusterFrontend(cluster, port=0, own_cluster=True).start()
    except BaseException:
        cluster.shutdown()
        raise


@pytest.fixture(scope="module")
def server(store_path):
    srv = start_server(store_path)
    yield srv
    srv.shutdown()


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def post_json(url: str, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def worker_stats(server, ready):
    """The shard worker's counters from /stats once ``ready(stats)``
    holds; they arrive with the coordinator's next health ping."""
    deadline = time.monotonic() + 10
    while True:
        _, stats = get_json(server.url + "/stats")
        (replica,) = stats["replicas"].values()
        worker = replica["worker"]
        if (worker and ready(worker)) or time.monotonic() > deadline:
            return stats, worker
        time.sleep(0.02)


class TestEndpoints:
    def test_health(self, server):
        assert get_json(server.url + "/health") == (200, {"status": "ok"})

    def test_store_info(self, server):
        status, info = get_json(server.url + "/store")
        assert status == 200
        assert info["windows"] == 6
        assert info["vertices"] == 50
        assert info["shards"] == 1

    def test_top_k(self, server):
        status, body = get_json(server.url + "/top_k?window=0&k=3")
        assert status == 200 and body["ok"]
        scores = [s for _, s in body["result"]]
        assert len(body["result"]) == 3
        assert scores == sorted(scores, reverse=True)

    def test_rank_matches_top_k(self, server):
        _, top = get_json(server.url + "/top_k?window=2&k=1")
        vertex, score = top["result"][0]
        _, body = get_json(
            server.url + f"/rank?vertex={vertex}&window=2"
        )
        assert body["result"] == pytest.approx(score)

    def test_trajectory(self, server):
        status, body = get_json(
            server.url + "/trajectory?vertex=3&start=1&stop=5"
        )
        assert status == 200
        assert len(body["result"]) == 4

    def test_movers(self, server):
        status, body = get_json(server.url + "/movers?from=0&to=5&k=4")
        assert status == 200
        assert len(body["result"]) == 4

    def test_bad_window_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(server.url + "/top_k?window=42")
        assert err.value.code == 400
        assert "out of range" in json.loads(err.value.read())["error"]

    def test_bad_param_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(server.url + "/top_k?window=abc")
        assert err.value.code == 400

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(server.url + "/flush_everything")
        assert err.value.code == 404

    def test_batch_post(self, server):
        status, body = post_json(
            server.url + "/batch",
            [
                {"op": "top_k", "window": 0, "k": 2},
                {"op": "rank", "vertex": 0, "window": 0},
                {"op": "windows_at", "t": 0},
            ],
        )
        assert status == 200
        ok = [r["ok"] for r in body["results"]]
        # the store has no window intervals, so windows_at fails cleanly
        assert ok == [True, True, False]

    def test_batch_post_rejects_non_list(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(server.url + "/batch", {"op": "top_k"})
        assert err.value.code == 400

    @pytest.mark.parametrize("length", ["-1", "-5", "abc"])
    def test_bad_content_length_is_400(self, server, length):
        """A length that cannot frame a body is answered 400, not read
        (reading to EOF would hold the request until this client gives
        up after 5 s)."""
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.putrequest("POST", "/batch")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
        finally:
            conn.close()

    def test_oversized_body_is_413_unread(self, server):
        """A length over the cap is refused before any body byte is read,
        and the connection is closed.  This client sends headers only, so
        a server that read the body would block past the 5 s timeout."""
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(
                b"POST /batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % (_MAX_BODY + 1)
            )
            reply = b""
            while chunk := sock.recv(65536):  # until the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"413"
        assert str(_MAX_BODY) in json.loads(body)["error"]

    def test_stats_counts_batches(self, server):
        for _ in range(3):
            get_json(server.url + "/top_k?window=1&k=2")
        stats, worker = worker_stats(
            server,
            lambda w: w["batching"]["jobs_submitted"] >= 3
            and w["topk_cache"]["hits"] >= 2,
        )
        assert stats["router"]["queries_routed"] >= 3
        assert worker["batching"]["jobs_submitted"] >= 3
        assert worker["batching"]["batches_executed"] >= 1
        assert worker["topk_cache"]["hits"] >= 2


class TestConcurrency:
    def test_concurrent_load_and_coalescing(self, server):
        errors = []

        def hammer():
            try:
                for _ in range(15):
                    status, body = get_json(
                        server.url + "/top_k?window=3&k=5"
                    )
                    assert status == 200 and body["ok"]
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        _, worker = worker_stats(
            server, lambda w: w["batching"]["jobs_completed"] >= 90
        )
        assert worker["batching"]["jobs_completed"] >= 90

    def test_shutdown_is_idempotent(self, store_path):
        srv = start_server(store_path)
        url = srv.url
        assert get_json(url + "/health")[0] == 200
        srv.shutdown()
        srv.shutdown()
        with pytest.raises(urllib.error.URLError):
            get_json(url + "/health")


class TestBatchingExecutor:
    def test_coalesces_queued_jobs(self, store_path):
        engine = QueryEngine(store_path)
        executor = BatchingExecutor(engine, workers=1, max_batch=16)
        # stall the single worker so subsequent jobs queue behind it
        gate = threading.Event()
        blocker = executor.submit(
            [{"op": "rank", "vertex": 0, "window": 0}]
        )
        original_batch = engine.batch

        def slow_batch(queries):
            gate.wait(timeout=5)
            return original_batch(queries)

        engine.batch = slow_batch
        futures = [
            executor.submit([{"op": "rank", "vertex": v, "window": 1}])
            for v in range(5)
        ]
        gate.set()
        results = [f.result(timeout=5) for f in futures]
        blocker.result(timeout=5)
        assert all(r[0]["ok"] for r in results)
        stats = executor.stats()
        assert stats["jobs_submitted"] == 6
        # the 5 stalled jobs ran in fewer batches than jobs
        assert stats["batches_executed"] < stats["jobs_submitted"]
        executor.stop()
        engine.close()

    def test_submit_after_stop_rejected(self, store_path):
        engine = QueryEngine(store_path)
        executor = BatchingExecutor(engine, workers=1)
        executor.stop()
        with pytest.raises(ValidationError, match="stopped"):
            executor.submit([{"op": "rank", "vertex": 0, "window": 0}])
        engine.close()

    def test_validates_params(self, store_path):
        engine = QueryEngine(store_path)
        with pytest.raises(ValidationError):
            BatchingExecutor(engine, workers=0)
        with pytest.raises(ValidationError):
            BatchingExecutor(engine, max_batch=0)
        engine.close()

    def test_stop_reports_worker_exit(self, store_path):
        engine = QueryEngine(store_path)
        executor = BatchingExecutor(engine, workers=2)
        assert executor.stop() is True
        assert executor.stop() is True  # idempotent
        engine.close()

    def test_stop_timeout_fails_queued_jobs(self, store_path):
        """A worker stuck past the stop timeout: stop() reports failure
        (so the caller knows not to unmap the store) and queued jobs get
        an immediate error instead of hanging until request timeout."""
        engine = QueryEngine(store_path)
        executor = BatchingExecutor(engine, workers=1, max_batch=1)
        entered, gate = threading.Event(), threading.Event()
        original_batch = engine.batch

        def slow_batch(queries):
            entered.set()
            gate.wait(timeout=10)
            return original_batch(queries)

        engine.batch = slow_batch
        blocker = executor.submit([{"op": "rank", "vertex": 0, "window": 0}])
        assert entered.wait(timeout=5)
        queued = executor.submit([{"op": "rank", "vertex": 1, "window": 0}])
        assert executor.stop(timeout=0.2) is False  # worker still stalled
        with pytest.raises(ValidationError, match="stopped"):
            queued.result(timeout=1)
        with pytest.raises(ValidationError, match="stopped"):
            executor.submit([{"op": "rank", "vertex": 2, "window": 0}])
        gate.set()
        assert blocker.result(timeout=5)[0]["ok"]
        for t in executor._workers:
            t.join(timeout=5)
        assert executor.stop() is True
        engine.close()


class TestAdmissionControl:
    """The replica proxy's bounded admission queue: real load-shedding,
    not latency."""

    def test_http_429_when_saturated(self, store_path):
        """``--max-queue 1``: while the shard holds one query, the rest
        are shed with 429 instead of queueing behind it."""
        srv = start_server(store_path, max_queue=1, engine_workers=1)
        (replica,) = srv.cluster._replicas[0]
        statuses = []

        def fire():
            try:
                statuses.append(
                    get_json(srv.url + "/top_k?window=0&k=2")[0]
                )
            except urllib.error.HTTPError as err:
                statuses.append(err.code)
                if err.code == 429:
                    assert json.loads(err.read())["shed"] is True

        threads = [threading.Thread(target=fire) for _ in range(8)]
        os.kill(replica.process.pid, signal.SIGSTOP)  # stall the shard
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while len(statuses) < 7 and time.monotonic() < deadline:
                time.sleep(0.01)  # all but the admitted one are shed
        finally:
            os.kill(replica.process.pid, signal.SIGCONT)
        try:
            for t in threads:
                t.join(timeout=10)
            assert statuses.count(429) == 7
            assert statuses.count(200) == 1
            assert srv.cluster.stats()["router"]["queries_shed"] == 7
        finally:
            srv.shutdown()


class TestHealthz:
    def test_healthz_reports_load(self, server):
        status, body = get_json(server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["in_flight"] == 0
        assert body["shards"] == body["shards_alive"] == 1

    def test_stats_expose_admission_fields(self, server):
        get_json(server.url + "/top_k?window=0&k=2")
        stats, worker = worker_stats(
            server, lambda w: w["batching"]["jobs_completed"] >= 1
        )
        assert stats["router"]["queries_shed"] == 0
        assert stats["frontend"]["max_inflight"] == 256
        batching = worker["batching"]
        for key in ("in_flight", "mean_batch_queries", "jobs_completed"):
            assert key in batching
        assert batching["in_flight"] == 0
        assert batching["jobs_completed"] >= 1
