"""The sharded serving federation (repro.service.cluster).

Covers the shard map, coordinator parity against one in-process
engine, admission control and load-shedding, the asyncio frontend, the
traffic generator, and the failure drill the tier exists for: a shard
killed mid-load must yield explicitly ``degraded`` (never wrong)
responses and a leak-free teardown.
"""

from __future__ import annotations

import asyncio
import glob
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import (
    OverloadedError,
    ShardUnavailableError,
    ValidationError,
)
from repro.events import WindowSpec
from repro.service import QueryEngine, RankStoreWriter
from repro.service.cluster import (
    ClusterFrontend,
    ReplicaProxy,
    ShardCluster,
    ShardMap,
    generate_queries,
    query_to_url,
    run_load,
)
from repro.service.cluster.frontend import _MAX_BODY
from repro.service.cluster.shard_map import ShardSpec

N_WINDOWS = 9
N_VERTICES = 40


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    rng = np.random.default_rng(11)
    path = tmp_path_factory.mktemp("cluster") / "c.rankstore"
    spec = WindowSpec(t0=0, delta=100, sw=50, n_windows=N_WINDOWS)
    with RankStoreWriter(
        path, n_windows=N_WINDOWS, n_vertices=N_VERTICES, spec=spec
    ) as w:
        for i in range(N_WINDOWS):
            row = rng.random(N_VERTICES)
            w.write_window(i, row / row.sum())
    return str(path)


@pytest.fixture(scope="module")
def engine(store_path):
    eng = QueryEngine(store_path)
    yield eng
    eng.close()


@pytest.fixture(scope="module")
def cluster(store_path):
    """A healthy 3-shard cluster shared by the read-only tests."""
    with ShardCluster(
        store_path, n_shards=3, replicas=2, max_queue=32
    ) as c:
        yield c


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


class TestShardMap:
    def test_build_partitions_evenly(self):
        m = ShardMap.build(10, 3)
        sizes = [s.n_windows for s in m.shards]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        assert m.shards[0].window_lo == 0
        assert m.shards[-1].window_hi == 10
        for a, b in zip(m.shards, m.shards[1:]):
            assert a.window_hi == b.window_lo

    def test_every_window_owned_once(self):
        m = ShardMap.build(17, 5)
        owners = [m.shard_of(w).shard_id for w in range(17)]
        assert sorted(set(owners)) == [0, 1, 2, 3, 4]
        assert owners == sorted(owners)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardMap.build(0, 2)
        with pytest.raises(ValidationError):
            ShardMap.build(5, 0)
        with pytest.raises(ValidationError, match="at least one window"):
            ShardMap.build(3, 4)
        m = ShardMap.build(6, 2)
        with pytest.raises(ValidationError, match="out of range"):
            m.shard_of(6)

    def test_to_local(self):
        spec = ShardSpec(1, 3, 7)
        assert spec.to_local(3) == 0
        assert spec.to_local(6) == 3
        with pytest.raises(ValidationError, match="outside shard"):
            spec.to_local(7)

    def test_shards_in_range(self):
        m = ShardMap.build(9, 3)
        segs = m.shards_in_range(2, 7)
        assert [(s.shard_id, lo, hi) for s, lo, hi in segs] == [
            (0, 2, 3), (1, 3, 6), (2, 6, 7),
        ]
        only = m.shards_in_range(4, 5)
        assert len(only) == 1 and only[0][0].shard_id == 1
        with pytest.raises(ValidationError, match="invalid"):
            m.shards_in_range(5, 5)

    def test_describe_is_jsonable(self):
        desc = ShardMap.build(9, 3).describe()
        assert json.loads(json.dumps(desc)) == desc


#: every op, including cross-shard trajectories and movers
SURFACE_QUERIES = (
    [{"op": "top_k", "window": w, "k": 5} for w in range(N_WINDOWS)]
    + [
        {"op": "rank", "vertex": v, "window": (3 * v) % N_WINDOWS}
        for v in range(10)
    ]
    + [
        {"op": "trajectory", "vertex": 2},
        {"op": "trajectory", "vertex": 3, "start": 1, "stop": 8},
        {"op": "trajectory", "vertex": 4, "start": 4, "stop": 5},
        {"op": "movers", "from": 0, "to": 8, "k": 6},
        {"op": "movers", "from": 3, "to": 5, "k": 6},
        {"op": "movers", "from": 4, "to": 4, "k": 6},
        {"op": "windows_at", "t": 120},
        {"op": "windows_at", "t": -5},
    ]
)

ERROR_QUERIES = [
    {"op": "top_k", "window": 99, "k": 5},
    {"op": "top_k", "window": 0, "k": 0},
    {"op": "rank", "vertex": 999, "window": 0},
    {"op": "movers", "from": 0, "to": 99},
    {"op": "movers", "from": 0, "to": 1, "k": -2},
    {"op": "trajectory", "vertex": 0, "start": 7, "stop": 3},
    {"op": "nope"},
    {"op": "rank"},
]


class TestClusterParity:
    """A 3-shard cluster must answer exactly like one QueryEngine."""

    def _normalize(self, results):
        return json.loads(json.dumps(results))

    def test_full_surface_parity(self, engine, cluster):
        assert self._normalize(
            cluster.batch(SURFACE_QUERIES)
        ) == self._normalize(engine.batch(SURFACE_QUERIES))

    def test_error_parity(self, engine, cluster):
        assert self._normalize(
            cluster.batch(ERROR_QUERIES)
        ) == self._normalize(engine.batch(ERROR_QUERIES))

    def test_one_shard_parity(self, store_path, engine):
        """The default ``repro serve`` tier: one shard, every window."""
        queries = SURFACE_QUERIES + ERROR_QUERIES
        with ShardCluster(store_path, n_shards=1) as one:
            assert one.shard_map.n_shards == 1
            assert self._normalize(one.batch(queries)) == self._normalize(
                engine.batch(queries)
            )

    def test_cross_shard_movers_match_engine(self, engine, cluster):
        for w_from, w_to in [(0, 8), (2, 3), (5, 6), (8, 0)]:
            expected = engine.movers(w_from, w_to, k=7)
            got = cluster.movers(w_from, w_to, k=7)
            assert got["ok"]
            assert self._normalize(got["result"]) == self._normalize(
                expected
            )

    def test_single_op_wrappers(self, engine, cluster):
        assert self._normalize(
            cluster.top_k(1, 3)["result"]
        ) == self._normalize(engine.top_k(1, 3))
        assert cluster.rank(5, 7)["result"] == engine.rank(5, 7)
        traj = cluster.trajectory(1, 2, 6)
        assert traj["result"] == pytest.approx(
            engine.trajectory(1, 2, 6).tolist()
        )
        assert cluster.windows_at(120) == engine.windows_at(120)

    def test_status_and_stats(self, cluster):
        status = cluster.status()
        assert status["degraded"] is False
        assert len(status["shards"]) == 3
        assert all(s["alive"] for s in status["shards"])
        assert all(len(s["replicas"]) == 2 for s in status["shards"])
        cluster.batch([{"op": "top_k", "window": 0, "k": 2}])
        stats = cluster.stats()
        assert stats["router"]["queries_routed"] >= 1
        assert len(stats["replicas"]) == 6

    def test_replicas_round_robin(self, cluster):
        for _ in range(4):
            assert cluster.top_k(0, 2)["ok"]
        flights = [
            cluster._replicas[0][r].replica_id for r in range(2)
        ]
        assert flights == [0, 1]  # both replicas exist and stayed alive
        assert all(r.alive for r in cluster._replicas[0])


class TestReplicaBackpressure:
    """Bounded per-replica admission, deterministically (stub worker)."""

    class _FakeProcess:
        pid = None

        def is_alive(self):
            return True

        def join(self, timeout=None):
            return None

        def close(self):
            return None

    def _proxy(self, max_queue=2):
        import multiprocessing

        parent, child = multiprocessing.Pipe(duplex=True)
        proxy = ReplicaProxy(
            ShardSpec(0, 0, 4), 0, self._FakeProcess(), parent,
            max_queue=max_queue, submit_timeout=0.0,
        )
        return proxy, child

    def test_sheds_past_bound(self, store_path):
        proxy, child = self._proxy(max_queue=2)
        try:
            futures = [proxy.submit("slice", w) for w in range(2)]
            with pytest.raises(OverloadedError, match="shed"):
                proxy.submit("slice", 2)
            # the stub "worker" answers; slots recycle
            for _ in range(2):
                req_id, kind, payload = child.recv()
                child.send((req_id, True, payload))
            assert sorted(f.result(timeout=5) for f in futures) == [0, 1]
            ok = proxy.submit("slice", 3)
            req_id, _, _ = child.recv()
            child.send((req_id, True, "again"))
            assert ok.result(timeout=5) == "again"
        finally:
            child.close()
            proxy.mark_dead("test over")

    def test_death_fails_pending(self):
        proxy, child = self._proxy(max_queue=4)
        pending = [proxy.submit("slice", w) for w in range(3)]
        child.close()  # worker "dies": EOF on the parent's receiver
        for f in pending:
            with pytest.raises(ShardUnavailableError):
                f.result(timeout=5)
        with pytest.raises(ShardUnavailableError):
            proxy.submit("slice", 9)
        assert proxy.in_flight() == 0

    def test_ping_bypasses_admission(self):
        proxy, child = self._proxy(max_queue=1)
        try:
            blocked = proxy.submit("slice", 0)  # occupies the only slot
            ping = proxy.submit("ping", None, admission=False)
            req_id, kind, _ = child.recv()
            assert kind == "slice"
            child.send((req_id, True, 0))
            req_id, kind, _ = child.recv()
            assert kind == "ping"
            child.send((req_id, True, {"alive": True}))
            assert blocked.result(timeout=5) == 0
            assert ping.result(timeout=5) == {"alive": True}
        finally:
            child.close()
            proxy.mark_dead("test over")


class TestFrontend:
    @pytest.fixture
    def frontend(self, cluster):
        with ClusterFrontend(cluster, port=0).start() as fe:
            yield fe

    def test_endpoints_mirror_query_server(self, frontend, engine):
        status, body = get_json(frontend.url + "/top_k?window=1&k=3")
        assert status == 200 and body["ok"]
        assert body["result"] == json.loads(
            json.dumps(engine.top_k(1, 3))
        )
        status, body = get_json(
            frontend.url + "/trajectory?vertex=2&start=1&stop=8"
        )
        assert status == 200 and len(body["result"]) == 7
        status, body = get_json(frontend.url + "/windows_at?t=120")
        assert status == 200 and body["ok"]

    def test_health_and_topology(self, frontend):
        assert get_json(frontend.url + "/health") == (
            200, {"status": "ok"}
        )
        status, hz = get_json(frontend.url + "/healthz")
        assert status == 200
        assert hz["degraded"] is False
        assert hz["shards_alive"] == 3
        status, topo = get_json(frontend.url + "/cluster")
        assert status == 200 and len(topo["shards"]) == 3
        status, info = get_json(frontend.url + "/store")
        assert info["windows"] == N_WINDOWS
        assert info["shards"] == 3

    def test_stats(self, frontend):
        get_json(frontend.url + "/top_k?window=0&k=2")
        status, stats = get_json(frontend.url + "/stats")
        assert status == 200
        assert stats["frontend"]["requests_served"] >= 1
        assert stats["router"]["queries_routed"] >= 1

    def test_batch_post(self, frontend):
        req = urllib.request.Request(
            frontend.url + "/batch",
            data=json.dumps(
                [
                    {"op": "top_k", "window": 0, "k": 2},
                    {"op": "rank", "vertex": 1, "window": 8},
                    {"op": "bogus"},
                ]
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            body = json.loads(resp.read())
        assert [r["ok"] for r in body["results"]] == [True, True, False]

    def test_bad_requests(self, frontend):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(frontend.url + "/no_such_thing")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(frontend.url + "/top_k?window=99&k=2")
        assert err.value.code == 400

    @pytest.mark.parametrize(
        "length,body",
        [("abc", b"[]"), ("-5", b"[]"), ("10", b"[]")],
        ids=["not-an-integer", "negative", "short-body"],
    )
    def test_bad_content_length_is_400(self, length, body):
        """A body whose framing cannot be read is answered with 400
        rather than raising, which would close the socket with no status
        line.  The request is fed to the parser directly, so no shard
        process is needed."""
        raw = (
            f"POST /batch HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        ).encode() + body

        async def answer():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            frontend = ClusterFrontend(cluster=None)
            return await frontend._handle_request(reader)

        status, payload = asyncio.run(answer())
        assert status == 400
        assert "Content-Length" in payload["error"] or \
            "body ended" in payload["error"]

    def test_oversized_content_length_is_413(self):
        """A declared body over the cap is refused before any of it is
        read: this request sends no body at all."""
        raw = (
            "POST /batch HTTP/1.1\r\n"
            f"Content-Length: {_MAX_BODY + 1}\r\n\r\n"
        ).encode()

        async def answer():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            frontend = ClusterFrontend(cluster=None)
            return await frontend._handle_request(reader)

        status, payload = asyncio.run(answer())
        assert status == 413
        assert str(_MAX_BODY) in payload["error"]

    def test_global_admission_cap_sheds(self, cluster):
        fe = ClusterFrontend(cluster, port=0, max_inflight=1).start()
        try:
            gate = threading.Event()
            original = cluster.batch

            def slow_batch(queries):
                gate.wait(timeout=10)
                return original(queries)

            cluster.batch = slow_batch
            statuses = []

            def fire():
                try:
                    statuses.append(
                        get_json(fe.url + "/top_k?window=0&k=2")[0]
                    )
                except urllib.error.HTTPError as err:
                    if err.code == 429:
                        assert json.loads(err.read())["shed"] is True
                    statuses.append(err.code)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for t in threads:
                t.start()
            # let the first request occupy the single in-flight slot
            deadline = threading.Event()
            deadline.wait(timeout=0.3)
            gate.set()
            for t in threads:
                t.join(timeout=10)
            assert statuses.count(429) >= 1
            assert statuses.count(200) >= 1
            assert fe.stats()["frontend"]["requests_shed"] >= 1
        finally:
            gate.set()
            cluster.batch = original
            fe.shutdown()


class TestTraffic:
    def test_deterministic_given_seed(self):
        a = generate_queries(100, N_WINDOWS, N_VERTICES, seed=3)
        b = generate_queries(100, N_WINDOWS, N_VERTICES, seed=3)
        c = generate_queries(100, N_WINDOWS, N_VERTICES, seed=4)
        assert a == b
        assert a != c

    def test_mix_and_bounds(self):
        queries = generate_queries(
            500, N_WINDOWS, N_VERTICES,
            mix={"top_k": 0.5, "rank": 0.5}, seed=0,
        )
        ops = {q["op"] for q in queries}
        assert ops == {"top_k", "rank"}
        for q in queries:
            assert 0 <= q["window"] < N_WINDOWS
            if q["op"] == "rank":
                assert 0 <= q["vertex"] < N_VERTICES

    def test_zipf_skews_popularity(self):
        queries = generate_queries(
            2000, N_WINDOWS, 1000, mix={"rank": 1.0}, zipf_s=1.4, seed=5
        )
        counts = {}
        for q in queries:
            counts[q["vertex"]] = counts.get(q["vertex"], 0) + 1
        top_share = max(counts.values()) / len(queries)
        assert top_share > 0.05  # one hot vertex absorbs real share
        assert len(counts) < 1000  # the tail is not uniform-covered

    def test_validation(self):
        with pytest.raises(ValidationError):
            generate_queries(0, 5, 5)
        with pytest.raises(ValidationError, match="unknown ops"):
            generate_queries(5, 5, 5, mix={"flush": 1.0})
        with pytest.raises(ValidationError):
            generate_queries(5, 5, 5, mix={"top_k": 0.0})

    def test_query_to_url(self):
        assert query_to_url(
            "http://h:1/", {"op": "top_k", "window": 3, "k": 2}
        ) == "http://h:1/top_k?window=3&k=2"
        assert query_to_url(
            "http://h:1", {"op": "movers", "from": 1, "to": 2, "k": 3}
        ) == "http://h:1/movers?from=1&to=2&k=3"
        with pytest.raises(ValidationError):
            query_to_url("http://h:1", {"op": "nope"})

    def test_run_load_against_frontend(self, cluster):
        with ClusterFrontend(cluster, port=0).start() as fe:
            queries = generate_queries(
                120, N_WINDOWS, N_VERTICES, seed=9
            )
            report = run_load(fe.url, queries, concurrency=4)
        assert report.total == 120
        assert report.ok == 120
        assert report.errors == 0
        payload = report.as_dict()
        assert payload["qps"] > 0
        for stats in payload["ops"].values():
            assert stats["p99_ms"] >= stats["p50_ms"]


class TestDegradation:
    """The failure drill: kill a shard mid-load, degrade explicitly,
    tear down leak-free."""

    def test_shard_kill_mid_load(self, store_path, engine):
        cluster = ShardCluster(
            store_path, n_shards=3, replicas=1, max_queue=64,
            health_interval=0.1,
        )
        frontend = ClusterFrontend(cluster, port=0).start()
        dead = cluster.shard_map.shards[1]
        stop = threading.Event()
        failures = []

        def load():
            queries = generate_queries(
                10_000, N_WINDOWS, N_VERTICES, seed=2
            )
            for q in queries:
                if stop.is_set():
                    return
                try:
                    status, body = get_json(
                        query_to_url(frontend.url, q)
                    )
                    if not body.get("ok"):
                        failures.append(body)
                except urllib.error.HTTPError as err:
                    payload = json.loads(err.read())
                    # under the drill only explicit degradation or
                    # shedding is acceptable, never a silent error
                    if not (
                        payload.get("degraded") or payload.get("shed")
                    ):
                        failures.append(payload)
                except urllib.error.URLError:
                    return  # frontend going down at teardown

        threads = [
            threading.Thread(target=load, daemon=True) for _ in range(3)
        ]
        try:
            for t in threads:
                t.start()
            cluster.kill_shard(1)
            # wait until the router has actually noticed the death
            noticed = False
            for _ in range(100):
                if cluster.degraded():
                    noticed = True
                    break
                threading.Event().wait(0.05)
            assert noticed

            # dead range: explicit degradation on the exact window span
            res = cluster.top_k(dead.window_lo, 3)
            assert res["ok"] is False and res["degraded"] is True
            assert f"shard {dead.shard_id}" in res["error"]

            # partial answer: trajectory across the hole still serves
            # the live windows and names the missing ones
            traj = cluster.trajectory(0)
            assert traj["ok"] is True and traj["degraded"] is True
            assert traj["missing_windows"] == [
                [dead.window_lo, dead.window_hi]
            ]
            expected = engine.trajectory(0).tolist()
            for w, value in enumerate(traj["result"]):
                if dead.window_lo <= w < dead.window_hi:
                    assert value is None
                else:
                    assert value == pytest.approx(expected[w])

            # live shards keep answering correctly
            live = cluster.top_k(0, 3)
            assert live["ok"] and "degraded" not in live
            assert json.loads(json.dumps(live["result"])) == json.loads(
                json.dumps(engine.top_k(0, 3))
            )

            # the frontend reports the degradation
            _, hz = get_json(frontend.url + "/healthz")
            assert hz["degraded"] is True and hz["shards_alive"] == 2
            with pytest.raises(urllib.error.HTTPError) as err:
                get_json(
                    frontend.url + f"/top_k?window={dead.window_lo}&k=2"
                )
            assert err.value.code == 503
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            frontend.shutdown()
            cluster.shutdown()
        assert not failures

    def test_leak_free_teardown(self, store_path):
        before = set(glob.glob("/dev/shm/repro_arena*"))
        cluster = ShardCluster(store_path, n_shards=2, replicas=2)
        procs = [
            r.process
            for replicas in cluster._replicas.values()
            for r in replicas
        ]
        assert len(procs) == 4
        # the store is file-backed, so shard publication is zero-copy
        # mapped handles: no shm segment ever exists to leak
        segments = list(cluster._registry.segments)
        assert len(segments) == 0
        assert cluster._registry.mapped_bytes > 0
        assert cluster.top_k(0, 2)["ok"]
        cluster.shutdown()
        cluster.shutdown()  # idempotent
        # no orphan worker processes
        for p in procs:
            with pytest.raises(ValueError):
                p.is_alive()  # closed handles: processes were joined
        # no /dev/shm leaks, even ones created before this test
        after = set(glob.glob("/dev/shm/repro_arena*"))
        assert after - before == set()
        for seg in segments:
            assert not glob.glob(f"/dev/shm/*{seg}*")

    def test_teardown_after_kill_still_leak_free(self, store_path):
        before = set(glob.glob("/dev/shm/repro_arena*"))
        cluster = ShardCluster(store_path, n_shards=2, replicas=1,
                               health_interval=0.1)
        cluster.kill_shard(0)
        for _ in range(100):
            if cluster.degraded():
                break
            threading.Event().wait(0.05)
        assert cluster.degraded()
        res = cluster.batch([{"op": "top_k", "window": 0, "k": 2}])
        assert res[0]["degraded"] is True
        cluster.shutdown()
        assert set(glob.glob("/dev/shm/repro_arena*")) - before == set()

    def test_replica_failover_keeps_serving(self, store_path):
        """One replica of a shard dies; the other keeps the shard alive
        (no degradation)."""
        cluster = ShardCluster(store_path, n_shards=2, replicas=2,
                               health_interval=0.1)
        try:
            cluster._replicas[0][0].kill()
            for _ in range(100):
                if not cluster._replicas[0][0].alive:
                    break
                threading.Event().wait(0.05)
            assert cluster.shard_alive(0)
            assert not cluster.degraded()
            for _ in range(6):
                assert cluster.top_k(0, 2)["ok"]
            status = cluster.status()
            replicas = status["shards"][0]["replicas"]
            assert [r["alive"] for r in replicas] == [False, True]
        finally:
            cluster.shutdown()
