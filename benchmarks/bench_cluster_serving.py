"""Sharded serving federation under zipfian load: the cluster's SLOs.

Four claims, asserted on a 48-window, 30k-vertex synthetic store served
by a 3-shard cluster behind the asyncio front door:

* the full query surface answered through the cluster is byte-identical
  to a single in-process :class:`QueryEngine` (scatter/gather and
  cross-shard movers change topology, not answers);
* under zipfian load, cached ``top_k`` p99 through the cluster stays
  within 10x the p50 of the one-shard tier ``repro serve`` runs by
  default (4 query workers) — sharding buys capacity
  without wrecking the fast path;
* overload sheds (HTTP 429) instead of queueing without bound — the
  admission-controlled front door keeps latency flat by refusing work;
* teardown is leak-free: every shared-memory arena segment the cluster
  published is unlinked on shutdown.

The guarded metric (``p99_over_single_p50``) is a same-machine ratio of
two back-to-back runs, so it is stable where absolute wall-clock is not.
Results are printed, persisted as text, and emitted as JSON
(``benchmarks/output/cluster_serving.json``) for trend tracking;
``check_regression.py cluster_serving`` diffs against the committed
``BENCH_cluster_serving.json``.

Run:  pytest benchmarks/bench_cluster_serving.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks._common import OUTPUT_DIR, emit
from repro.reporting import format_table
from repro.service import QueryEngine, RankStoreWriter
from repro.service.cluster import (
    ClusterFrontend,
    ShardCluster,
    generate_queries,
    run_load,
)

N_VERTICES = 30_000
N_WINDOWS = 48
N_SHARDS = 3
N_QUERIES = 600
N_WARMUP = 300
CONCURRENCY = 8
ZIPF_S = 1.1
#: query worker threads of the one-shard reference tier
ONE_SHARD_WORKERS = 4
#: acceptance bound — cluster cached top-k p99 vs one-shard p50
P99_BOUND = 10.0

SHM = Path("/dev/shm")


def _arena_segments():
    if not SHM.is_dir():
        return set()
    return {p.name for p in SHM.glob("repro_arena*")}


def _normalize(obj):
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "bench.rankstore"
    rng = np.random.default_rng(42)
    with RankStoreWriter(path, n_windows=N_WINDOWS,
                         n_vertices=N_VERTICES) as w:
        for i in range(N_WINDOWS):
            row = rng.random(N_VERTICES, dtype=np.float32)
            w.write_window(i, row / row.sum())
    return path


def _zipf_load(url: str, seed: int, n: int, concurrency: int = CONCURRENCY):
    queries = generate_queries(
        n, n_windows=N_WINDOWS, n_vertices=N_VERTICES,
        zipf_s=ZIPF_S, seed=seed,
    )
    return run_load(url, queries, concurrency=concurrency)


def _serve(cluster):
    """Warm the caches, then measure: the zipfian report through a
    frontend over ``cluster``."""
    with ClusterFrontend(cluster, port=0).start() as frontend:
        _zipf_load(frontend.url, seed=11, n=N_WARMUP)
        return _zipf_load(frontend.url, seed=12, n=N_QUERIES)


def test_cluster_serving(store_path):
    before = _arena_segments()

    # -- the default `repro serve` tier: one shard ----------------------
    with ShardCluster(store_path, n_shards=1,
                      engine_workers=ONE_SHARD_WORKERS) as one_shard:
        single_report = _serve(one_shard)
    assert single_report.errors == 0
    single_p50 = single_report.percentile("top_k", 50)

    # -- 3-shard cluster under the same zipfian mix ---------------------
    cluster = ShardCluster(store_path, n_shards=N_SHARDS, engine_workers=2)
    engine = QueryEngine(store_path)
    try:
        cluster_report = _serve(cluster)
        assert cluster_report.errors == 0
        assert cluster_report.degraded == 0
        cluster_p99 = cluster_report.percentile("top_k", 99)
        ratio = cluster_p99 / single_p50

        # -- parity: the federation changes topology, not answers -------
        sample = generate_queries(
            150, n_windows=N_WINDOWS, n_vertices=N_VERTICES,
            zipf_s=ZIPF_S, seed=5,
        )
        parity = _normalize(cluster.batch(sample)) == \
            _normalize(engine.batch(sample))

        # -- overload: a tiny front door sheds instead of queueing ------
        choke = ClusterFrontend(cluster, port=0, max_inflight=2).start()
        try:
            overload = _zipf_load(choke.url, seed=13, n=400, concurrency=24)
        finally:
            choke.shutdown()
        overload_sheds = overload.shed > 0 and overload.errors == 0
    finally:
        engine.close()
        cluster.shutdown()

    no_shm_leak = _arena_segments() == before

    payload = {
        "store": {"windows": N_WINDOWS, "vertices": N_VERTICES,
                  "shards": N_SHARDS},
        "single": single_report.as_dict(),
        "cluster": cluster_report.as_dict(),
        "overload": overload.as_dict(),
        "slo": {
            "single_topk_p50_ms": round(single_p50 * 1e3, 3),
            "cluster_topk_p99_ms": round(cluster_p99 * 1e3, 3),
            "p99_over_single_p50": round(ratio, 3),
            "bound": P99_BOUND,
        },
        "parity_all_ops": parity,
        "overload_sheds": overload_sheds,
        "no_shm_leak": no_shm_leak,
        "topk_p99_within_bound": ratio < P99_BOUND,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "cluster_serving.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    def row(label, report):
        return [
            label,
            f"{report.qps:,.0f}",
            f"{report.percentile('top_k', 50) * 1e3:.3f}",
            f"{report.percentile('top_k', 99) * 1e3:.3f}",
            f"{report.shed}",
        ]

    text = format_table(
        ["tier", "qps", "top-k p50 (ms)", "top-k p99 (ms)", "shed"],
        [
            row("one shard", single_report),
            row(f"{N_SHARDS}-shard cluster", cluster_report),
            row("choked frontend", overload),
        ],
        title=(
            f"zipfian serving on {N_WINDOWS} windows x "
            f"{N_VERTICES:,} vertices ({N_QUERIES} queries, "
            f"concurrency {CONCURRENCY})"
        ),
    )
    text += (
        f"\n\ncluster top-k p99 / one-shard p50: {ratio:.2f}x "
        f"(bound {P99_BOUND:.0f}x)"
        f"\nparity on all ops: {parity}; overload sheds: {overload_sheds}; "
        f"leak-free teardown: {no_shm_leak}"
    )
    emit("cluster_serving", text)

    # the acceptance claims
    assert parity
    assert overload_sheds
    assert no_shm_leak
    assert ratio < P99_BOUND
