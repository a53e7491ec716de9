"""Synthetic serving traffic: zipfian popularity, SLO-grade measurement.

Real rank-serving load is heavily skewed — a few vertices (the current
"leaders") and a few windows (the recent ones) absorb most queries.  The
generator models that with bounded zipfian draws: vertex ``v`` is chosen
with probability proportional to ``1/(v+1)**s`` under a seeded
permutation (so popularity is not correlated with vertex id), and hot
windows follow the same law.  The skew is what exercises the serving
tier's caches: a zipfian top-k stream hits the per-shard top-k cache on
the hot windows while the tail forces slice decodes.

:func:`run_load` is the measurement half: a thread pool drives a
:class:`~repro.service.cluster.frontend.ClusterFrontend` (what
``repro serve`` runs) at a given concurrency and reports
per-op p50/p99 latency, throughput, and the shed/degraded/error counts
that the SLO gate in ``benchmarks/check_regression.py`` asserts on.

Everything is seeded and deterministic given (seed, store dimensions,
mix); the load *timings* of course are not, which is why the committed
benchmark gates only on machine-independent ratios and flags.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "DEFAULT_MIX",
    "LoadReport",
    "generate_queries",
    "query_to_url",
    "run_load",
    "send_query",
]

#: default op mix: leaderboard-dominated with a tail of point lookups,
#: range scans and churn queries
DEFAULT_MIX: Dict[str, float] = {
    "top_k": 0.6,
    "rank": 0.2,
    "trajectory": 0.1,
    "movers": 0.1,
}


def _zipf_chooser(
    rng: np.random.Generator, n: int, s: float
) -> Tuple[np.ndarray, np.ndarray]:
    """A bounded-zipf sampler's ingredients: probabilities over a seeded
    permutation of ``[0, n)``."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return weights / weights.sum(), rng.permutation(n)


def generate_queries(
    n_queries: int,
    n_windows: int,
    n_vertices: int,
    mix: Optional[Dict[str, float]] = None,
    zipf_s: float = 1.1,
    k: int = 10,
    max_trajectory_span: int = 32,
    seed: int = 0,
) -> List[Dict]:
    """``n_queries`` query dicts with zipfian vertex/window popularity.

    The result feeds either ``QueryEngine.batch`` / ``POST /batch``
    directly, or :func:`query_to_url` for per-request GET load.
    """
    if n_queries <= 0:
        raise ValidationError(f"n_queries must be > 0, got {n_queries}")
    if n_windows <= 0 or n_vertices <= 0:
        raise ValidationError(
            "generate_queries needs n_windows > 0 and n_vertices > 0"
        )
    mix = dict(DEFAULT_MIX if mix is None else mix)
    total = sum(mix.values())
    if total <= 0:
        raise ValidationError("traffic mix weights must sum to > 0")
    unknown = set(mix) - set(DEFAULT_MIX)
    if unknown:
        raise ValidationError(f"unknown ops in traffic mix: {unknown}")
    rng = np.random.default_rng(seed)
    ops = list(mix.keys())
    op_p = np.array([mix[o] for o in ops], dtype=np.float64) / total
    v_p, v_perm = _zipf_chooser(rng, n_vertices, zipf_s)
    w_p, w_perm = _zipf_chooser(rng, n_windows, zipf_s)

    chosen_ops = rng.choice(len(ops), size=n_queries, p=op_p)
    vertices = v_perm[rng.choice(n_vertices, size=n_queries, p=v_p)]
    windows = w_perm[rng.choice(n_windows, size=n_queries, p=w_p)]
    extra = w_perm[rng.choice(n_windows, size=n_queries, p=w_p)]
    spans = rng.integers(1, max(2, max_trajectory_span + 1),
                         size=n_queries)

    queries: List[Dict] = []
    for i in range(n_queries):
        op = ops[int(chosen_ops[i])]
        w = int(windows[i])
        if op == "top_k":
            queries.append({"op": "top_k", "window": w, "k": k})
        elif op == "rank":
            queries.append(
                {"op": "rank", "vertex": int(vertices[i]), "window": w}
            )
        elif op == "trajectory":
            start = w
            stop = min(n_windows, start + int(spans[i]))
            queries.append(
                {
                    "op": "trajectory",
                    "vertex": int(vertices[i]),
                    "start": start,
                    "stop": stop,
                }
            )
        else:  # movers
            queries.append(
                {"op": "movers", "from": w, "to": int(extra[i]), "k": k}
            )
    return queries


def query_to_url(base_url: str, query: Dict) -> str:
    """The GET endpoint equivalent of one query dict."""
    op = query["op"]
    base = base_url.rstrip("/")
    if op == "top_k":
        return f"{base}/top_k?window={query['window']}&k={query['k']}"
    if op == "rank":
        return (
            f"{base}/rank?vertex={query['vertex']}"
            f"&window={query['window']}"
        )
    if op == "trajectory":
        return (
            f"{base}/trajectory?vertex={query['vertex']}"
            f"&start={query['start']}&stop={query['stop']}"
        )
    if op == "movers":
        return (
            f"{base}/movers?from={query['from']}&to={query['to']}"
            f"&k={query['k']}"
        )
    if op == "windows_at":
        return f"{base}/windows_at?t={query['t']}"
    raise ValidationError(f"unknown query op: {op!r}")


def send_query(
    base_url: str, query: Dict, timeout: float = 10.0
) -> Tuple[int, Dict]:
    """Send one query as a GET; returns (status, decoded payload)."""
    url = query_to_url(base_url, query)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode())
        except (ValueError, json.JSONDecodeError):
            payload = {"error": str(exc)}
        return exc.code, payload


@dataclass
class LoadReport:
    """What a load run measured — the SLO material."""

    total: int = 0
    ok: int = 0
    shed: int = 0
    degraded: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    concurrency: int = 0
    #: op -> sorted latency list (seconds)
    latencies: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.total / self.wall_seconds if self.wall_seconds else 0.0

    def percentile(self, op: str, q: float) -> Optional[float]:
        lat = self.latencies.get(op)
        if not lat:
            return None
        return float(np.percentile(np.asarray(lat), q))

    def as_dict(self) -> Dict[str, object]:
        ops = {}
        for op, lat in sorted(self.latencies.items()):
            arr = np.asarray(lat)
            ops[op] = {
                "count": int(arr.size),
                "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 3),
                "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 3),
                "mean_ms": round(float(arr.mean()) * 1e3, 3),
            }
        return {
            "total": self.total,
            "ok": self.ok,
            "shed": self.shed,
            "degraded": self.degraded,
            "errors": self.errors,
            "wall_seconds": round(self.wall_seconds, 4),
            "qps": round(self.qps, 1),
            "concurrency": self.concurrency,
            "ops": ops,
        }


def run_load(
    base_url: str,
    queries: Sequence[Dict],
    concurrency: int = 8,
    timeout: float = 10.0,
) -> LoadReport:
    """Drive ``queries`` against a frontend from a thread pool.

    Each worker thread owns a private slice of the query stream and a
    private latency record (merged after join — no locks on the hot
    path).  Shed (``429``) and degraded (``503`` or a ``degraded`` flag)
    responses are counted, not retried: the harness measures what the
    tier does under pressure, it does not hide it.
    """
    if concurrency <= 0:
        raise ValidationError(
            f"concurrency must be > 0, got {concurrency}"
        )
    shards: List[List[Dict]] = [[] for _ in range(concurrency)]
    for i, q in enumerate(queries):
        shards[i % concurrency].append(q)
    records: List[List[Tuple[str, int, bool, float]]] = [
        [] for _ in range(concurrency)
    ]

    def worker(slot: int) -> None:
        local = records[slot]
        for query in shards[slot]:
            t0 = time.perf_counter()
            try:
                status, payload = send_query(
                    base_url, query, timeout=timeout
                )
            except (urllib.error.URLError, OSError, ValueError,
                    json.JSONDecodeError):
                local.append((query["op"], -1, False, 0.0))
                continue
            elapsed = time.perf_counter() - t0
            degraded = bool(
                isinstance(payload, dict) and payload.get("degraded")
            )
            local.append((query["op"], status, degraded, elapsed))

    threads = [
        threading.Thread(
            target=worker, args=(i,), name=f"traffic-{i}", daemon=True
        )
        for i in range(concurrency)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    report = LoadReport(concurrency=concurrency, wall_seconds=wall)
    for local in records:
        for op, status, degraded, elapsed in local:
            report.total += 1
            if status == 200:
                report.ok += 1
                report.latencies.setdefault(op, []).append(elapsed)
            elif status == 429:
                report.shed += 1
            elif status == 503:
                report.degraded += 1
            else:
                report.errors += 1
            if degraded and status == 200:
                report.degraded += 1
    for lat in report.latencies.values():
        lat.sort()
    return report
