"""The serving tier: one store, one or more processes, one API.

``repro serve`` always runs this tier.  It serves the
:class:`~repro.service.engine.QueryEngine` query surface from shard
worker processes (one by default) behind an asyncio HTTP frontend, so
adding shards or replicas changes capacity, not answers:

* :mod:`~repro.service.cluster.shard_map` — contiguous window-range
  partition of the store (the routing table);
* :mod:`~repro.service.cluster.worker` — the replica process: a
  :class:`QueryEngine` + :class:`BatchingExecutor` stack over a
  shared-memory :class:`ShardStore` (zero-copy rows, R replicas share
  one physical copy);
* :mod:`~repro.service.cluster.coordinator` —
  :class:`~repro.service.cluster.coordinator.ShardCluster`: arena
  publication, routing/scatter-gather, bounded per-shard admission
  queues (load-shedding), health checks and the degraded path;
* :mod:`~repro.service.cluster.frontend` —
  :class:`~repro.service.cluster.frontend.ClusterFrontend`: the asyncio
  HTTP front door with global admission control;
* :mod:`~repro.service.cluster.traffic` — zipfian load generation and
  the p50/p99 measurement harness the SLO gate runs on.
"""

from repro.service.cluster.coordinator import ReplicaProxy, ShardCluster
from repro.service.cluster.frontend import ClusterFrontend
from repro.service.cluster.shard_map import ShardMap, ShardSpec
from repro.service.cluster.traffic import (
    DEFAULT_MIX,
    LoadReport,
    generate_queries,
    query_to_url,
    run_load,
    send_query,
)
from repro.service.cluster.worker import ShardStore, shard_worker_main

__all__ = [
    "ClusterFrontend",
    "DEFAULT_MIX",
    "LoadReport",
    "ReplicaProxy",
    "ShardCluster",
    "ShardMap",
    "ShardSpec",
    "ShardStore",
    "generate_queries",
    "query_to_url",
    "run_load",
    "send_query",
    "shard_worker_main",
]
