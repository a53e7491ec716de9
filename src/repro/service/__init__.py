"""The serving layer: precompute once, answer queries forever.

The postmortem model computes PageRank for *every* window up front, so the
natural production shape is precompute-then-serve: a run is flushed to an
on-disk :class:`~repro.service.store.RankStore` (a memory-mapped
``(n_windows, n_vertices)`` float32 matrix plus a window-metadata index),
and a :class:`~repro.service.engine.QueryEngine` answers top-k / rank /
trajectory / movers queries over mmap slices without ever loading the full
matrix.

:mod:`repro.service.cluster` serves the engine's query surface over
JSON-over-HTTP: shard worker processes (one by default, ``serve --shards
N`` for more) behind an asyncio frontend — see that package's docstring.
"""

from repro.service.cache import CacheStats, LRUCache
from repro.service.engine import QueryEngine, compute_movers
from repro.service.store import RankStore, RankStoreWriter, write_store

__all__ = [
    "CacheStats",
    "LRUCache",
    "QueryEngine",
    "RankStore",
    "RankStoreWriter",
    "compute_movers",
    "write_store",
]
