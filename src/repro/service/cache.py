"""A small observable LRU cache for the query engine.

The engine keeps two of these: one over decoded window slices (the float32
row materialized out of the mmap) and one over ranked top-k lists.  Both
are hot-path caches in a server, so hits, misses and evictions are counted
and exposed via ``/stats`` for observability.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, TypeVar

from repro.errors import ValidationError
from repro.sanitize import LOCK_RANK_ENGINE_CACHE, make_lock

__all__ = ["CacheStats", "LRUCache"]

V = TypeVar("V")

_MISSING = object()


@dataclass
class CacheStats:
    """Monotonic counters of one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """Thread-safe LRU keyed by any hashable, bounded by entry count.

    ``get_or_compute`` is the primary API: a miss runs ``compute()``
    *outside* the lock (slice decodes and top-k sorts must not serialize
    each other), so two concurrent misses on one key may both compute —
    acceptable for idempotent reads, and exactly what the server's
    micro-batching layer exists to prevent.
    """

    def __init__(self, maxsize: int = 128, name: str = "lru") -> None:
        if maxsize <= 0:
            raise ValidationError(f"maxsize must be > 0, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = make_lock(f"cache:{name}", LOCK_RANK_ENGINE_CACHE)

    def get(self, key: Hashable, default: V = None) -> V:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], V]) -> V:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data.keys()))

    def clear(self) -> None:
        """Drop all entries (counters are kept — they are lifetime totals)."""
        with self._lock:
            self._data.clear()
