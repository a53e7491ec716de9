"""Tests for the observable LRU cache (repro.service.cache)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ValidationError
from repro.service import LRUCache


class TestLRU:
    def test_put_get(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("b", 7) == 7

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")       # refresh a: b is now least-recent
        cache.put("c", 3)    # evicts b
        assert "a" in cache and "c" in cache
        assert cache.get("b") is None
        assert cache.stats.evictions == 1

    def test_counters(self):
        cache = LRUCache(2)
        cache.get("x")
        cache.put("x", 1)
        cache.get("x")
        cache.get("x")
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert cache.stats.as_dict()["hit_rate"] == pytest.approx(0.6667)

    def test_hit_rate_empty(self):
        assert LRUCache(1).stats.hit_rate == 0.0

    def test_get_or_compute(self):
        cache = LRUCache(2)
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute("k", compute) == 42
        assert cache.get_or_compute("k", compute) == 42
        assert len(calls) == 1

    def test_overwrite_same_key_no_eviction(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.stats.evictions == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValidationError):
            LRUCache(0)

    def test_thread_safety(self):
        cache = LRUCache(8)

        def worker(seed):
            for i in range(500):
                key = (seed * i) % 16
                cache.get_or_compute(key, lambda k=key: k * 2)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 8
        stats = cache.stats
        assert stats.hits + stats.misses == 2_000
