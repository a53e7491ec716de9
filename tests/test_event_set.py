"""Unit tests for TemporalEventSet."""

import numpy as np
import pytest

from repro.errors import EmptyEventSetError, ValidationError
from repro.events import TemporalEventSet
from tests.conftest import random_events


class TestConstruction:
    def test_sorts_by_time(self):
        es = TemporalEventSet([0, 1, 2], [1, 2, 0], [30, 10, 20])
        assert es.time.tolist() == [10, 20, 30]
        assert es.src.tolist() == [1, 2, 0]

    def test_sort_is_stable(self):
        es = TemporalEventSet([0, 1, 2], [1, 2, 0], [5, 5, 5])
        assert es.src.tolist() == [0, 1, 2]

    def test_rejects_unsorted_when_sort_false(self):
        with pytest.raises(ValidationError):
            TemporalEventSet([0, 1], [1, 0], [2, 1], sort=False)

    def test_rejects_negative_vertices(self):
        with pytest.raises(ValidationError):
            TemporalEventSet([-1], [0], [0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            TemporalEventSet([0, 1], [1], [0, 0])

    def test_n_vertices_default(self):
        es = TemporalEventSet([0, 5], [3, 1], [0, 1])
        assert es.n_vertices == 6

    def test_n_vertices_too_small(self):
        with pytest.raises(ValidationError):
            TemporalEventSet([0, 5], [3, 1], [0, 1], n_vertices=4)

    def test_empty(self):
        es = TemporalEventSet([], [], [])
        assert len(es) == 0
        assert es.n_vertices == 0
        with pytest.raises(EmptyEventSetError):
            _ = es.t_min

    def test_not_hashable(self):
        es = TemporalEventSet([0], [1], [0])
        with pytest.raises(TypeError):
            hash(es)

    def test_equality(self):
        a = TemporalEventSet([0, 1], [1, 0], [0, 1])
        b = TemporalEventSet([0, 1], [1, 0], [0, 1])
        c = TemporalEventSet([0, 1], [1, 0], [0, 2])
        assert a == b
        assert a != c


class TestRangeQueries:
    def test_slice_indices_inclusive(self):
        es = TemporalEventSet([0] * 5, [1] * 5, [10, 20, 30, 40, 50])
        lo, hi = es.time_slice_indices(20, 40)
        assert (lo, hi) == (1, 4)

    def test_events_between(self):
        es = random_events(seed=7)
        sub = es.events_between(2_000, 5_000)
        assert np.all(sub.time >= 2_000)
        assert np.all(sub.time <= 5_000)
        assert sub.n_vertices == es.n_vertices

    def test_count_between_matches(self):
        es = random_events(seed=8)
        assert es.count_between(0, es.t_max) == len(es)
        manual = int(((es.time >= 100) & (es.time <= 500)).sum())
        assert es.count_between(100, 500) == manual

    def test_edges_between_views(self):
        es = random_events(seed=9)
        src, dst = es.edges_between(es.t_min, es.t_max)
        assert src.size == len(es)

    def test_span(self):
        es = TemporalEventSet([0, 1], [1, 0], [5, 25])
        assert es.span == 20


class TestTransforms:
    def test_symmetrized_doubles(self):
        es = TemporalEventSet([0, 1], [1, 2], [3, 4])
        sym = es.symmetrized()
        assert len(sym) == 4
        pairs = set(zip(sym.src.tolist(), sym.dst.tolist()))
        assert (1, 0) in pairs and (2, 1) in pairs

    def test_symmetrized_empty(self):
        assert len(TemporalEventSet([], [], []).symmetrized()) == 0

    def test_without_self_loops(self):
        es = TemporalEventSet([0, 1, 2], [0, 2, 2], [0, 1, 2])
        clean = es.without_self_loops()
        assert len(clean) == 1
        assert clean.src.tolist() == [1]

    def test_iter_batches(self):
        es = random_events(n_events=100, seed=4)
        batches = list(es.iter_batches(30))
        assert sum(len(b) for b in batches) == len(es)
        assert all(len(b) <= 30 for b in batches)
        rebuilt = np.concatenate([b.time for b in batches])
        assert np.array_equal(rebuilt, es.time)

    def test_iter_batches_rejects_zero(self):
        es = random_events(seed=5)
        with pytest.raises(ValidationError):
            list(es.iter_batches(0))

    def test_concatenated(self):
        a = TemporalEventSet([0], [1], [10])
        b = TemporalEventSet([1], [2], [5])
        c = a.concatenated(b)
        assert c.time.tolist() == [5, 10]
        assert len(c) == 2
