"""Tests for the Section 4.1 memory accounting."""

import pytest

from repro.analysis import memory_report
from repro.analysis.memory import ENCODING_BYTES
from repro.events import WindowSpec
from repro.graph import LazyMultiWindowPartition
from tests.conftest import random_events


@pytest.fixture
def partition():
    events = random_events(n_vertices=40, n_events=800, seed=71)
    spec = WindowSpec.covering(events, delta=3_000, sw=900)
    return LazyMultiWindowPartition(events, spec, 4), events


class TestMemoryReport:
    def test_model_formula(self, partition):
        part, _ = partition
        report = memory_report(part)
        for g_mem, g in zip(report.graphs, part.graphs):
            expected = ENCODING_BYTES * (g.n_local_vertices + 2 * g.nnz)
            assert g_mem.model_bytes == expected
            assert g_mem.n_events == g.nnz

    def test_allocated_at_least_model(self, partition):
        part, _ = partition
        report = memory_report(part)
        # the real structure stores both orientations + masks, so the
        # allocation always exceeds the paper's single-orientation formula
        assert report.total_allocated_bytes >= report.total_model_bytes

    def test_raw_bytes(self, partition):
        part, events = partition
        report = memory_report(part)
        assert report.raw_event_bytes == 3 * ENCODING_BYTES * len(events)
        assert report.overhead_vs_raw > 0

    def test_replication_consistent(self, partition):
        part, _ = partition
        report = memory_report(part)
        assert report.replication_factor == pytest.approx(
            part.replication_factor
        )

    def test_workspace_scales_with_vector_length(self, partition):
        part, _ = partition
        report = memory_report(part)
        w1 = report.pagerank_workspace_bytes(1)
        w16 = report.pagerank_workspace_bytes(16)
        assert w16 == 16 * w1

    def test_more_partitions_more_memory(self):
        events = random_events(n_vertices=40, n_events=800, seed=72)
        spec = WindowSpec.covering(events, delta=3_000, sw=900)
        small = memory_report(LazyMultiWindowPartition(events, spec, 1))
        large = memory_report(LazyMultiWindowPartition(events, spec, 8))
        assert (
            large.total_allocated_bytes >= small.total_allocated_bytes
        )
