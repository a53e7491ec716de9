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
        # the real structure adds the group-start mask and the id map
        # to the paper's formula
        assert report.total_allocated_bytes >= report.total_model_bytes

    def test_heap_is_model_plus_id_map_mask_and_indptr_end(self, partition):
        """One temporal CSR per graph: 8·(|V_w| + 2·|E_w|) for
        ``rowA``/``colA``/``timeA``, plus the global-id map (8 B per
        vertex), one ``group_start`` byte per event and the extra
        ``indptr`` entry."""
        part, _ = partition
        report = memory_report(part)
        assert len(report.graphs) == 4
        for g in report.graphs:
            assert g.heap_bytes == (
                g.model_bytes + ENCODING_BYTES * g.n_vertices
                + g.n_events + ENCODING_BYTES
            )

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
