"""Tests for the Section 4.1 memory accounting."""

import tracemalloc

import pytest

from repro.analysis import memory_report
from repro.analysis.memory import ENCODING_BYTES
from repro.events import WindowSpec
from repro.graph import LazyMultiWindowPartition
from repro.programs import engine
from repro.programs.pagerank import PagerankProgram
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

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_step_price_bounds_a_solve_batch_peak(self, partition, width):
        """The priced step is at least what one ``solve_batch`` over the
        graph's ``width`` largest windows allocates, and at most twice
        it."""
        part, _ = partition
        report = memory_report(part)
        program = PagerankProgram()
        prices = []
        for g_mem, graph in zip(report.graphs, part.graphs):
            views = sorted(
                map(graph.window_view, graph.window_indices()),
                key=lambda v: -v.n_active_edges,
            )[:width]
            seeds = [program.init_window(v) for v in views]
            tracemalloc.start()
            try:
                program.solve_batch(views, seeds)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            price = g_mem.step_bytes(width)
            assert peak <= price <= 2 * peak, (g_mem.index, peak, price)
            prices.append(price)
        assert report.pagerank_workspace_bytes(width) == max(prices)

    def test_step_price_follows_the_step_cap(self, partition, monkeypatch):
        """Under a cap below one window a step holds that one window's
        edges however wide it is (16 B of index and 8 B of contribution
        each); the vertex vectors still grow."""
        part, _ = partition
        g_mem = memory_report(part).graphs[0]
        largest = max(g_mem.window_edges)
        wide = g_mem.step_bytes(16)
        monkeypatch.setattr(engine, "STEP_EVENTS", 1)
        capped = g_mem.step_bytes(16)
        assert capped < wide
        assert capped > g_mem.step_bytes(1)
        assert wide - capped == 3 * ENCODING_BYTES * (
            sum(g_mem.window_edges) - largest
        )

    def test_more_partitions_more_memory(self):
        events = random_events(n_vertices=40, n_events=800, seed=72)
        spec = WindowSpec.covering(events, delta=3_000, sw=900)
        small = memory_report(LazyMultiWindowPartition(events, spec, 1))
        large = memory_report(LazyMultiWindowPartition(events, spec, 8))
        assert (
            large.total_allocated_bytes >= small.total_allocated_bytes
        )
