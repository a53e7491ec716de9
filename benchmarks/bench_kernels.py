"""Kernel microbenchmarks — the building blocks behind every figure.

Times the individual operations whose calibrated costs drive the simulated
machine: temporal-CSR construction, window-mask computation, one SpMV
window solve, one SpMM batch solve (eight windows on the lockstep
loop), streaming structure updates, and the
offline per-window rebuild.

Run:  pytest benchmarks/bench_kernels.py --benchmark-only
"""

from __future__ import annotations

import pytest

from benchmarks._common import BENCH_CONFIG, get_events
from repro.events import WindowSpec
from repro.graph import LazyMultiWindowPartition, TemporalAdjacency, build_csr_from_edges
from repro.pagerank import pagerank_window, pagerank_windows_lockstep
from repro.streaming.stinger import StreamingGraph


@pytest.fixture(scope="module")
def events():
    return get_events("wiki-talk")


@pytest.fixture(scope="module")
def spec(events):
    return WindowSpec.covering_days(events, 90, 86_400 * 20)


@pytest.fixture(scope="module")
def adjacency(events):
    return TemporalAdjacency.from_events(events)


def test_temporal_csr_build(benchmark, events):
    adj = benchmark(TemporalAdjacency.from_events, events)
    assert adj.nnz == len(events)


def test_multiwindow_partition_build(benchmark, events, spec):
    graphs = benchmark(
        lambda: LazyMultiWindowPartition(events, spec, 6).graphs
    )
    assert len(graphs) == 6


def test_window_mask_computation(benchmark, adjacency, spec):
    w = spec.window(spec.n_windows // 2)
    view = benchmark(adjacency.window_view, w)
    assert view.n_active_edges >= 0


def test_spmv_window_solve(benchmark, adjacency, spec):
    view = adjacency.window_view(spec.window(spec.n_windows - 1))
    result = benchmark(pagerank_window, view, BENCH_CONFIG)
    assert result.converged


def test_spmm_batch_solve_8(benchmark, adjacency, spec):
    views = [
        adjacency.window_view(spec.window(i))
        for i in range(spec.n_windows - 8, spec.n_windows)
    ]
    result = benchmark(pagerank_windows_lockstep, views, BENCH_CONFIG)
    assert all(column.converged for column in result.columns)


def test_offline_window_rebuild(benchmark, events, spec):
    w = spec.window(spec.n_windows - 1)

    def rebuild():
        src, dst = events.edges_between(w.t_start, w.t_end)
        return build_csr_from_edges(src, dst, events.n_vertices)

    g = benchmark(rebuild)
    assert g.n_edges > 0


def test_streaming_full_pass(benchmark, events, spec):
    def stream_all():
        s = StreamingGraph(events)
        for w in spec:
            s.advance_to(w)
        return s

    s = benchmark.pedantic(stream_all, rounds=3, iterations=1)
    assert s.adjacency.entries_inserted > 0
