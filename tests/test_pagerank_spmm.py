"""Unit tests for the SpMM-inspired batched kernel (Section 4.4)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import Window, WindowSpec
from repro.graph import LazyMultiWindowPartition, TemporalAdjacency
from repro.pagerank import (
    PagerankConfig,
    compact_pull,
    pagerank_window,
    pagerank_windows_spmm,
)
from tests.conftest import random_events


@pytest.fixture
def tight():
    return PagerankConfig(tolerance=1e-13, max_iterations=500)


class TestSpmmKernel:
    def test_matches_spmv_per_column(self, events, spec, tight):
        adj = TemporalAdjacency.from_events(events)
        views = [adj.window_view(w) for w in spec]
        batch = pagerank_windows_spmm(views, tight)
        for j, view in enumerate(views):
            single = pagerank_window(view, tight)
            assert np.allclose(
                batch.values[:, j], single.values, atol=1e-9
            ), j

    def test_window_indices_preserved(self, adjacency, spec, tight):
        views = [adjacency.window_view(spec.window(i)) for i in (2, 0, 5)]
        batch = pagerank_windows_spmm(views, tight)
        assert batch.window_indices == [2, 0, 5]

    def test_single_window_batch(self, adjacency, spec, tight):
        views = [adjacency.window_view(spec.window(0))]
        batch = pagerank_windows_spmm(views, tight)
        single = pagerank_window(views[0], tight)
        assert np.allclose(batch.values[:, 0], single.values, atol=1e-10)

    def test_rejects_empty(self, tight):
        with pytest.raises(ValidationError):
            pagerank_windows_spmm([], tight)

    def test_rejects_mixed_adjacencies(self, events, spec, tight):
        a1 = TemporalAdjacency.from_events(events)
        a2 = TemporalAdjacency.from_events(events)
        with pytest.raises(ValidationError):
            pagerank_windows_spmm(
                [a1.window_view(spec.window(0)), a2.window_view(spec.window(1))],
                tight,
            )

    def test_rejects_bad_x0(self, adjacency, spec, tight):
        views = [adjacency.window_view(spec.window(0))]
        with pytest.raises(ValidationError):
            pagerank_windows_spmm(views, tight, x0=np.ones((3, 1)))

    def test_empty_window_column(self, adjacency, tight):
        views = [
            adjacency.window_view(Window(0, 0, 10_000)),
            adjacency.window_view(Window(1, 10**9, 10**9 + 1)),
        ]
        batch = pagerank_windows_spmm(views, tight)
        assert batch.converged[1]
        assert np.all(batch.values[:, 1] == 0)
        single = pagerank_window(views[0], tight)
        assert np.allclose(batch.values[:, 0], single.values, atol=1e-10)

    def test_per_column_iterations(self, adjacency, spec, tight):
        views = [adjacency.window_view(w) for w in spec]
        batch = pagerank_windows_spmm(views, tight)
        singles = [pagerank_window(v, tight) for v in views]
        for j, s in enumerate(singles):
            # column convergence may differ by an iteration or two because
            # converged columns freeze while the batch continues
            assert abs(int(batch.iterations_per_window[j]) - s.iterations) <= 2

    def test_x0_columns_used(self, adjacency, spec, tight):
        views = [adjacency.window_view(spec.window(i)) for i in (0, 1)]
        n = adjacency.n_vertices
        from repro.pagerank import full_initialization

        X0 = np.stack(
            [full_initialization(views[0]), full_initialization(views[1])],
            axis=1,
        )
        batch = pagerank_windows_spmm(views, tight, x0=X0)
        assert batch.values.shape == (n, 2)

    def test_work_counts_shared_structure(self, adjacency, spec, tight):
        views = [adjacency.window_view(w) for w in spec]
        batch = pagerank_windows_spmm(views, tight)
        # one joint iteration reads each live window's active cells once:
        # the traversed count is the useful count, not iterations * nnz
        cells = sum(
            int(it) * v.n_active_edges
            for it, v in zip(batch.iterations_per_window, views)
        )
        assert batch.work.edge_traversals == cells
        assert batch.work.active_edge_traversals == cells
        assert cells < batch.work.iterations * adjacency.nnz * len(views)
        assert batch.work.iterations <= int(
            batch.iterations_per_window.max()
        ) + 1

    def test_work_counts_compacted_union(self, adjacency, spec, tight):
        views = [adjacency.window_view(w) for w in spec]
        batch = pagerank_windows_spmm(views, tight)
        # the batch's cells for a window are that window's packed edges,
        # the ones its single-window solve would iterate
        packed = sum(
            int(it) * compact_pull(v).n_edges
            for it, v in zip(batch.iterations_per_window, views)
        )
        assert batch.work.edge_traversals == packed
        assert batch.work.active_edge_traversals == packed


class TestSpmmInsideMultiwindow:
    def test_local_space_batches(self, tight):
        events = random_events(n_vertices=40, n_events=600, seed=61)
        spec = WindowSpec.covering(events, delta=3_000, sw=800)
        part = LazyMultiWindowPartition(events, spec, 2)
        g = part[0]
        views = [g.window_view(i) for i in g.window_indices()]
        batch = pagerank_windows_spmm(views, tight)
        for j, i in enumerate(g.window_indices()):
            single = pagerank_window(views[j], tight)
            assert np.allclose(batch.values[:, j], single.values, atol=1e-9)
