"""Tests for the SpMM-batched Katz kernel."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.pagerank import PagerankConfig
from repro.programs.katz import (
    KatzConfig,
    KatzProgram,
    katz_window,
    katz_windows_spmm,
)
from tests.conftest import random_events

CFG = KatzConfig(tolerance=1e-12, max_iterations=500)


@pytest.fixture(scope="module")
def setup():
    events = random_events(n_vertices=35, n_events=450, seed=77)
    spec = WindowSpec.covering(events, delta=3_000, sw=1_000)
    adj = TemporalAdjacency.from_events(events)
    return adj, spec


class TestKatzSpmm:
    def test_matches_single_kernel(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = katz_windows_spmm(views, CFG)
        for j, v in enumerate(views):
            single = katz_window(v, CFG)
            assert np.allclose(batch.values[:, j], single.values,
                               atol=1e-8), j

    def test_columns_are_distributions(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = katz_windows_spmm(views, CFG)
        for j, v in enumerate(views):
            if v.n_active_vertices:
                assert batch.values[:, j].sum() == pytest.approx(1.0,
                                                                 abs=1e-8)

    def test_empty_column(self, setup):
        adj, spec = setup
        views = [
            adj.window_view(spec.window(0)),
            adj.window_view(Window(1, 10**9, 10**9 + 1)),
        ]
        batch = katz_windows_spmm(views, CFG)
        assert batch.converged[1]
        assert np.all(batch.values[:, 1] == 0)

    def test_shared_structure_work(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = katz_windows_spmm(views, CFG)
        assert batch.work.edge_traversals == batch.work.iterations * adj.nnz

    def test_single_batch_counts_active_edges_like_solve_window(self, setup):
        """A batch of one window reports the same active-edge work as the
        SpMV solve of that window."""
        adj, spec = setup
        program = KatzProgram(
            config=CFG, routing=PagerankConfig(edge_path="masked")
        )
        for w in spec:
            view = adj.window_view(w)
            x0 = program.init_window(view)
            batch = program.solve_batch([view], x0[:, None])
            single = program.solve_window(view, x0)
            assert batch.iterations_per_window[0] == single.iterations
            assert (
                batch.work.active_edge_traversals
                == single.work.active_edge_traversals
                == single.iterations * view.n_active_edges
            ), w.index

    def test_rejects_empty_and_mixed(self, setup):
        adj, spec = setup
        with pytest.raises(ValidationError):
            katz_windows_spmm([], CFG)
        other = TemporalAdjacency.from_events(
            random_events(n_vertices=35, n_events=450, seed=77)
        )
        with pytest.raises(ValidationError):
            katz_windows_spmm(
                [adj.window_view(spec.window(0)),
                 other.window_view(spec.window(1))],
                CFG,
            )

    def test_rejects_bad_x0(self, setup):
        adj, spec = setup
        with pytest.raises(ValidationError):
            katz_windows_spmm(
                [adj.window_view(spec.window(0))], CFG,
                x0=np.zeros((2, 1)),
            )
