"""Tests for batched Katz: ``KatzProgram.solve_batch`` on the shared
SpMM power loop, checked against the reference ``katz_window``."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.programs.katz import KatzConfig, KatzProgram, katz_window
from tests.conftest import random_events

CFG = KatzConfig(tolerance=1e-12, max_iterations=500)
PROGRAM = KatzProgram(config=CFG)


def solve_batch(views, program=PROGRAM, **kwargs):
    """Batch-solve ``views`` from their cold starts."""
    x0 = np.stack([program.init_window(v) for v in views], axis=1)
    return program.solve_batch(views, x0, **kwargs)


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
        batch = solve_batch(views)
        for j, v in enumerate(views):
            single = katz_window(v, CFG)
            assert np.allclose(batch.values[:, j], single.values,
                               atol=1e-8), j

    def test_columns_are_distributions(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = solve_batch(views)
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
        batch = solve_batch(views)
        assert batch.converged[1]
        assert np.all(batch.values[:, 1] == 0)

    def test_shared_structure_work(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = solve_batch(views)
        # the batch reads each live window's active cells, not the whole
        # structure per column
        assert batch.work.edge_traversals == sum(
            int(it) * v.n_active_edges
            for it, v in zip(batch.iterations_per_window, views)
        )
        assert (
            batch.work.edge_traversals == batch.work.active_edge_traversals
        )

    def test_single_batch_counts_active_edges_like_solve_window(self, setup):
        """A batch of one window reports the same active-edge work as the
        SpMV solve of that window."""
        adj, spec = setup
        for w in spec:
            view = adj.window_view(w)
            x0 = PROGRAM.init_window(view)
            batch = PROGRAM.solve_batch([view], x0[:, None])
            single = PROGRAM.solve_window(view, x0)
            assert batch.iterations_per_window[0] == single.iterations
            assert (
                batch.work.active_edge_traversals
                == single.work.active_edge_traversals
                == single.iterations * view.n_active_edges
            ), w.index

    def test_compacted_batch_streams_only_the_union(self, setup):
        adj, spec = setup
        views = [
            adj.window_view(spec.window(0)),
            adj.window_view(spec.window(spec.n_windows - 1)),
        ]
        batch = solve_batch(views)
        assert 0 < batch.work.edge_traversals
        assert batch.work.edge_traversals < batch.work.iterations * adj.nnz
        for j, v in enumerate(views):
            assert np.allclose(
                batch.values[:, j], katz_window(v, CFG).values, atol=1e-8
            )

    def test_rejects_empty_and_mixed(self, setup):
        adj, spec = setup
        with pytest.raises(ValidationError):
            PROGRAM.solve_batch([], np.zeros((35, 0)))
        other = TemporalAdjacency.from_events(
            random_events(n_vertices=35, n_events=450, seed=77)
        )
        with pytest.raises(ValidationError):
            solve_batch(
                [adj.window_view(spec.window(0)),
                 other.window_view(spec.window(1))]
            )

    def test_rejects_bad_x0(self, setup):
        adj, spec = setup
        with pytest.raises(ValidationError):
            PROGRAM.solve_batch(
                [adj.window_view(spec.window(0))], np.zeros((2, 1))
            )
