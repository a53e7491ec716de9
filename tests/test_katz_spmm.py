"""Tests for batched Katz: ``KatzProgram.solve_batch`` — one step of
the SpMM region schedule, or of any lockstep group — on PageRank's
lockstep loop, checked against the reference ``katz_window`` and the
program's own single-window solve."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.programs.katz import KatzConfig, KatzProgram
from tests.conftest import random_events
from tests.dense_mask_reference import katz_window

CFG = KatzConfig(tolerance=1e-12, max_iterations=500)
PROGRAM = KatzProgram(config=CFG)


def solve_batch(views, program=PROGRAM, **kwargs):
    """Batch-solve ``views`` from their cold starts."""
    x0 = [program.init_window(v) for v in views]
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
            assert np.allclose(batch.columns[j].values, single.values,
                               atol=1e-8), j
            # bitwise the program's own one-window solve
            own = PROGRAM.solve_window(v)
            assert batch.columns[j].values.tobytes() == own.values.tobytes()
            assert batch.columns[j].iterations == own.iterations

    def test_columns_are_distributions(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = solve_batch(views)
        for j, v in enumerate(views):
            values = batch.columns[j].values
            if v.n_active_vertices:
                assert values.sum() == pytest.approx(1.0, abs=1e-8)
            # inactive vertices hold exactly +0.0
            inactive = values[~v.active_vertices_mask]
            assert not inactive.any() and not np.signbit(inactive).any()

    def test_empty_column(self, setup):
        adj, spec = setup
        views = [
            adj.window_view(spec.window(0)),
            adj.window_view(Window(1, 10**9, 10**9 + 1)),
        ]
        empty = solve_batch(views).columns[1]
        assert empty.converged and empty.iterations == 0
        assert np.all(empty.values == 0)

    def test_shared_structure_work(self, setup):
        adj, spec = setup
        views = [adj.window_view(w) for w in spec]
        batch = solve_batch(views)
        # the batch reads each live window's active edges, not the whole
        # structure per column
        assert batch.work.edge_traversals == sum(
            c.iterations * v.n_active_edges
            for c, v in zip(batch.columns, views)
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
            batch = PROGRAM.solve_batch([view], [x0])
            single = PROGRAM.solve_window(view, x0)
            assert batch.columns[0].iterations == single.iterations
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
                batch.columns[j].values, katz_window(v, CFG).values,
                atol=1e-8,
            )

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PROGRAM.solve_batch([], [])

    def test_rejects_bad_x0(self, setup):
        adj, spec = setup
        with pytest.raises(ValidationError):
            PROGRAM.solve_batch(
                [adj.window_view(spec.window(0))], [np.zeros(2)]
            )
