"""The SpMM region schedule (Section 4.4) on the lockstep loop.

A batch of the region schedule is one lockstep step over windows of the
same multi-window graph: :func:`~repro.pagerank.spmv.
pagerank_windows_lockstep` solves every column in the window's own
vertex space, bitwise-equal to solving it alone.  The kernel-level cases
feed it region batches; the run-level cases drive ``kernel="spmm"``
through the postmortem driver and check what a stored window promises:
unit mass, inactive vertices exactly ``+0.0``, per-window iteration
counts and the strict-mode error.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.events import TemporalEventSet, Window, WindowSpec
from repro.graph import LazyMultiWindowPartition, TemporalAdjacency
from repro.models import PostmortemDriver, PostmortemOptions
from repro.models.schedule import spmm_region_schedule
from repro.pagerank import (
    PagerankConfig,
    compact_pull,
    full_initialization,
    pagerank_window,
    pagerank_windows_lockstep,
    partial_initialization,
)
from tests.conftest import random_events
from tests.dense_mask_reference import dense_mask_pagerank

VECTOR_LENGTH = 4


@pytest.fixture
def tight():
    return PagerankConfig(tolerance=1e-13, max_iterations=500)


def assert_same(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.residual == want.residual


class TestSpmmKernel:
    def test_matches_spmv_per_column(self, events, spec, tight):
        adj = TemporalAdjacency.from_events(events)
        views = [adj.window_view(w) for w in spec]
        batch = pagerank_windows_lockstep(views, tight)
        for view, column in zip(views, batch.columns):
            assert_same(column, pagerank_window(view, tight))

    def test_window_indices_preserved(self, adjacency, spec, tight):
        """Columns come back in input order, whatever the order."""
        views = [adjacency.window_view(spec.window(i)) for i in (2, 0, 5)]
        batch = pagerank_windows_lockstep(views, tight)
        for view, column in zip(views, batch.columns):
            assert_same(column, pagerank_window(view, tight))

    def test_single_window_batch(self, adjacency, spec, tight):
        views = [adjacency.window_view(spec.window(0))]
        (column,) = pagerank_windows_lockstep(views, tight).columns
        assert_same(column, pagerank_window(views[0], tight))

    def test_rejects_empty(self, tight):
        with pytest.raises(ValidationError):
            pagerank_windows_lockstep([], tight)

    def test_rejects_bad_x0(self, adjacency, spec, tight):
        views = [adjacency.window_view(spec.window(0))]
        with pytest.raises(ValidationError, match="x0 must have shape"):
            pagerank_windows_lockstep(views, tight, x0=[np.ones(3)])
        with pytest.raises(ValidationError, match="one seed per window"):
            pagerank_windows_lockstep(views, tight, x0=[None, None])

    def test_empty_window_column(self, adjacency, tight):
        views = [
            adjacency.window_view(Window(0, 0, 10_000)),
            adjacency.window_view(Window(1, 10**9, 10**9 + 1)),
        ]
        full, empty = pagerank_windows_lockstep(views, tight).columns
        assert empty.converged and empty.iterations == 0
        assert empty.residual == 0.0
        assert not np.any(empty.values) and not np.signbit(empty.values).any()
        assert_same(full, pagerank_window(views[0], tight))

    def test_per_column_iterations(self, adjacency, spec, tight):
        """A column that converges leaves the loop: each window takes the
        iterations of its own solve, not the batch's."""
        views = [adjacency.window_view(w) for w in spec]
        batch = pagerank_windows_lockstep(views, tight)
        counts = [c.iterations for c in batch.columns]
        assert counts == [pagerank_window(v, tight).iterations for v in views]
        assert len(set(counts)) > 1

    def test_x0_columns_used(self, adjacency, spec, tight):
        views = [adjacency.window_view(spec.window(i)) for i in (0, 1)]
        seeds = [
            full_initialization(views[0]),
            partial_initialization(
                views[1], views[0], pagerank_window(views[0], tight).values
            ),
        ]
        batch = pagerank_windows_lockstep(views, tight, x0=seeds)
        for view, x0, column in zip(views, seeds, batch.columns):
            assert column.values.shape == (adjacency.n_vertices,)
            assert_same(column, pagerank_window(view, tight, x0=x0))

    def test_work_counts_shared_structure(self, adjacency, spec, tight):
        views = [adjacency.window_view(w) for w in spec]
        batch = pagerank_windows_lockstep(views, tight)
        # a column reads its window's active edges once per iteration:
        # the traversed count is the useful count, not iterations * nnz
        edges = sum(
            c.iterations * v.n_active_edges
            for c, v in zip(batch.columns, views)
        )
        work = batch.work
        assert work.edge_traversals == work.active_edge_traversals == edges
        assert work.iterations == sum(c.iterations for c in batch.columns)
        assert edges < work.iterations * adjacency.nnz

    def test_work_counts_compacted_union(self, adjacency, spec, tight):
        views = [adjacency.window_view(w) for w in spec]
        batch = pagerank_windows_lockstep(views, tight)
        # a column's edges are its window's packed edges, the ones its
        # single-window solve would iterate
        packed = sum(
            c.iterations * compact_pull(v).n_edges
            for c, v in zip(batch.columns, views)
        )
        assert batch.work.edge_traversals == packed
        assert batch.work.active_edge_traversals == packed


class TestSpmmInsideMultiwindow:
    def test_local_space_batches(self, tight):
        """Every batch of a graph's region schedule, warm-started from
        the previous batch, equals the masked single-window oracle."""
        events = random_events(n_vertices=40, n_events=600, seed=61)
        spec = WindowSpec.covering(events, delta=3_000, sw=800)
        g = LazyMultiWindowPartition(events, spec, 2)[0]
        solved = {}
        for batch in spmm_region_schedule(
            g.first_window, g.n_windows, VECTOR_LENGTH
        ):
            views = [g.window_view(w) for w in batch.windows]
            seeds = [
                None if p is None
                else partial_initialization(v, *solved[p])
                for v, p in zip(views, batch.predecessors)
            ]
            result = pagerank_windows_lockstep(views, tight, x0=seeds)
            for w, v, x0, column in zip(
                batch.windows, views, seeds, result.columns
            ):
                assert_same(column, dense_mask_pagerank(v, tight, x0=x0))
                solved[w] = (v, column.values)
        assert len(solved) == g.n_windows


# ---------------------------------------------------------------------------
# the region-schedule run
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def gap():
    """Two bursts with nothing between them, so a few windows are
    empty; sparse enough that every window leaves vertices inactive."""
    a = random_events(n_vertices=60, n_events=250, t_max=10_000, seed=5)
    b = random_events(n_vertices=60, n_events=250, t_max=10_000, seed=6)
    events = TemporalEventSet(
        np.concatenate([a.src, b.src]), np.concatenate([a.dst, b.dst]),
        np.concatenate([a.time, b.time + 20_000]), n_vertices=60,
    )
    return events, WindowSpec(t0=0, delta=1_500, sw=1_000, n_windows=30)


def spmm_run(events, spec, config, **kw):
    options = PostmortemOptions(
        n_multiwindows=2, kernel="spmm", vector_length=VECTOR_LENGTH, **kw
    )
    return PostmortemDriver(events, spec, config, options).run()


class TestRegionScheduleRun:
    def test_mass_one_and_inactive_zero(self, gap):
        events, spec = gap
        config = PagerankConfig(tolerance=1e-12, max_iterations=300)
        run = spmm_run(events, spec, config)
        empty = 0
        for w in run.windows:
            values = w.values
            assert not np.signbit(values).any()
            if w.n_active_vertices == 0:
                empty += 1
                assert not np.any(values) and w.iterations == 0
                continue
            assert values.sum() == pytest.approx(1.0, abs=1e-9)
            # inactive vertices hold exactly +0.0
            assert np.count_nonzero(values) == w.n_active_vertices
        assert empty > 0

    def test_iterations_per_window_in_task_log(self, gap):
        """Each step's task record holds the step's windows and the
        largest of their own iteration counts."""
        events, spec = gap
        config = PagerankConfig(tolerance=1e-12, max_iterations=300)
        run = spmm_run(events, spec, config)
        iterations = {w.window_index: w.iterations for w in run.windows}
        log = run.metadata["task_log"]
        assert any(t.kernel == "spmm" for t in log)
        for task in log:
            assert task.iterations == max(iterations[w] for w in task.windows)
            assert task.kernel == ("spmm" if len(task.windows) > 1 else "spmv")

    def test_strict_names_first_unconverged_window(self, gap):
        """A strict run stops at the first step holding a capped window
        and names that step's first such window, in batch order."""
        events, spec = gap
        loose = PagerankConfig(tolerance=1e-12, max_iterations=4)
        run = spmm_run(events, spec, loose)
        converged = {w.window_index: w.converged for w in run.windows}
        named = next(
            w for task in run.metadata["task_log"] for w in task.windows
            if not converged[w]
        )
        with pytest.raises(
            ConvergenceError, match=f"^window {named} did not converge"
        ):
            spmm_run(events, spec, replace(loose, strict=True))
