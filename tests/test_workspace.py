"""Tests for the kernel workspace (repro.pagerank.workspace).

The contract under test: every kernel produces **bitwise-identical**
results with and without a workspace, returned values are freshly owned
(never aliases of workspace scratch), and buffers are actually reused
across the windows of a chain.
"""

import numpy as np
import pytest

from repro.events import WindowSpec
from repro.graph.multiwindow import LazyMultiWindowPartition
from repro.pagerank import PagerankConfig, Workspace
from repro.pagerank.spmv import pagerank_window, pagerank_windows_lockstep
from repro.pagerank.weighted import pagerank_window_weighted
from tests.conftest import random_events


@pytest.fixture
def graph():
    events = random_events(n_vertices=50, n_events=900, seed=23)
    spec = WindowSpec.covering(events, delta=2_000, sw=600)
    return LazyMultiWindowPartition(events, spec, 1).graphs[0]


CFG = PagerankConfig(tolerance=1e-11, max_iterations=200)


class TestWorkspaceBuffers:
    def test_reuse_and_miss_accounting(self):
        ws = Workspace()
        a = ws.buffer("x", (16,), np.float64)
        b = ws.buffer("x", (16,), np.float64)
        assert a is b
        assert ws.hits == 1 and ws.misses == 1

    def test_shape_change_reallocates(self):
        ws = Workspace()
        a = ws.buffer("x", (16,), np.float64)
        b = ws.buffer("x", (32,), np.float64)
        assert a is not b and b.shape == (32,)

    def test_zeros_is_cleared(self):
        ws = Workspace()
        buf = ws.buffer("x", (8,), np.float64)
        buf[:] = 7.0
        assert not ws.zeros("x", (8,), np.float64).any()

    def test_clear_empties(self):
        ws = Workspace()
        ws.buffer("x", (8,), np.float64)
        assert len(ws) == 1 and ws.nbytes > 0
        ws.clear()
        assert len(ws) == 0 and ws.nbytes == 0


class TestKernelParity:
    @pytest.mark.parametrize(
        "solver", [pagerank_window, pagerank_window_weighted],
        ids=["spmv", "weighted"],
    )
    def test_chained_window_parity(self, graph, solver):
        ws = Workspace()
        x_plain = x_ws = None
        for w in graph.window_indices():
            view = graph.window_view(w)
            r_plain = solver(view, CFG, x0=x_plain)
            r_ws = solver(view, CFG, x0=x_ws, workspace=ws)
            assert r_plain.iterations == r_ws.iterations
            assert np.array_equal(r_plain.values, r_ws.values)
            x_plain, x_ws = r_plain.values, r_ws.values
        assert ws.hits > ws.misses

    def test_spmm_batch_parity(self, graph):
        ws = Workspace()
        windows = list(graph.window_indices())[:4]
        views = [graph.window_view(w) for w in windows]
        r_plain = pagerank_windows_lockstep(views, CFG)
        r_ws = pagerank_windows_lockstep(views, CFG, workspace=ws)
        for plain, pooled in zip(r_plain.columns, r_ws.columns):
            assert np.array_equal(plain.values, pooled.values)
            assert plain.iterations == pooled.iterations

    def test_returned_values_are_owned(self, graph):
        """A later window's solve must not mutate an earlier result."""
        ws = Workspace()
        windows = list(graph.window_indices())
        first = pagerank_window(
            graph.window_view(windows[0]), CFG, workspace=ws
        )
        snapshot = first.values.copy()
        for w in windows[1:3]:
            pagerank_window(graph.window_view(w), CFG, workspace=ws)
        assert np.array_equal(first.values, snapshot)


class TestDriverParity:
    @pytest.mark.parametrize("kernel", ["spmv", "spmm"])
    @pytest.mark.parametrize("partial", [True, False])
    def test_run_matches_pre_workspace_reference(self, kernel, partial):
        """The driver (which now threads one workspace through each
        chain) must match a workspace-free solve window by window."""
        from repro.models import PostmortemDriver, PostmortemOptions
        from repro.pagerank.init import full_initialization

        events = random_events(n_vertices=40, n_events=700, seed=31)
        spec = WindowSpec.covering(events, delta=2_000, sw=800)
        opts = PostmortemOptions(
            n_multiwindows=2, kernel=kernel, partial_init=partial,
            vector_length=4,
        )
        run = PostmortemDriver(events, spec, CFG, opts).run()
        if kernel == "spmv" and not partial:
            part = LazyMultiWindowPartition(events, spec, 2)
            for g in part.graphs:
                for w in g.window_indices():
                    view = g.window_view(w)
                    ref = pagerank_window(
                        view, CFG, x0=full_initialization(view)
                    )
                    got = run.windows[w]
                    assert got.iterations == ref.iterations
                    assert np.array_equal(
                        got.values,
                        g.to_global(ref.values, events.n_vertices),
                    )
