"""Unit tests for the SpMV kernel, references, and cross-validation against
networkx."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.events import Window, WindowSpec
from repro.graph import TemporalAdjacency, build_csr_from_edges
from repro.pagerank import (
    PagerankConfig,
    pagerank_window,
)
from repro.pagerank.reference import (
    pagerank_csr_reference,
    pagerank_dense_reference,
)
from tests.conftest import random_events


@pytest.fixture
def tight():
    return PagerankConfig(tolerance=1e-13, max_iterations=500)


class TestReferencesAgree:
    def test_dense_vs_csr_reference(self, tight):
        rng = np.random.default_rng(41)
        g = build_csr_from_edges(
            rng.integers(0, 15, 60), rng.integers(0, 15, 60), 15
        )
        rd = pagerank_dense_reference(g, tight)
        rc = pagerank_csr_reference(g, tight)
        assert np.allclose(rd.values, rc.values, atol=1e-10)

    @pytest.mark.parametrize("dangling", ["drop", "uniform"])
    def test_both_dangling_modes(self, dangling):
        cfg = PagerankConfig(
            tolerance=1e-13, max_iterations=500, dangling=dangling
        )
        g = build_csr_from_edges([0, 1, 2], [1, 2, 0], 4)
        rd = pagerank_dense_reference(g, cfg)
        rc = pagerank_csr_reference(g, cfg)
        assert np.allclose(rd.values, rc.values, atol=1e-10)


class TestSpmvKernel:
    def test_matches_reference_on_all_windows(self, events, spec, tight):
        adj = TemporalAdjacency.from_events(events)
        for w in spec:
            view = adj.window_view(w)
            fast = pagerank_window(view, tight)
            ref = pagerank_csr_reference(
                view.compact_graph(), tight, active=view.active_vertices_mask
            )
            assert np.allclose(fast.values, ref.values, atol=1e-9), w.index

    def test_matches_networkx(self, tight):
        nx = pytest.importorskip("networkx")
        events = random_events(n_vertices=30, n_events=300, seed=44)
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 10_000))
        ours = pagerank_window(view, tight)

        g = nx.DiGraph()
        dedup = adj.in_csr.dedup_mask(0, 10_000)
        dst = adj.in_csr.row_ids()[dedup]
        src = adj.in_csr.col[dedup]
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        # networkx alpha is the damping factor = 1 - our teleport alpha;
        # its default dangling handling = uniform redistribution
        nx_pr = nx.pagerank(g, alpha=tight.damping, tol=1e-14, max_iter=1000)
        for v, score in nx_pr.items():
            assert ours.values[v] == pytest.approx(score, abs=1e-8)

    def test_empty_window(self, adjacency):
        view = adjacency.window_view(Window(0, 10**8, 2 * 10**8))
        r = pagerank_window(view)
        assert r.converged
        assert r.iterations == 0
        assert np.all(r.values == 0)

    def test_sum_to_one_with_uniform_dangling(self, events, spec):
        cfg = PagerankConfig(dangling="uniform", tolerance=1e-12,
                             max_iterations=500)
        adj = TemporalAdjacency.from_events(events)
        for w in spec:
            r = pagerank_window(adj.window_view(w), cfg)
            assert r.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_drop_mode_leaks_mass(self, events, spec):
        cfg = PagerankConfig(dangling="drop", tolerance=1e-12,
                             max_iterations=500)
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(spec.window(0))
        if (view.active_vertices_mask & (view.out_degrees == 0)).any():
            r = pagerank_window(view, cfg)
            assert r.total_mass < 1.0

    def test_inactive_vertices_zero(self, events, spec):
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(spec.window(0))
        r = pagerank_window(view)
        assert np.all(r.values[~view.active_vertices_mask] == 0)

    def test_x0_shape_validated(self, adjacency, spec):
        view = adjacency.window_view(spec.window(0))
        with pytest.raises(ValidationError):
            pagerank_window(view, x0=np.ones(3))

    def test_strict_convergence_raises(self, adjacency, spec):
        cfg = PagerankConfig(
            tolerance=1e-300, max_iterations=2, strict=True
        )
        view = adjacency.window_view(spec.window(0))
        with pytest.raises(ConvergenceError):
            pagerank_window(view, cfg)

    def test_work_stats_recorded(self, adjacency, spec):
        view = adjacency.window_view(spec.window(0))
        r = pagerank_window(view)
        assert r.work.iterations == r.iterations
        assert r.work.active_edge_traversals == (
            r.iterations * view.n_active_edges
        )
        assert r.work.vertex_ops == r.iterations * view.n_active_vertices

    def test_work_stats_compacted_counts_active_edges(self, adjacency, spec):
        view = adjacency.window_view(spec.window(0))
        r = pagerank_window(view)
        # the kernel streams the packed active edges, never the structure
        assert (
            r.work.edge_traversals == r.iterations * view.n_active_edges
        )
        assert view.n_active_edges < adjacency.nnz

    def test_fixed_point_property(self, adjacency, spec, tight):
        """The converged vector satisfies the PageRank equation."""
        view = adjacency.window_view(spec.window(1))
        r = pagerank_window(view, tight)
        again = pagerank_window(
            view,
            PagerankConfig(tolerance=1e-13, max_iterations=1),
            x0=r.values,
        )
        assert np.abs(again.values - r.values).sum() < 1e-10

    def test_deterministic(self, adjacency, spec, tight):
        view = adjacency.window_view(spec.window(0))
        r1 = pagerank_window(view, tight)
        r2 = pagerank_window(view, tight)
        assert np.array_equal(r1.values, r2.values)
