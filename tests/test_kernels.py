"""Tests for the non-PageRank vertex programs' per-window math:
connected-component sizes, k-core peeling and the reference Katz kernel,
plus the programs run end to end through ``make_driver``."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import Window
from repro.graph import TemporalAdjacency
from repro.models import PostmortemOptions
from repro.programs.components import ComponentsProgram
from repro.programs.katz import KatzConfig, katz_partial_init
from repro.programs.kcore import core_numbers
from repro.runtime import make_driver
from tests.conftest import random_events
from tests.dense_mask_reference import katz_window


@pytest.fixture
def view(adjacency, spec):
    return adjacency.window_view(spec.window(1))


def component_sizes(view):
    return ComponentsProgram().solve_window(view).values


class TestConnectedComponents:
    def test_matches_scipy(self, adjacency, spec):
        sp = pytest.importorskip("scipy.sparse.csgraph")
        for w in spec:
            view = adjacency.window_view(w)
            got = component_sizes(view)
            g = view.compact_graph().to_scipy()
            _, labels_ref = sp.connected_components(g + g.T, directed=False)
            ref = np.bincount(labels_ref)[labels_ref]
            active = view.active_vertices_mask
            # scipy also sizes inactive vertices (as singletons); the
            # program zeroes them
            np.testing.assert_array_equal(got[active], ref[active])

    def test_inactive_zero(self, view):
        got = component_sizes(view)
        assert np.all(got[~view.active_vertices_mask] == 0)
        assert np.all(got[view.active_vertices_mask] >= 1)

    def test_sizes_and_giant(self, view):
        got = component_sizes(view)
        # each component of size s contributes s vertices valued s
        sizes, counts = np.unique(got[got > 0], return_counts=True)
        assert np.all(counts % sizes == 0)
        assert counts.sum() == view.n_active_vertices
        giant = got.max() / view.n_active_vertices
        assert 0 < giant <= 1.0

    def test_two_triangles(self):
        from repro.events import TemporalEventSet

        events = TemporalEventSet(
            [0, 1, 2, 3, 4, 5, 6], [1, 2, 0, 4, 5, 3, 6],
            [1, 2, 3, 4, 5, 6, 7],
        )
        adj = TemporalAdjacency.from_events(events)
        got = component_sizes(adj.window_view(Window(0, 0, 10)))
        # two triangles plus a vertex whose only event is a self-loop
        assert got.tolist() == [3, 3, 3, 3, 3, 3, 1]


class TestKCore:
    def test_matches_networkx(self, adjacency, spec):
        nx = pytest.importorskip("networkx")
        view = adjacency.window_view(spec.window(2))
        got = core_numbers(view)
        g = nx.Graph()
        compact = view.compact_graph()
        src, dst = compact.edges()
        g.add_edges_from(
            (int(u), int(v)) for u, v in zip(src, dst) if u != v
        )
        ref = nx.core_number(g)
        for v, k in ref.items():
            assert got[v] == k, v

    def test_clique_core(self):
        from repro.events import TemporalEventSet

        # K4: everyone has core number 3
        src, dst, t = [], [], []
        for i in range(4):
            for j in range(4):
                if i != j:
                    src.append(i)
                    dst.append(j)
                    t.append(len(t))
        events = TemporalEventSet(src, dst, t)
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 100))
        assert core_numbers(view).tolist() == [3, 3, 3, 3]
        assert core_numbers(view).max() == 3

    def test_path_core_one(self):
        from repro.events import TemporalEventSet

        events = TemporalEventSet([0, 1, 2], [1, 2, 3], [1, 2, 3])
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 10))
        assert core_numbers(view).tolist() == [1, 1, 1, 1]

    def test_empty_window(self, adjacency):
        view = adjacency.window_view(Window(0, 10**9, 10**9 + 1))
        assert not core_numbers(view).any()


class TestKatz:
    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        events = random_events(n_vertices=25, n_events=250, seed=45)
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 10_000))
        cfg = KatzConfig(attenuation=0.05, tolerance=1e-12,
                         max_iterations=1000, auto_clamp=False)
        ours = katz_window(view, cfg)

        g = nx.DiGraph()
        compact = view.compact_graph()
        src, dst = compact.edges()
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        ref = nx.katz_centrality(
            g, alpha=0.05, beta=1.0, tol=1e-14, max_iter=5000,
            normalized=False,
        )
        # compare rankings after normalizing both to unit L1 mass
        ref_vec = np.zeros(events.n_vertices)
        for v, s in ref.items():
            ref_vec[v] = s
        ref_vec /= ref_vec.sum()
        active = view.active_vertices_mask
        assert np.allclose(ours.values[active], ref_vec[active], atol=1e-6)

    def test_converges_and_positive(self, adjacency, spec):
        for w in spec:
            view = adjacency.window_view(w)
            r = katz_window(view)
            assert r.converged
            active = view.active_vertices_mask
            assert np.all(r.values[active] > 0)
            assert np.all(r.values[~active] == 0)
            if view.n_active_vertices:
                assert r.values.sum() == pytest.approx(1.0, abs=1e-8)

    def test_auto_clamp_guarantees_convergence(self, adjacency, spec):
        cfg = KatzConfig(attenuation=0.9, auto_clamp=True,
                         max_iterations=500)
        view = adjacency.window_view(spec.window(0))
        r = katz_window(view, cfg)
        assert r.converged

    def test_warm_start_helps_or_equal(self, adjacency, spec):
        cfg = KatzConfig(tolerance=1e-11, max_iterations=500)
        v0 = adjacency.window_view(spec.window(0))
        v1 = adjacency.window_view(spec.window(1))
        prev = katz_window(v0, cfg)
        x0 = katz_partial_init(v1, v0, prev.values)
        warm = katz_window(v1, cfg, x0=x0)
        cold = katz_window(v1, cfg)
        assert np.allclose(warm.values, cold.values, atol=1e-8)
        assert warm.iterations <= cold.iterations + 1

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            KatzConfig(attenuation=0.0)
        with pytest.raises(ValidationError):
            KatzConfig(base=0.0)


class TestProgramDriver:
    """Non-PageRank analytics run through ``make_driver`` like PageRank."""

    def test_runs_all_windows(self, events, spec):
        run = make_driver(
            "postmortem", events, spec, program="components",
            postmortem_options=PostmortemOptions(n_multiwindows=3),
        ).run()
        assert len(run.windows) == spec.n_windows
        assert run.metadata["program"] == "components"
        assert np.all(run.values_matrix() >= 0)

    def test_values_in_global_space(self, events, spec):
        run = make_driver(
            "postmortem", events, spec, program="kcore",
            postmortem_options=PostmortemOptions(n_multiwindows=3),
        ).run()
        for w in run.windows:
            assert w.values.shape == (events.n_vertices,)

    def test_matches_full_adjacency(self, events, spec, adjacency):
        """Multi-window graphs solve in compacted local ids; scattered back
        to the global space they equal the single full-adjacency view."""
        for name, solve in (
            ("kcore", core_numbers),
            ("components", component_sizes),
        ):
            run = make_driver(
                "postmortem", events, spec, program=name,
                postmortem_options=PostmortemOptions(n_multiwindows=4),
            ).run()
            for w in spec:
                direct = solve(adjacency.window_view(w))
                np.testing.assert_array_equal(
                    run.windows[w.index].values, direct
                )
