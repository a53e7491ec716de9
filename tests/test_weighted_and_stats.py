"""Tests for weighted PageRank."""

import numpy as np
import pytest

from repro.events import TemporalEventSet, Window
from repro.graph import TemporalAdjacency
from repro.pagerank import PagerankConfig, pagerank_window
from repro.pagerank.weighted import pagerank_window_weighted
from tests.dense_mask_reference import in_dedup, pair_multiplicities

CFG = PagerankConfig(tolerance=1e-12, max_iterations=400)


class TestMultiplicities:
    def test_counts_multiplicities(self):
        # (0 -> 1) three times, twice inside the window; (0 -> 2) once
        events = TemporalEventSet(
            [0, 0, 0, 0], [1, 1, 1, 2], [5, 10, 50, 12]
        )
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 20))
        groups = adj.groups
        ag = view.active_groups
        # in-orientation groups: row = destination, col = source
        got = {
            (int(groups.col[g]), int(groups.row[g])): int(m)
            for g, m in zip(ag, view.multiplicities)
        }
        assert got == {(0, 1): 2, (0, 2): 1}

    def test_match_numpy_oracle(self, adjacency, spec):
        groups = adjacency.groups
        for w in spec:
            view = adjacency.window_view(w)
            rows, cols, counts = pair_multiplicities(
                adjacency.in_csr, w.t_start, w.t_end
            )
            ag = view.active_groups
            np.testing.assert_array_equal(groups.row[ag], rows)
            np.testing.assert_array_equal(groups.col[ag], cols)
            np.testing.assert_array_equal(view.multiplicities, counts)

    def test_total_weight_equals_active_events(self, adjacency, spec):
        for w in spec:
            view = adjacency.window_view(w)
            active = adjacency.in_csr.active_mask(w.t_start, w.t_end)
            assert view.multiplicities.sum() == active.sum()

    def test_empty_structure(self):
        events = TemporalEventSet([], [], [], n_vertices=3)
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 10))
        assert view.multiplicities.size == 0
        assert in_dedup(view).size == 0


class TestWeightedPagerank:
    def test_equals_unweighted_when_no_duplicates(self):
        # distinct (u, v) pairs only -> all multiplicities are 1
        events = TemporalEventSet(
            [0, 1, 2, 3], [1, 2, 3, 0], [1, 2, 3, 4]
        )
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 10))
        a = pagerank_window(view, CFG)
        b = pagerank_window_weighted(view, CFG)
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_matches_networkx_weighted(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(83)
        n, m = 20, 300
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        t = np.sort(rng.integers(0, 1_000, int(keep.sum())))
        events = TemporalEventSet(src[keep], dst[keep], t, n_vertices=n)
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 1_000))
        ours = pagerank_window_weighted(view, CFG)

        g = nx.DiGraph()
        for u, v in zip(events.src.tolist(), events.dst.tolist()):
            if g.has_edge(u, v):
                g[u][v]["weight"] += 1.0
            else:
                g.add_edge(u, v, weight=1.0)
        ref = nx.pagerank(g, alpha=CFG.damping, tol=1e-14, max_iter=2000,
                          weight="weight")
        for v, s in ref.items():
            assert ours.values[v] == pytest.approx(s, abs=1e-8), v

    def test_multiplicity_shifts_rank(self):
        # v1 and v2 both receive from v0, but v0 -> v1 fires 9 times
        rows = [(0, 1, t) for t in range(9)] + [
            (0, 2, 9), (1, 0, 10), (2, 0, 11),
        ]
        events = TemporalEventSet(
            [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
        )
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 20))
        unweighted = pagerank_window(view, CFG)
        weighted = pagerank_window_weighted(view, CFG)
        # unweighted treats v1 and v2 symmetrically
        assert unweighted.values[1] == pytest.approx(unweighted.values[2])
        # weighted favours the high-multiplicity target
        assert weighted.values[1] > weighted.values[2]

    def test_mass_conserved(self, adjacency, spec):
        for w in spec:
            view = adjacency.window_view(w)
            r = pagerank_window_weighted(view, CFG)
            if view.n_active_vertices:
                assert r.total_mass == pytest.approx(1.0, abs=1e-8)
