"""Unit tests for the temporal CSR representation, including the paper's
worked example (Figures 2 and 3)."""

import numpy as np
import pytest

from repro.errors import GraphBuildError
from repro.events import Window
from repro.graph import TemporalAdjacency, TemporalCSR, build_csr_from_edges
from repro.graph.temporal_csr import _build_orientation
from tests.conftest import random_events


def brute_force_window_edges(events, t_start, t_end):
    """Reference: the set of simple edges active in a window."""
    mask = (events.time >= t_start) & (events.time <= t_end)
    return set(zip(events.src[mask].tolist(), events.dst[mask].tolist()))


def dedup_edges(adj, t_start, t_end):
    """The window's ``(src, dst)`` simple edges from the Θ(nnz)
    in-orientation dedup mask: rows are destinations, so swap them."""
    dedup = adj.in_csr.dedup_mask(t_start, t_end)
    return adj.in_csr.col[dedup], adj.in_csr.row_ids()[dedup]


class TestStructure:
    def test_neighbors_sorted_by_neighbor_then_time(self, events):
        adj = TemporalAdjacency.from_events(events)
        csr = adj.in_csr
        for v in range(csr.n_rows):
            lo, hi = csr.indptr[v], csr.indptr[v + 1]
            cols = csr.col[lo:hi]
            times = csr.time[lo:hi]
            # neighbor ids non-decreasing; times non-decreasing in groups
            assert np.all(np.diff(cols) >= 0)
            for c in np.unique(cols):
                assert np.all(np.diff(times[cols == c]) >= 0)

    def test_nnz_preserved(self, events):
        adj = TemporalAdjacency.from_events(events)
        assert adj.nnz == len(events)
        assert adj.in_csr.nnz == len(events)

    def test_group_starts(self):
        csr = _build_orientation(
            np.array([0, 0, 0, 1]),
            np.array([1, 1, 2, 1]),
            np.array([5, 9, 1, 2]),
            2,
        )
        # groups: (0,1) x2, (0,2), (1,1)
        assert csr.group_start.tolist() == [True, False, True, True]
        assert csr.n_groups == 3

    def test_group_start_at_row_boundary_same_col(self):
        # last neighbor of row 0 equals first neighbor of row 1: still a
        # new group because the row changed
        csr = _build_orientation(
            np.array([0, 1]), np.array([3, 3]), np.array([1, 2]), 2
        )
        assert csr.group_start.tolist() == [True, True]

    def test_invalid_sizes(self):
        with pytest.raises(GraphBuildError):
            TemporalCSR(np.array([0, 1]), np.array([0]), np.array([1, 2]), 1)
        with pytest.raises(GraphBuildError):
            TemporalCSR(np.array([0, 2]), np.array([0]), np.array([1]), 1)

    def test_memory_bytes_positive(self, adjacency):
        assert adjacency.memory_bytes() > 0


class TestWindowMasks:
    def test_active_mask_inclusive(self):
        csr = _build_orientation(
            np.array([0, 0]), np.array([1, 1]), np.array([10, 20]), 2
        )
        assert csr.active_mask(10, 20).tolist() == [True, True]
        assert csr.active_mask(11, 19).tolist() == [False, False]

    def test_dedup_selects_one_per_group(self):
        # one (0 -> 1) group with three events, two inside the window
        csr = _build_orientation(
            np.array([0, 0, 0]),
            np.array([1, 1, 1]),
            np.array([5, 10, 15]),
            2,
        )
        dedup = csr.dedup_mask(8, 20)
        assert dedup.tolist() == [False, True, False]

    def test_dedup_matches_bruteforce(self):
        events = random_events(n_vertices=25, n_events=300, seed=21)
        adj = TemporalAdjacency.from_events(events)
        for t0, t1 in [(0, 2_000), (3_000, 7_000), (9_000, 10_000), (0, 10_000)]:
            src, dst = dedup_edges(adj, t0, t1)
            got = set(zip(src.tolist(), dst.tolist()))
            assert got == brute_force_window_edges(events, t0, t1)

    def test_degrees_match_compact(self):
        events = random_events(n_vertices=20, n_events=200, seed=22)
        adj = TemporalAdjacency.from_events(events)
        deg = adj.in_csr.degrees(1_000, 6_000)
        src, dst = dedup_edges(adj, 1_000, 6_000)
        compact = build_csr_from_edges(dst, src, adj.n_vertices)
        assert deg.tolist() == compact.out_degrees().tolist()

    def test_empty_window(self, adjacency):
        deg = adjacency.in_csr.degrees(10**9, 2 * 10**9)
        assert deg.sum() == 0


class TestWindowView:
    def test_counts(self, events, spec, adjacency):
        w = spec.window(1)
        view = adjacency.window_view(w)
        edges = brute_force_window_edges(events, w.t_start, w.t_end)
        assert view.n_active_edges == len(edges)
        vertices = {u for u, v in edges} | {v for u, v in edges}
        assert view.n_active_vertices == len(vertices)

    def test_compact_graph_matches_events(self, events, spec, adjacency):
        w = spec.window(2)
        view = adjacency.window_view(w)
        g = view.compact_graph()
        s, d = g.edges()
        assert set(zip(s.tolist(), d.tolist())) == brute_force_window_edges(
            events, w.t_start, w.t_end
        )


class TestPaperExample:
    """The worked example of Figures 2a/2b: 14 events, 3 intervals."""

    T1 = (0, 106)    # 6/1/2021 .. 9/15/2021
    T2 = (30, 136)   # 7/1/2021 .. 10/15/2021
    T3 = (61, 228)   # 8/1/2021 .. 1/15/2022

    EXPECTED = {
        T1: {(1, 2), (3, 5), (4, 6), (2, 3), (2, 4), (5, 6)},
        T2: {(4, 6), (2, 3), (2, 4), (5, 6), (2, 7), (4, 7), (5, 7), (6, 7)},
        T3: {
            (2, 3), (2, 4), (5, 6), (2, 7), (4, 7), (5, 7), (6, 7),
            (1, 2), (1, 3), (2, 5), (3, 5),
        },
    }

    def test_interval_edge_sets(self, paper_example_events):
        adj = TemporalAdjacency.from_events(paper_example_events)
        for (t0, t1), expected in self.EXPECTED.items():
            src, dst = dedup_edges(adj, t0, t1)
            assert set(zip(src.tolist(), dst.tolist())) == expected

    def test_duplicate_edge_once_per_window(self, paper_example_events):
        # (1, 2) occurs at days 20 and 157; a window covering both must
        # still yield a single simple edge
        adj = TemporalAdjacency.from_events(paper_example_events)
        view = adj.window_view(Window(index=0, t_start=0, t_end=200))
        g = view.compact_graph()
        assert g.neighbors(1).tolist() == [2, 3]

    def test_active_counts(self, paper_example_events):
        adj = TemporalAdjacency.from_events(paper_example_events)
        view = adj.window_view(Window(0, *self.T1))
        assert view.n_active_edges == 6
        assert view.n_active_vertices == 6  # vertices 1..6, not 7
