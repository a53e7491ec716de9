"""Unit tests for multi-window partitioning."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.graph import LazyMultiWindowPartition, TemporalAdjacency
from tests.conftest import random_events


@pytest.fixture
def setup():
    events = random_events(n_vertices=30, n_events=500, seed=31)
    spec = WindowSpec.covering(events, delta=2_500, sw=700)
    return events, spec


class TestPartitioning:
    def test_covers_all_windows(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 4)
        covered = []
        for g in part:
            covered.extend(g.window_indices())
        assert sorted(covered) == list(range(spec.n_windows))

    def test_uniform_distribution(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 3)
        sizes = [g.n_windows for g in part]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == spec.n_windows

    def test_clamps_to_window_count(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, spec.n_windows * 5)
        assert len(part) == spec.n_windows
        assert all(g.n_windows == 1 for g in part)

    def test_single_partition_holds_everything(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 1)
        assert len(part) == 1
        assert part[0].nnz == len(events)

    def test_rejects_nonpositive(self, setup):
        events, spec = setup
        with pytest.raises(ValidationError):
            LazyMultiWindowPartition(events, spec, 0)

    def test_owner_routing(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 4)
        for w in range(spec.n_windows):
            g = part.graph_of(w)
            assert w in g.window_indices()
        with pytest.raises(ValidationError):
            part.owner_of(spec.n_windows)

    def test_replication_at_least_boundary_truncated(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 4)
        # stored events never exceed events x partitions and the overlap
        # duplication makes Σ|E_w| at least the events inside any window
        assert part.total_stored_events <= len(events) * 4
        assert part.replication_factor > 0
        # the partition holds recipes only; each built graph holds arrays
        assert part.memory_bytes() == 0
        assert all(g.memory_bytes() > 0 for g in part)


class TestLocalViews:
    def test_window_views_match_full_adjacency(self, setup):
        events, spec = setup
        full = TemporalAdjacency.from_events(events)
        part = LazyMultiWindowPartition(events, spec, 3)
        for w in spec:
            local = part.window_view(w.index)
            reference = full.window_view(w)
            assert local.n_active_edges == reference.n_active_edges
            assert local.n_active_vertices == reference.n_active_vertices

    def test_local_edges_map_to_global(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 3)
        w = spec.window(2)
        g = part.graph_of(2)
        view = g.window_view(2)
        local_g = view.compact_graph()
        ls, ld = local_g.edges()
        got = set(
            zip(g.global_ids[ls].tolist(), g.global_ids[ld].tolist())
        )
        mask = (events.time >= w.t_start) & (events.time <= w.t_end)
        expected = set(
            zip(events.src[mask].tolist(), events.dst[mask].tolist())
        )
        assert got == expected

    def test_to_global_scatter(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 3)
        g = part[0]
        local = np.arange(g.n_local_vertices, dtype=np.float64) + 1
        out = g.to_global(local, events.n_vertices)
        assert out.shape == (events.n_vertices,)
        assert np.allclose(out[g.global_ids], local)
        others = np.setdiff1d(
            np.arange(events.n_vertices), g.global_ids
        )
        assert np.all(out[others] == 0)

    def test_compaction_is_the_sorted_union_relabel(self, setup):
        # ids are the slice's vertices ascending and local ids their
        # ranks: what np.union1d + np.searchsorted give, dtype included
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 3)
        for g in range(len(part)):
            _, _, lo, hi = part.graph_payload(g)
            src, dst = events.src[lo:hi], events.dst[lo:hi]
            ids = np.union1d(src, dst)
            graph = part.graph_at(g)
            assert graph.global_ids.dtype == ids.dtype
            np.testing.assert_array_equal(graph.global_ids, ids)
            local = graph.adjacency.in_csr
            rows = local.row_ids()
            got = sorted(zip(ids[local.col].tolist(), ids[rows].tolist(),
                             local.time.tolist()))
            assert got == sorted(zip(src.tolist(), dst.tolist(),
                                     events.time[lo:hi].tolist()))

    def test_local_window_rejects_foreign_index(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 3)
        g = part[0]
        foreign = part[1].first_window
        with pytest.raises(ValidationError):
            g.local_window(foreign)

    def test_subspec_timing_preserved(self, setup):
        events, spec = setup
        part = LazyMultiWindowPartition(events, spec, 4)
        for g in part:
            for w_idx in g.window_indices():
                local = g.local_window(w_idx)
                glob = spec.window(w_idx)
                assert local.t_start == glob.t_start
                assert local.t_end == glob.t_end
                assert local.index == w_idx
