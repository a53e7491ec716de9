"""Fault-injection tests: corrupted structures and hostile inputs must be
*detected*, not silently produce wrong analysis results."""

import numpy as np
import pytest

from repro.errors import (
    GraphBuildError,
    SchedulerError,
    ValidationError,
)
from repro.events import TemporalEventSet, Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.graph.temporal_csr import TemporalCSR
from repro.pagerank import PagerankConfig, pagerank_window
from repro.streaming.edge_blocks import EdgeBlockAdjacency
from tests.conftest import random_events


class TestCorruptedEdgeBlocks:
    def test_stale_min_time_detected(self):
        adj = EdgeBlockAdjacency(3)
        adj.insert_batch(np.array([0]), np.array([1]), np.array([50]))
        adj._min_time[0] = 100  # corrupt the ageing cache
        with pytest.raises(ValidationError, match="stale"):
            adj.check_invariants()

    def test_counter_drift_detected(self):
        adj = EdgeBlockAdjacency(3)
        adj.insert_batch(np.array([0, 1]), np.array([1, 2]),
                         np.array([1, 2]))
        adj._n_entries = 5  # corrupt the entry counter
        with pytest.raises(ValidationError, match="counter"):
            adj.check_invariants()

    def test_bad_fill_detected(self):
        adj = EdgeBlockAdjacency(2)
        adj.insert_batch(np.array([0]), np.array([1]), np.array([1]))
        adj._fill[adj._tail[0]] = 999  # corrupt the pool's fill array
        with pytest.raises(ValidationError, match="fill"):
            adj.check_invariants()

    def test_corrupt_tail_detected(self):
        adj = EdgeBlockAdjacency(3, block_size=1)
        adj.insert_batch(np.array([0, 0]), np.array([1, 2]),
                         np.array([1, 2]))
        first, newest = np.flatnonzero(adj._owner == 0)[
            np.argsort(adj._seq[adj._owner == 0])
        ]
        assert adj._tail[0] == newest
        adj._tail[0] = first  # owned and live, but not the newest block
        with pytest.raises(ValidationError, match="tail"):
            adj.check_invariants()

    def test_double_free_detected(self):
        adj = EdgeBlockAdjacency(3, block_size=2)
        adj.insert_batch(np.array([0, 1]), np.array([1, 2]),
                         np.array([1, 2]))
        adj.expire_before(2)  # frees vertex 0's block
        freed = adj._free[-1]
        adj._free = np.append(adj._free, freed)
        with pytest.raises(ValidationError, match="free list twice"):
            adj.check_invariants()

    def test_filled_free_block_detected(self):
        adj = EdgeBlockAdjacency(3, block_size=2)
        adj.insert_batch(np.array([0]), np.array([1]), np.array([1]))
        adj.expire_before(5)
        adj._fill[adj._free[-1]] = 1
        with pytest.raises(ValidationError, match="free block"):
            adj.check_invariants()

    def test_free_and_owned_block_detected(self):
        adj = EdgeBlockAdjacency(3, block_size=2)
        adj.insert_batch(np.array([0]), np.array([1]), np.array([1]))
        adj._free = np.append(adj._free, adj._tail[0])
        with pytest.raises(ValidationError, match="free and owned"):
            adj.check_invariants()

    def test_out_of_range_owner_detected(self):
        adj = EdgeBlockAdjacency(3, block_size=2)
        adj.insert_batch(np.array([0]), np.array([1]), np.array([1]))
        adj._owner[adj._tail[0]] = 3
        with pytest.raises(ValidationError, match="out-of-range owner"):
            adj.check_invariants()


class TestMalformedStructures:
    def test_temporal_csr_size_mismatch(self):
        with pytest.raises(GraphBuildError):
            TemporalCSR(
                np.array([0, 2]), np.array([0]), np.array([1, 2]), 1
            )

    def test_nan_in_x0_does_not_go_unnoticed(self, adjacency, spec):
        """A NaN warm start must not silently converge: the residual is
        NaN, so the solver reports non-convergence."""
        view = adjacency.window_view(spec.window(0))
        x0 = np.zeros(adjacency.n_vertices)
        x0[0] = np.nan
        result = pagerank_window(
            view, PagerankConfig(max_iterations=5), x0=x0
        )
        assert not result.converged


class TestHostileInputs:
    def test_timestamp_overflow_range(self):
        # near-int64-max timestamps must not wrap in window arithmetic
        big = np.iinfo(np.int64).max // 4
        events = TemporalEventSet([0, 1], [1, 0], [big, big + 1000])
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, big, big + 1000))
        assert view.n_active_edges == 2

    def test_duplicate_heavy_multigraph(self):
        # 500 copies of one edge: still a single simple edge per window
        events = TemporalEventSet(
            np.zeros(500, dtype=int),
            np.ones(500, dtype=int),
            np.arange(500),
        )
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, 499))
        assert view.n_active_edges == 1
        r = pagerank_window(view, PagerankConfig(tolerance=1e-12,
                                                 max_iterations=200))
        assert r.converged

    def test_star_graph_hub(self):
        # extreme degree skew: hub with 200 spokes
        n = 201
        events = TemporalEventSet(
            np.arange(1, n), np.zeros(n - 1, dtype=int),
            np.arange(n - 1),
        )
        adj = TemporalAdjacency.from_events(events)
        view = adj.window_view(Window(0, 0, n))
        r = pagerank_window(view, PagerankConfig(tolerance=1e-12,
                                                 max_iterations=200))
        assert r.converged
        # the hub dominates
        assert int(np.argmax(r.values)) == 0

    def test_scheduler_rejects_nan_costs(self):
        from repro.parallel.simulator import simulate_chunk_schedule

        with pytest.raises(SchedulerError):
            simulate_chunk_schedule(np.array([1.0, -5.0]), 2)

    def test_single_event_dataset(self):
        events = TemporalEventSet([3], [7], [42])
        spec = WindowSpec.covering(events, delta=10, sw=5)
        from repro.models import PostmortemDriver

        run = PostmortemDriver(events, spec).run()
        assert run.all_converged
        assert run.windows[0].n_active_edges == 1
