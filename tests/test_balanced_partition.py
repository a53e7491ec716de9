"""Unit + property tests for cost-balanced multi-window partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import get_profile
from repro.errors import ValidationError
from repro.events import TemporalEventSet, WindowSpec
from repro.graph import (
    BalancedMultiWindowPartition,
    LazyMultiWindowPartition,
    balanced_boundaries,
    greedy_boundaries,
    window_event_counts,
)
from repro.graph.balanced import run_work
from repro.models import OfflineDriver, PostmortemDriver, PostmortemOptions
from repro.pagerank import PagerankConfig
from tests.conftest import random_events


@pytest.fixture
def spiky():
    """Events concentrated in one burst: the case where uniform window
    splits are maximally imbalanced."""
    rng = np.random.default_rng(17)
    n = 2_000
    # 80% of events in the middle 10% of the time span
    t_burst = rng.integers(45_000, 55_000, int(n * 0.8))
    t_rest = rng.integers(0, 100_000, n - t_burst.size)
    t = np.sort(np.concatenate([t_burst, t_rest]))
    src = rng.integers(0, 50, n)
    dst = (src + 1 + rng.integers(0, 48, n)) % 50
    return TemporalEventSet(src, dst, t, n_vertices=50)


class TestBoundaries:
    def test_window_event_counts(self, events, spec):
        counts = window_event_counts(events, spec)
        for w in spec:
            assert counts[w.index] == events.count_between(
                w.t_start, w.t_end
            )

    def test_boundaries_are_a_partition(self, spiky):
        spec = WindowSpec.covering(spiky, delta=8_000, sw=2_000)
        for fn in (balanced_boundaries, greedy_boundaries):
            b = fn(spiky, spec, 5)
            assert b[0] == 0 and b[-1] == spec.n_windows
            assert all(x < y for x, y in zip(b, b[1:]))

    def test_minimax_beats_uniform_on_spiky_data(self, spiky):
        spec = WindowSpec.covering(spiky, delta=8_000, sw=2_000)
        balanced = BalancedMultiWindowPartition(spiky, spec, 6)
        uniform = LazyMultiWindowPartition(spiky, spec, 6)
        uniform_max = max(
            run_work(spiky, spec, g.first_window,
                     g.first_window + g.n_windows)
            for g in uniform
        )
        assert balanced.max_run_work() <= uniform_max

    def test_minimax_is_optimal_vs_bruteforce(self):
        """Exhaustively check tiny instances against all contiguous
        partitions."""
        from itertools import combinations

        events = random_events(n_vertices=10, n_events=120, t_max=1_000,
                               seed=19)
        spec = WindowSpec.covering(events, delta=200, sw=120)
        n = spec.n_windows
        for parts in (2, 3):
            got = balanced_boundaries(events, spec, parts)
            got_max = max(
                run_work(events, spec, a, b)
                for a, b in zip(got[:-1], got[1:])
            )
            best = None
            for cuts in combinations(range(1, n), parts - 1):
                b = [0, *cuts, n]
                val = max(
                    run_work(events, spec, x, y)
                    for x, y in zip(b[:-1], b[1:])
                )
                best = val if best is None else min(best, val)
            assert got_max == best, (parts, got)

    def test_single_part(self, events, spec):
        assert balanced_boundaries(events, spec, 1) == [0, spec.n_windows]

    def test_rejects_nonpositive(self, events, spec):
        with pytest.raises(ValidationError):
            balanced_boundaries(events, spec, 0)

    @given(st.integers(2, 10), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_property_partition_valid(self, seed, parts):
        events = random_events(n_vertices=15, n_events=200, t_max=5_000,
                               seed=seed)
        spec = WindowSpec.covering(events, delta=1_500, sw=400)
        b = balanced_boundaries(events, spec, parts)
        assert b[0] == 0 and b[-1] == spec.n_windows
        assert len(b) - 1 <= max(parts, 1)
        assert all(x < y for x, y in zip(b, b[1:]))


class TestBalancedPartitionInDriver:
    @pytest.mark.parametrize("method", ["minimax", "greedy"])
    def test_same_pagerank_as_uniform(self, method):
        events = random_events(n_vertices=30, n_events=600, seed=23)
        spec = WindowSpec.covering(events, delta=2_500, sw=700)
        cfg = PagerankConfig(tolerance=1e-12, max_iterations=300)
        baseline = OfflineDriver(events, spec, cfg).run()
        run = PostmortemDriver(
            events,
            spec,
            cfg,
            PostmortemOptions(n_multiwindows=4, partition_method=method),
        ).run()
        assert baseline.max_difference(run) < 1e-9

    def test_covers_all_windows(self, spiky):
        spec = WindowSpec.covering(spiky, delta=8_000, sw=2_000)
        part = BalancedMultiWindowPartition(spiky, spec, 5)
        covered = sorted(
            w for g in part for w in g.window_indices()
        )
        assert covered == list(range(spec.n_windows))
        for w in range(spec.n_windows):
            assert w in part.graph_of(w).window_indices()

    def test_profiles_smoke(self):
        events = get_profile("ia-enron-email").generate(scale=0.05)
        spec = WindowSpec.covering_days(events, 730, 86_400 * 60)
        part = BalancedMultiWindowPartition(events, spec, 4)
        assert part.max_run_work() > 0

    def test_invalid_method(self, spiky):
        spec = WindowSpec.covering(spiky, delta=8_000, sw=2_000)
        with pytest.raises(ValidationError):
            BalancedMultiWindowPartition(spiky, spec, 3, method="dp")
        with pytest.raises(ValidationError):
            PostmortemOptions(partition_method="dp")
