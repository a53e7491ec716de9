"""Integration tests: the three execution models must compute identical
PageRank time series on the paper's dataset profiles, end to end."""

import numpy as np
import pytest

from repro.analysis import compare_models, spearman_rank_correlation
from repro.datasets import get_profile
from repro.events import WindowSpec
from repro.models import OfflineDriver, PostmortemDriver, PostmortemOptions
from repro.pagerank import PagerankConfig
from repro.streaming import StreamingDriver

CFG = PagerankConfig(tolerance=1e-11, max_iterations=300)


@pytest.fixture(scope="module")
def instance():
    events = get_profile("wiki-talk").generate(scale=0.08)
    spec = WindowSpec.covering_days(events, 90, 86_400 * 45)
    return events, spec


class TestModelEquivalence:
    def test_three_models_agree(self, instance):
        events, spec = instance
        off = OfflineDriver(events, spec, CFG).run()
        stream = StreamingDriver(events, spec, CFG).run()
        pm = PostmortemDriver(events, spec, CFG).run()
        assert off.max_difference(pm) < 1e-8
        assert stream.max_difference(pm) < 1e-8
        assert off.all_converged and stream.all_converged and pm.all_converged

    @pytest.mark.parametrize(
        "opts",
        [
            PostmortemOptions(n_multiwindows=1),
            PostmortemOptions(n_multiwindows=3, kernel="spmm",
                              vector_length=4),
            PostmortemOptions(n_multiwindows=6, kernel="spmm",
                              vector_length=16, partial_init=False),
            PostmortemOptions(n_multiwindows=2, executor="shared",
                              n_threads=2),
        ],
        ids=["single-mw", "spmm-4", "spmm-16-coldinit", "shared"],
    )
    def test_postmortem_configs_agree(self, instance, opts):
        events, spec = instance
        baseline = PostmortemDriver(events, spec, CFG).run()
        other = PostmortemDriver(events, spec, CFG, opts).run()
        assert baseline.max_difference(other) < 1e-8

    def test_profiles_smoke(self):
        """Every dataset profile runs end-to-end under all three models."""
        for name in ("ia-enron-email", "epinions-user-ratings"):
            profile = get_profile(name)
            events = profile.generate(scale=0.05)
            delta = profile.window_sizes_days[0]
            spec = WindowSpec.covering_days(
                events, delta, profile.sliding_offsets[0] * 40
            )
            t = compare_models(events, spec, CFG, check_agreement=True)
            assert t.n_windows == spec.n_windows


class TestTimeSeriesProperties:
    def test_consecutive_windows_correlated(self, instance):
        """Overlapping windows must produce similar rankings — the property
        partial initialization exploits."""
        events, spec = instance
        run = PostmortemDriver(events, spec, CFG).run()
        # only compare when both windows have meaningful activity
        for a, b in zip(run.windows[3:-1], run.windows[4:]):
            if min(a.n_active_edges, b.n_active_edges) < 50:
                continue
            shared = (a.values > 0) & (b.values > 0)
            if shared.sum() < 20:
                continue
            rho = spearman_rank_correlation(
                a.values[shared], b.values[shared]
            )
            # at 50% window overlap on sparse scaled instances the rank
            # correlation is moderate but always clearly positive
            assert rho > 0.2, (a.window_index, rho)

    def test_iterations_bounded(self, instance):
        events, spec = instance
        run = PostmortemDriver(events, spec, CFG).run(store_values=False)
        for w in run.windows:
            assert w.iterations <= CFG.max_iterations

    def test_work_stats_aggregate(self, instance):
        events, spec = instance
        run = PostmortemDriver(events, spec, CFG).run(store_values=False)
        assert run.work.iterations == run.total_iterations
        assert run.work.edge_traversals > 0
