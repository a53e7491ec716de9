"""Unit tests for dataset generators, profiles and the registry."""

import numpy as np
import pytest

from repro.analysis import distribution_summary
from repro.datasets import (
    DatasetRegistry,
    PROFILES,
    RateCurve,
    bipartite_endpoints,
    burst_decay_rate,
    bursty_steady_rate,
    generate_events,
    get_profile,
    growth_rate,
    irregular_rate,
    list_profiles,
    preferential_attachment_endpoints,
    spike_rate,
)
from repro.errors import DatasetError


class TestRateCurves:
    def test_sampling_follows_curve(self):
        rng = np.random.default_rng(0)
        curve = RateCurve(np.array([1.0, 0.0, 9.0]))
        t = curve.sample_times(3_000, 0, 300, rng)
        assert np.all(np.diff(t) >= 0)  # sorted
        first = int((t < 100).sum())
        mid = int(((t >= 100) & (t < 200)).sum())
        last = int((t >= 200).sum())
        assert mid == 0
        assert last > 5 * first

    def test_bounds_respected(self):
        rng = np.random.default_rng(1)
        t = growth_rate().sample_times(500, 100, 200, rng)
        assert t.min() >= 100 and t.max() <= 200

    def test_rejects_bad_weights(self):
        with pytest.raises(DatasetError):
            RateCurve(np.array([]))
        with pytest.raises(DatasetError):
            RateCurve(np.array([-1.0, 1.0]))
        with pytest.raises(DatasetError):
            RateCurve(np.array([0.0, 0.0]))

    def test_rejects_bad_range(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DatasetError):
            growth_rate().sample_times(10, 50, 50, rng)

    def test_shapes_classify_correctly(self):
        """Each Figure 4 shape generator must produce its intended
        qualitative class."""
        rng_seed = 9

        def make(curve):
            return generate_events(
                20_000, 500, curve, 0, 10**6, seed=rng_seed
            )

        assert distribution_summary(make(spike_rate())).shape_class == "spike"
        assert (
            distribution_summary(make(growth_rate())).shape_class == "growth"
        )
        steady = distribution_summary(make(bursty_steady_rate()))
        assert steady.shape_class in ("steady", "bursty")
        burst = distribution_summary(make(burst_decay_rate()))
        assert burst.peak_to_mean > 2.0
        irr = distribution_summary(make(irregular_rate()))
        assert irr.gini > 0.1


class TestEndpointSamplers:
    def test_preferential_no_self_loops(self):
        rng = np.random.default_rng(3)
        src, dst = preferential_attachment_endpoints(5_000, 100, rng)
        assert not np.any(src == dst)
        assert src.min() >= 0 and dst.max() < 100

    def test_preferential_heavy_tail(self):
        rng = np.random.default_rng(4)
        src, _ = preferential_attachment_endpoints(20_000, 200, rng, skew=1.0)
        counts = np.bincount(src, minlength=200)
        # the most popular vertex dominates the median vertex
        assert counts.max() > 10 * max(np.median(counts), 1)

    def test_bipartite_direction(self):
        rng = np.random.default_rng(5)
        src, dst = bipartite_endpoints(1_000, 40, 60, rng)
        assert src.max() < 40
        assert dst.min() >= 40 and dst.max() < 100

    def test_rejects_tiny(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DatasetError):
            preferential_attachment_endpoints(10, 1, rng)


class TestGenerateEvents:
    def test_deterministic(self):
        a = generate_events(500, 50, growth_rate(), 0, 10_000, seed=7)
        b = generate_events(500, 50, growth_rate(), 0, 10_000, seed=7)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_events(500, 50, growth_rate(), 0, 10_000, seed=7)
        b = generate_events(500, 50, growth_rate(), 0, 10_000, seed=8)
        assert a != b

    def test_symmetric(self):
        es = generate_events(
            100, 20, growth_rate(), 0, 1_000, seed=9, symmetric=True
        )
        assert len(es) == 200
        pairs = set(zip(es.src.tolist(), es.dst.tolist()))
        assert all((v, u) in pairs for u, v in pairs)


class TestProfiles:
    def test_all_seven_present(self):
        names = list_profiles()
        # seven paper datasets, each with an out-of-core -xl variant
        assert len(names) == 14
        for expected in (
            "ca-cit-HepTh",
            "stackoverflow",
            "askubuntu",
            "youtube-growth",
            "epinions-user-ratings",
            "ia-enron-email",
            "wiki-talk",
        ):
            assert expected in names
            assert f"{expected}-xl" in names

    def test_lookup_case_insensitive(self):
        assert get_profile("WIKI-TALK").name == "wiki-talk"
        with pytest.raises(DatasetError):
            get_profile("livejournal")

    def test_generation_matches_declared_size(self):
        p = get_profile("askubuntu")
        es = p.generate(scale=0.1)
        assert len(es) == pytest.approx(p.n_events * 0.1, rel=0.01)
        assert es.span <= p.span_seconds

    def test_scale_factor(self):
        p = get_profile("wiki-talk")
        assert p.scale_factor == pytest.approx(p.paper_events / p.n_events)

    def test_parameter_grid(self):
        p = get_profile("wiki-talk")
        grid = p.parameter_grid()
        assert len(grid) == len(p.sliding_offsets) * len(p.window_sizes_days)

    def test_epinions_bipartite(self):
        es = get_profile("epinions-user-ratings").generate(scale=0.05)
        # strictly one-directional: sources and destinations disjoint
        assert len(set(es.src.tolist()) & set(es.dst.tolist())) == 0

    def test_hepth_symmetric(self):
        es = get_profile("ca-cit-HepTh").generate(scale=0.05)
        pairs = set(zip(es.src.tolist(), es.dst.tolist()))
        assert all((v, u) in pairs for u, v in pairs)

    def test_rejects_bad_scale(self):
        with pytest.raises(DatasetError):
            get_profile("wiki-talk").generate(scale=0)


class TestRegistry:
    def test_memoizes(self):
        reg = DatasetRegistry()
        a = reg.get("askubuntu", scale=0.05)
        b = reg.get("askubuntu", scale=0.05)
        assert a is b

    def test_distinct_keys(self):
        reg = DatasetRegistry()
        a = reg.get("askubuntu", scale=0.05)
        b = reg.get("askubuntu", scale=0.1)
        assert a is not b

    def test_memory_only(self, tmp_path):
        """The registry keeps no disk cache: ``.tcsr`` is the on-disk
        event artifact."""
        with pytest.raises(TypeError):
            DatasetRegistry(cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_names_and_clear(self):
        reg = DatasetRegistry()
        assert len(reg.names()) == 14
        reg.get("askubuntu", scale=0.05)
        reg.clear()
        assert reg._memory == {}
