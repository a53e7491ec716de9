"""Tests for non-PageRank analytics under the three execution models,
time-series analytics, and run persistence (the float64 rank store)."""

from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest

from repro.analysis.timeseries import (
    detect_change_points,
    rank_stability_series,
    rising_vertices,
    topk_churn_series,
)
from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.graph import TemporalAdjacency
from repro.models import PostmortemDriver, PostmortemOptions
from repro.pagerank import PagerankConfig
from repro.pagerank.incremental import incremental_pagerank
from repro.programs import make_program
from repro.programs.katz import KatzProgram
from repro.runtime import MODELS, make_driver
from repro.service import RankStore, write_store
from repro.streaming import StreamingDriver, StreamingGraph
from tests.conftest import random_events


@pytest.fixture(scope="module")
def instance():
    events = random_events(n_vertices=30, n_events=700, seed=101)
    spec = WindowSpec.covering(events, delta=3_000, sw=1_200)
    return events, spec


def model_runs(events, spec, program):
    return {
        model: make_driver(
            model, events, spec, program=program,
            postmortem_options=PostmortemOptions(n_multiwindows=3),
        ).run()
        for model in MODELS
    }


class TestThreeModelKernels:
    def test_all_models_same_series(self, instance):
        events, spec = instance
        runs = model_runs(events, spec, "kcore")
        ref = runs["offline"].values_matrix()
        assert ref.shape[0] == spec.n_windows
        for run in runs.values():
            np.testing.assert_array_equal(run.values_matrix(), ref)

    def test_native_view_kernel_equivalent(self, instance):
        """The temporal surface (window views) and the materialized surface
        (snapshot CSR) give the same integer answers."""
        events, spec = instance
        adj = TemporalAdjacency.from_events(events)
        for name in ("kcore", "components"):
            program = make_program(name)
            for w in spec:
                view = adj.window_view(w)
                native = program.solve_window(view).values
                graph = view.compact_graph()
                materialized = program.solve_graph(
                    graph, view.active_vertices_mask
                ).values
                np.testing.assert_array_equal(native, materialized)

    def test_components_across_models(self, instance):
        from scipy.sparse.csgraph import connected_components

        events, spec = instance
        runs = model_runs(events, spec, "components")
        ref = runs["offline"].values_matrix()
        for run in runs.values():
            np.testing.assert_array_equal(run.values_matrix(), ref)
        adj = TemporalAdjacency.from_events(events)
        for w in spec:
            view = adj.window_view(w)
            m = view.compact_graph().to_scipy()
            n, labels = connected_components(m + m.T, directed=False)
            active = view.active_vertices_mask
            # distinct sizes x their multiplicity recover the count
            sizes = ref[w.index][active]
            assert (1.0 / sizes).sum() == pytest.approx(
                len(set(labels[active].tolist()))
            )

    def test_timings_present(self, instance):
        events, spec = instance
        runs = model_runs(events, spec, "kcore")
        assert "build" in runs["offline"].timings.totals
        assert "snapshot" in runs["streaming"].timings.totals
        assert runs["offline"].total_time > 0


class TestTimeseries:
    def test_rank_stability_identical_windows(self):
        v = np.array([0.5, 0.3, 0.2])
        out = rank_stability_series([v, v, v], min_shared=2)
        assert np.allclose(out, 1.0)

    def test_rank_stability_nan_when_disjoint(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        out = rank_stability_series([a, b], min_shared=1)
        assert np.isnan(out[0])

    def test_churn(self):
        a = np.array([0.9, 0.8, 0.1, 0.0])
        b = np.array([0.1, 0.0, 0.9, 0.8])
        assert topk_churn_series([a, b], k=2)[0] == 1.0
        assert topk_churn_series([a, a], k=2)[0] == 0.0

    def test_rising(self):
        a = np.array([0.5, 0.5, 0.0])
        b = np.array([0.2, 0.5, 0.3])
        top = rising_vertices([a, b], 0, 1, top=1)
        assert top[0][0] == 2

    def test_rising_bounds(self):
        a = np.zeros(3)
        with pytest.raises(ValidationError):
            rising_vertices([a, a], 0, 5)

    def test_change_points(self):
        series = np.array([1.0, 1.1, 0.9, 1.0, 1.05, 1.0, 8.0, 1.0])
        flagged = detect_change_points(series, z_threshold=3.0, warmup=4)
        assert 6 in flagged.tolist()

    def test_change_points_validation(self):
        with pytest.raises(ValidationError):
            detect_change_points(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            detect_change_points(np.zeros(5), z_threshold=0)

    def test_needs_two_windows(self):
        with pytest.raises(ValidationError):
            rank_stability_series([np.zeros(3)])


class TestRunPersistence:
    def test_roundtrip(self, instance, tmp_path):
        """A float64 rank store keeps a finished run bitwise."""
        events, spec = instance
        run = PostmortemDriver(
            events, spec, PagerankConfig(tolerance=1e-10)
        ).run()
        path = tmp_path / "run.rankstore"
        write_store(run, path, spec, dtype=np.float64)
        with RankStore(path) as back:
            assert back.model == run.model
            assert back.n_windows == run.n_windows
            np.testing.assert_array_equal(back.matrix, run.values_matrix())
            assert back.columns["iterations"] == [
                w.iterations for w in run.windows
            ]

    def test_rejects_valueless_run(self, instance, tmp_path):
        events, spec = instance
        run = PostmortemDriver(
            events, spec, PagerankConfig()
        ).run(store_values=False)
        with pytest.raises(ValidationError):
            write_store(run, tmp_path / "x.rankstore", spec)

    def test_rejects_bad_archive(self, tmp_path):
        """A file without the rank-store magic, such as an ``.npz``
        archive, is refused."""
        path = tmp_path / "bad.rankstore"
        with open(path, "wb") as f:
            np.savez(f, values=np.zeros((1, 2)))
        with pytest.raises(ValidationError, match="bad magic"):
            RankStore(path)


class TestStatefulStreaming:
    def test_warm_started_katz_through_generic_runner(self, instance):
        """A custom program subclass runs through ``make_driver``; the
        streaming model hands every window after the first its
        predecessor's solution."""
        events, spec = instance

        @dataclass(frozen=True)
        class CountingKatz(KatzProgram):
            calls: List[bool] = field(default_factory=list)

            def solve_graph(self, graph, active, *, prev_values=None,
                            prev_active=None):
                self.calls.append(prev_values is not None)
                return super().solve_graph(
                    graph, active, prev_values=prev_values,
                    prev_active=prev_active,
                )

        program = CountingKatz()
        run = make_driver("streaming", events, spec, program=program).run()
        assert run.n_windows == spec.n_windows
        assert program.calls[0] is False
        assert all(program.calls[1:])

    def test_stateful_pagerank_matches_driver(self, instance):
        events, spec = instance
        cfg = PagerankConfig(tolerance=1e-11, max_iterations=300)
        stream = StreamingGraph(events, 64)
        prev = None
        values = []
        for window in spec:
            stream.advance_to(window)
            graph, active = stream.snapshot()
            prev = incremental_pagerank(
                graph,
                cfg,
                active=active,
                prev_values=None if prev is None else prev.values,
            )
            values.append(prev.values)
        ref = StreamingDriver(events, spec, cfg).run()
        for i, v in enumerate(values):
            assert np.allclose(v, ref.windows[i].values, atol=1e-7), i
