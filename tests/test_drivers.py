"""Unit tests for the offline and postmortem drivers and RunResult."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.models import (
    OfflineDriver,
    PostmortemDriver,
    PostmortemOptions,
    RunResult,
    WindowResult,
)
from repro.pagerank import PagerankConfig
from tests.conftest import random_events


@pytest.fixture
def setup():
    events = random_events(n_vertices=30, n_events=500, seed=81)
    spec = WindowSpec.covering(events, delta=2_500, sw=700)
    cfg = PagerankConfig(tolerance=1e-12, max_iterations=300)
    return events, spec, cfg


class TestOfflineDriver:
    def test_runs(self, setup):
        events, spec, cfg = setup
        run = OfflineDriver(events, spec, cfg).run()
        assert run.model == "offline"
        assert run.n_windows == spec.n_windows
        assert run.all_converged
        assert "build" in run.timings.totals
        assert "pagerank" in run.timings.totals

    def test_window_metadata(self, setup):
        events, spec, cfg = setup
        run = OfflineDriver(events, spec, cfg).run()
        for w in run.windows:
            assert w.n_active_edges >= 0
            assert w.values.shape == (events.n_vertices,)
            assert w.values.sum() == pytest.approx(1.0, abs=1e-8)


class TestPostmortemDriver:
    def test_spmv_matches_offline(self, setup):
        events, spec, cfg = setup
        off = OfflineDriver(events, spec, cfg).run()
        pm = PostmortemDriver(events, spec, cfg).run()
        assert pm.max_difference(off) < 1e-9

    @pytest.mark.parametrize("n_mw", [1, 2, 5])
    @pytest.mark.parametrize("kernel", ["spmv", "spmm"])
    def test_options_grid(self, setup, n_mw, kernel):
        events, spec, cfg = setup
        off = OfflineDriver(events, spec, cfg).run()
        opts = PostmortemOptions(
            n_multiwindows=n_mw, kernel=kernel, vector_length=4
        )
        pm = PostmortemDriver(events, spec, cfg, opts).run()
        assert pm.max_difference(off) < 1e-9, (n_mw, kernel)

    def test_no_partial_init_same_result(self, setup):
        events, spec, cfg = setup
        a = PostmortemDriver(
            events, spec, cfg, PostmortemOptions(partial_init=True)
        ).run()
        b = PostmortemDriver(
            events, spec, cfg, PostmortemOptions(partial_init=False)
        ).run()
        assert a.max_difference(b) < 1e-9

    def test_task_log(self, setup):
        events, spec, cfg = setup
        opts = PostmortemOptions(n_multiwindows=3, kernel="spmm",
                                 vector_length=4)
        run = PostmortemDriver(events, spec, cfg, opts).run()
        log = run.metadata["task_log"]
        covered = sorted(w for t in log for w in t.windows)
        assert covered == list(range(spec.n_windows))
        assert all(t.kernel in ("spmv", "spmm") for t in log)
        assert run.metadata["replication_factor"] > 0

    def test_windows_in_order(self, setup):
        events, spec, cfg = setup
        run = PostmortemDriver(events, spec, cfg).run()
        assert [w.window_index for w in run.windows] == list(
            range(spec.n_windows)
        )

    def test_invalid_options(self):
        with pytest.raises(ValidationError):
            PostmortemOptions(n_multiwindows=0)
        with pytest.raises(ValidationError):
            PostmortemOptions(kernel="gemm")
        with pytest.raises(ValidationError):
            PostmortemOptions(vector_length=0)
        with pytest.raises(ValidationError):
            PostmortemOptions(executor="mpi")
        with pytest.raises(ValidationError):
            PostmortemOptions(n_threads=0)

    def test_partition_cached(self, setup):
        events, spec, cfg = setup
        drv = PostmortemDriver(events, spec, cfg)
        assert drv.partition is drv.partition


class TestRunResult:
    def test_window_lookup(self):
        rr = RunResult(model="x")
        rr.windows.append(
            WindowResult(3, np.zeros(2), 1, True, 0.0, 1, 1)
        )
        assert rr.window(3).window_index == 3
        with pytest.raises(ValidationError):
            rr.window(9)

    def test_top_vertices(self):
        w = WindowResult(
            0, np.array([0.1, 0.5, 0.4]), 1, True, 0.0, 3, 3
        )
        top = w.top_vertices(2)
        assert top[0][0] == 1
        assert top[1][0] == 2

    def test_top_vertices_requires_values(self):
        w = WindowResult(0, None, 1, True, 0.0, 1, 1)
        with pytest.raises(ValidationError):
            w.top_vertices()

    def test_max_difference_requires_same_window_count(self):
        a, b = RunResult(model="a"), RunResult(model="b")
        a.windows.append(WindowResult(0, np.zeros(2), 1, True, 0.0, 1, 1))
        with pytest.raises(ValidationError):
            a.max_difference(b)

    def test_total_iterations(self):
        rr = RunResult(model="x")
        rr.windows.append(WindowResult(0, None, 3, True, 0.0, 1, 1))
        rr.windows.append(WindowResult(1, None, 4, True, 0.0, 1, 1))
        assert rr.total_iterations == 7
