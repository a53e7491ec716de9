"""Unit tests for the shared execution runtime (``repro.runtime``)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.models import PostmortemOptions
from repro.models.base import RunResult, WindowResult
from repro.pagerank import PagerankConfig
from repro.runtime import (
    EXECUTORS,
    MODELS,
    ModelDriver,
    make_driver,
    record_run_metadata,
    require_executor,
)
from tests.conftest import random_events


@pytest.fixture
def setup():
    events = random_events(n_vertices=25, n_events=400, seed=7)
    spec = WindowSpec.covering(events, delta=2_500, sw=900)
    cfg = PagerankConfig(tolerance=1e-10, max_iterations=200)
    return events, spec, cfg


class TestExecution:
    def test_executor_registry(self):
        assert EXECUTORS == ("serial", "shared")

    def test_require_executor_accepts_supported(self):
        require_executor("shared", ("serial", "shared"), "offline")

    def test_require_executor_rejects_unsupported(self):
        with pytest.raises(ValidationError, match="streaming"):
            require_executor("shared", ("serial",), "streaming")


class TestRecordRunMetadata:
    def test_serial_forces_one_worker(self):
        result = RunResult(model="test", windows=[])
        record_run_metadata(result, executor="serial", n_workers=8,
                            n_windows=5)
        assert result.metadata["executor"] == "serial"
        assert result.metadata["n_workers"] == 1
        assert result.metadata["n_windows"] == 5

    def test_parallel_keeps_worker_count(self):
        result = RunResult(model="test", windows=[])
        record_run_metadata(result, executor="shared", n_workers=8,
                            n_windows=5)
        assert result.metadata["n_workers"] == 8


class TestRegistry:
    def test_models_tuple(self):
        assert MODELS == ("offline", "streaming", "postmortem")

    @pytest.mark.parametrize("model", MODELS)
    def test_make_driver_satisfies_protocol(self, setup, model):
        events, spec, cfg = setup
        driver = make_driver(model, events, spec, cfg)
        assert isinstance(driver, ModelDriver)
        assert driver.model_name == model
        assert "serial" in driver.supported_executors

    def test_unknown_model_rejected(self, setup):
        events, spec, cfg = setup
        with pytest.raises(ValidationError):
            make_driver("quantum", events, spec, cfg)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_offline_executor_has_one_home(self, setup, executor):
        events, spec, cfg = setup
        run = make_driver(
            "offline", events, spec, cfg, executor=executor, n_workers=2
        ).run()
        assert run.metadata["executor"] == executor
        assert run.metadata["n_workers"] == (
            1 if executor == "serial" else 2
        )
        assert run.metadata["n_windows"] == spec.n_windows

    @pytest.mark.parametrize("executor", ["shared"])
    def test_streaming_rejects_parallel_executor(self, setup, executor):
        events, spec, cfg = setup
        with pytest.raises(ValidationError, match="streaming"):
            make_driver("streaming", events, spec, cfg, executor=executor)

    def test_postmortem_executor_comes_from_options(self, setup):
        events, spec, cfg = setup
        options = PostmortemOptions(
            n_multiwindows=2, executor="shared", n_threads=2
        )
        run = make_driver(
            "postmortem", events, spec, cfg, postmortem_options=options
        ).run()
        assert run.metadata["executor"] == "shared"
        assert run.metadata["n_workers"] == 2

    def test_rejects_nonpositive_workers(self, setup):
        events, spec, cfg = setup
        with pytest.raises(ValidationError):
            make_driver("offline", events, spec, cfg, n_workers=0)


class TestWindowResult:
    """Every program fills the one per-vertex ``values`` slot."""

    def test_values_matrix_orders_by_window_index(self):
        run = RunResult(
            model="postmortem",
            windows=[
                WindowResult(window_index=1, values=np.array([0.0, 2.0])),
                WindowResult(window_index=0, values=np.array([1.0, 0.0])),
            ],
        )
        np.testing.assert_array_equal(
            run.values_matrix(), np.array([[1.0, 0.0], [0.0, 2.0]])
        )

    @pytest.mark.parametrize("model", MODELS)
    def test_non_pagerank_programs_fill_values(self, setup, model):
        events, spec, cfg = setup
        run = make_driver(model, events, spec, cfg, program="components").run()
        values = run.values_matrix()
        assert values.shape == (spec.n_windows, events.n_vertices)
        for w in run.windows:
            # a component size is at least 1 on every active vertex
            assert np.count_nonzero(w.values) == w.n_active_vertices
