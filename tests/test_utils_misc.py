"""Unit tests for timers, validation helpers and the error hierarchy."""

import time

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    DatasetError,
    EmptyEventSetError,
    GraphBuildError,
    ReproError,
    SchedulerError,
    ValidationError,
    WindowSpecError,
)
from repro.utils.timer import Timer, TimingAccumulator
from repro.utils.validation import (
    check_1d_float,
    check_1d_int,
    check_nonnegative,
    check_positive,
    check_probability,
    check_same_length,
    check_sorted,
)


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.001)
        assert t.elapsed >= 0.001

    def test_manual(self):
        t = Timer()
        t.start()
        elapsed = t.stop()
        assert elapsed >= 0.0
        assert t.elapsed == elapsed

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestTimingAccumulator:
    def test_phases(self):
        acc = TimingAccumulator()
        with acc.phase("a"):
            pass
        with acc.phase("a"):
            pass
        with acc.phase("b"):
            pass
        assert set(acc.totals) == {"a", "b"}
        assert acc.total == pytest.approx(
            acc.totals["a"] + acc.totals["b"]
        )

    def test_merge(self):
        a, b = TimingAccumulator(), TimingAccumulator()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.totals["x"] == 3.0
        assert a.totals["y"] == 3.0

    def test_as_dict(self):
        acc = TimingAccumulator()
        acc.add("p", 0.5)
        assert acc.as_dict() == {"p": 0.5}


class TestValidation:
    def test_check_1d_int_accepts_lists(self):
        out = check_1d_int([1, 2, 3], "x")
        assert out.dtype == np.int64

    def test_check_1d_int_accepts_whole_floats(self):
        out = check_1d_int(np.array([1.0, 2.0]), "x")
        assert out.dtype == np.int64

    def test_check_1d_int_rejects_fractional(self):
        with pytest.raises(ValidationError):
            check_1d_int(np.array([1.5]), "x")

    def test_check_1d_int_rejects_2d(self):
        with pytest.raises(ValidationError):
            check_1d_int(np.zeros((2, 2)), "x")

    def test_check_1d_int_rejects_strings(self):
        with pytest.raises(ValidationError):
            check_1d_int(np.array(["a"]), "x")

    def test_check_1d_float(self):
        out = check_1d_float([1, 2], "x")
        assert out.dtype == np.float64
        with pytest.raises(ValidationError):
            check_1d_float(np.zeros((2, 2)), "x")

    def test_same_length(self):
        check_same_length(([1], "a"), ([2], "b"))
        with pytest.raises(ValidationError):
            check_same_length(([1], "a"), ([1, 2], "b"))

    def test_scalars(self):
        assert check_nonnegative(0, "x") == 0
        assert check_positive(1, "x") == 1
        assert check_probability(0.5, "x") == 0.5
        with pytest.raises(ValidationError):
            check_nonnegative(-1, "x")
        with pytest.raises(ValidationError):
            check_positive(0, "x")
        with pytest.raises(ValidationError):
            check_probability(1.5, "x")

    def test_sorted(self):
        check_sorted(np.array([1, 2, 2, 3]), "x")
        with pytest.raises(ValidationError):
            check_sorted(np.array([2, 1]), "x")


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ValidationError,
            EmptyEventSetError,
            WindowSpecError,
            GraphBuildError,
            ConvergenceError,
            SchedulerError,
            DatasetError,
        ):
            assert issubclass(exc, ReproError)

    def test_validation_is_value_error(self):
        assert issubclass(ValidationError, ValueError)
        assert issubclass(WindowSpecError, ValidationError)
        assert issubclass(EmptyEventSetError, ValidationError)
