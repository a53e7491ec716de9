"""Tests for the shared-memory process backend (repro.parallel.shared_arena).

Covers the acceptance properties of the zero-copy executor:

* **parity** — ``executor="shared"`` produces bitwise-identical window
  results (and identical rank stores via ``value_sink``) to the thread
  executor;
* **zero payload** — task submissions carry only handles and build
  recipes, asserted with a pickle-size probe against the pickled graphs;
* **one event set per arena** — a worker wraps the attached columns once,
  not once per task, and in-process runs wrap none;
* **lifecycle** — no ``/dev/shm`` segment survives a normal run, a driver
  exception, a failing worker or sink, or a killed worker;
* **heap trim** — a worker hands its freed heap back after every task,
  whether the task returned or raised.
"""

import glob
import os
import pickle
import signal

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ValidationError
from repro.events import TemporalEventSet, WindowSpec
from repro.graph.multiwindow import LazyMultiWindowPartition
from repro.models import OfflineDriver, PostmortemDriver, PostmortemOptions
from repro.models.offline import _solve_window_range
from repro.pagerank import PagerankConfig
from repro.parallel import shared_arena
from repro.parallel.shared_arena import (
    ARENA_NAME_PREFIX,
    SharedArenaRegistry,
    attach_arena,
    run_arena_tasks,
)
from repro.programs.registry import resolve_program
from repro.runtime.execution import _attached_worker
from repro.service import RankStore, RankStoreWriter
from tests.conftest import random_events


def shm_segments():
    """Live arena segments in /dev/shm (Linux shared-memory mount)."""
    return glob.glob(f"/dev/shm/{ARENA_NAME_PREFIX}*")


def columns(events):
    return {"src": events.src, "dst": events.dst, "time": events.time}


@pytest.fixture
def setup():
    events = random_events(n_vertices=60, n_events=1200, seed=19)
    spec = WindowSpec.covering(events, delta=2_500, sw=700)
    cfg = PagerankConfig(tolerance=1e-11, max_iterations=300)
    return events, spec, cfg


def run_with(events, spec, cfg, executor, kernel="spmv", sink=None,
             store_values=True):
    opts = PostmortemOptions(
        n_multiwindows=3, kernel=kernel, executor=executor, n_threads=2
    )
    driver = PostmortemDriver(events, spec, cfg, opts)
    return driver.run(store_values=store_values, value_sink=sink)


# ----------------------------------------------------------------------
# arena publication round trip
# ----------------------------------------------------------------------
class TestArena:
    def test_round_trip_views(self, setup):
        events, spec, cfg = setup
        with SharedArenaRegistry() as reg:
            view = attach_arena(reg.publish(columns(events)))
            for key, arr in columns(events).items():
                shared = view.shared_view(key)
                assert np.array_equal(arr, shared)
                assert not shared.flags.writeable
        assert shm_segments() == []

    def test_attach_is_cached_per_process(self, setup):
        events, spec, cfg = setup
        with SharedArenaRegistry() as reg:
            handle = reg.publish(columns(events))
            assert attach_arena(handle) is attach_arena(handle)

    def test_unknown_key_rejected(self, setup):
        events, spec, cfg = setup
        with SharedArenaRegistry() as reg:
            view = attach_arena(reg.publish(columns(events)))
            with pytest.raises(ValidationError):
                view.shared_view("no-such-array")

    def test_close_is_idempotent(self, setup):
        events, spec, cfg = setup
        reg = SharedArenaRegistry()
        reg.publish(columns(events))
        reg.close()
        reg.close()
        assert shm_segments() == []


# ----------------------------------------------------------------------
# executor parity
# ----------------------------------------------------------------------
class TestExecutorParity:
    @pytest.mark.parametrize("kernel", ["spmv", "spmm"])
    def test_shared_matches_serial_bitwise(self, setup, kernel):
        events, spec, cfg = setup
        ref = run_with(events, spec, cfg, "serial", kernel)
        other = run_with(events, spec, cfg, "shared", kernel)
        for wa, wb in zip(ref.windows, other.windows):
            assert wa.iterations == wb.iterations, wa.window_index
            assert np.array_equal(wa.values, wb.values), wa.window_index

    def test_value_sink_runs_in_parent(self, setup):
        events, spec, cfg = setup
        parent_pid = os.getpid()
        seen = {}

        def sink(window, values, meta):
            assert os.getpid() == parent_pid
            seen[window] = values.copy()

        run_with(events, spec, cfg, "shared", sink=sink, store_values=False)
        ref = run_with(events, spec, cfg, "serial")
        assert sorted(seen) == list(range(spec.n_windows))
        for w, values in seen.items():
            assert np.array_equal(values, ref.windows[w].values)

    def test_identical_rank_stores(self, setup, tmp_path):
        events, spec, cfg = setup
        paths = {}
        for ex in ("serial", "shared"):
            path = tmp_path / f"{ex}.rankstore"
            with RankStoreWriter(
                path,
                n_windows=spec.n_windows,
                n_vertices=events.n_vertices,
                spec=spec,
                dtype="float64",
            ) as writer:
                run_with(
                    events, spec, cfg, ex,
                    sink=writer.write_window, store_values=False,
                )
            paths[ex] = path
        with RankStore(paths["serial"]) as a, RankStore(paths["shared"]) as b:
            for w in range(spec.n_windows):
                assert np.array_equal(a.row(w), b.row(w)), w


# ----------------------------------------------------------------------
# the zero-pickling guarantee
# ----------------------------------------------------------------------
class TestPayloadProbe:
    def test_handles_ship_no_array_payload(self, setup):
        events, spec, cfg = setup
        run = run_with(events, spec, cfg, "shared")
        stats = run.metadata["shared_arena"]
        part = LazyMultiWindowPartition(events, spec, 3)
        pickled_graphs = sum(
            len(pickle.dumps(g, pickle.HIGHEST_PROTOCOL)) for g in part
        )
        # the probe: total submitted task bytes must be a sliver of what
        # pickling the graphs would cost, and far below the arena
        assert stats["n_tasks"] == 3
        assert stats["payload_bytes"] < pickled_graphs / 10
        assert stats["payload_bytes"] < stats["arena_bytes"]

    def test_handle_pickle_size_is_flat_in_events(self):
        sizes = []
        for n_events in (500, 4000):
            events = random_events(n_vertices=80, n_events=n_events, seed=5)
            spec = WindowSpec.covering(events, delta=2_500, sw=900)
            opts = PostmortemOptions(
                n_multiwindows=2, executor="shared", n_threads=2
            )
            run = PostmortemDriver(
                events, spec, PagerankConfig(), opts
            ).run(store_values=False)
            stats = run.metadata["shared_arena"]
            assert stats["n_tasks"] == 2
            sizes.append(stats["payload_bytes"])
        # 8x the events moves the payload size only by metadata jitter
        # (integer field widths), never by array payload
        assert abs(sizes[0] - sizes[1]) < 128
        assert max(sizes) < 4096


# ----------------------------------------------------------------------
# the attached event set: wrapped once per arena, never in-process
# ----------------------------------------------------------------------
@pytest.fixture
def count_event_sets(monkeypatch):
    """Counts event-set constructions: validated and wrapped."""
    counts = {"validated": 0, "wrapped": 0}
    init = TemporalEventSet.__init__
    wrap = TemporalEventSet.from_validated.__func__

    def counting_init(self, *args, **kwargs):
        counts["validated"] += 1
        init(self, *args, **kwargs)

    def counting_wrap(cls, *args, **kwargs):
        counts["wrapped"] += 1
        return wrap(cls, *args, **kwargs)

    monkeypatch.setattr(TemporalEventSet, "__init__", counting_init)
    monkeypatch.setattr(
        TemporalEventSet, "from_validated", classmethod(counting_wrap)
    )
    return counts


class TestAttachedEventSet:
    def test_k_payloads_one_event_set(self, setup, count_event_sets):
        events, spec, cfg = setup
        program = resolve_program(None, cfg)
        serial = OfflineDriver(events, spec, cfg).run()
        count_event_sets.update(validated=0, wrapped=0)
        with SharedArenaRegistry() as reg:
            view = attach_arena(reg.publish(columns(events)))
            for i in range(spec.n_windows):
                (wr,), _, _ = _attached_worker(
                    view, (i, i + 1), i, None, _solve_window_range,
                    events.n_vertices, spec, cfg, True, program,
                )
                assert np.array_equal(wr.values, serial.windows[i].values)
        assert spec.n_windows > 1
        assert count_event_sets == {"validated": 0, "wrapped": 1}

    @pytest.mark.parametrize("executor", ["serial"])
    def test_in_process_runs_construct_none(
        self, setup, count_event_sets, executor
    ):
        events, spec, cfg = setup
        driver = OfflineDriver(
            events, spec, cfg, executor=executor, n_workers=2
        )
        count_event_sets.update(validated=0, wrapped=0)
        driver.run(store_values=False)
        assert count_event_sets == {"validated": 0, "wrapped": 0}


# ----------------------------------------------------------------------
# lifecycle: nothing leaks into /dev/shm
# ----------------------------------------------------------------------
def _killed_worker(view, payload, index, sink):
    os.kill(os.getpid(), signal.SIGKILL)


def _failing_worker(view, payload, index, sink):
    raise RuntimeError("worker boom")


class TestLifecycle:
    def test_normal_run_unlinks(self, setup):
        events, spec, cfg = setup
        run_with(events, spec, cfg, "shared")
        assert shm_segments() == []

    def test_failing_sink_surfaces_and_unlinks(self, setup):
        events, spec, cfg = setup

        def bad_sink(window, values, meta):
            raise RuntimeError("sink boom")

        with pytest.raises(RuntimeError, match="sink boom"):
            run_with(
                events, spec, cfg, "shared",
                sink=bad_sink, store_values=False,
            )
        assert shm_segments() == []

    def test_failing_worker_unlinks(self, setup):
        events, spec, cfg = setup
        with pytest.raises(RuntimeError, match="worker boom"):
            run_arena_tasks(
                columns(events), [0, 1, 2], _failing_worker, n_workers=2
            )
        assert shm_segments() == []

    def test_killed_worker_unlinks(self, setup):
        events, spec, cfg = setup
        with pytest.raises(BrokenProcessPool):
            run_arena_tasks(
                columns(events), [0, 1, 2], _killed_worker, n_workers=2
            )
        assert shm_segments() == []

    def test_convergence_error_unlinks(self, setup):
        events, spec, cfg = setup
        from repro.errors import ConvergenceError

        strict = PagerankConfig(
            tolerance=1e-16, max_iterations=2, strict=True
        )
        with pytest.raises(ConvergenceError):
            run_with(events, spec, strict, "shared")
        assert shm_segments() == []


# ----------------------------------------------------------------------
# heap trim after every worker task
# ----------------------------------------------------------------------
def _trim_seen_worker(view, payload, index, sink):
    """Whether this worker process had trimmed before running the task."""
    return "malloc_trim" in shared_arena._WORKER_STATE


class TestWorkerHeapTrim:
    @pytest.fixture
    def trims(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            shared_arena._WORKER_STATE, "malloc_trim", calls.append
        )
        monkeypatch.setitem(shared_arena._WORKER_STATE, "args", ())
        return calls

    def run_task(self, events, monkeypatch, worker):
        monkeypatch.setitem(shared_arena._WORKER_STATE, "worker", worker)
        with SharedArenaRegistry() as reg:
            handle = reg.publish(columns(events))
            return shared_arena._run_arena_task(handle, 7, 0)

    def test_trims_after_a_task_returns(self, setup, monkeypatch, trims):
        events, spec, cfg = setup
        result = self.run_task(
            events, monkeypatch, lambda view, payload, index, sink: payload
        )
        assert result == 7
        assert trims == [0]

    def test_trims_after_a_task_raises(self, setup, monkeypatch, trims):
        events, spec, cfg = setup
        with pytest.raises(RuntimeError, match="worker boom"):
            self.run_task(events, monkeypatch, _failing_worker)
        assert trims == [0]

    def test_workers_trim_between_tasks(self, setup):
        events, spec, cfg = setup
        seen, _ = run_arena_tasks(
            columns(events), [0, 1, 2], _trim_seen_worker, n_workers=1
        )
        assert seen == [False, True, True]
