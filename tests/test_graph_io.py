"""Tests for the out-of-core ``.tcsr`` artifact (``repro.graph.io``).

Covers the acceptance properties of the memory-mapped input path:

* **round-trip parity** — ``write → open_events`` equals the in-RAM
  ``TemporalEventSet`` array for array, including the empty set,
  dangling-heavy, duplicate-heavy and quiet-gap logs; graphs compacted
  from the mapped log equal the in-RAM ones, and a postmortem run from
  the artifact is bitwise-identical to one from in-RAM input;
* **format** — four arrays (the event log and its time index), 24 B per
  event plus 8 B per time-index entry;
* **chunked construction** — the builder's bounded-memory merge of
  unsorted chunks is bitwise-identical to a single in-RAM sort;
* **rejection** — truncated, corrupted, unfinalized and old-version
  artifacts, and layout tables that disagree with the preamble, raise
  ``ValidationError`` instead of returning garbage;
* **memory honesty** — graphs built from a mapped log live on the heap,
  and only the raw log reports as mapped;
* **zero-copy publication** — the shared arena publishes mapped event
  columns without copying (postmortem parity on ``.tcsr`` input across
  executors lives in ``tests/test_knob_parity.py``);
* **CLI** — ``generate --out x.tcsr``, ``run x.tcsr``, ``inspect``.
"""

import errno
import io
import json
import os
import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.events import TemporalEventSet, WindowSpec
from repro.graph import io as io_mod
from repro.graph.io import (
    MAGIC,
    PREAMBLE_SIZE,
    MappedEventSet,
    TcsrFile,
    TemporalCSRBuilder,
    build_tcsr,
    is_tcsr,
    open_events,
    write_tcsr,
)
from repro.graph.multiwindow import LazyMultiWindowPartition
from repro.models import PostmortemDriver, PostmortemOptions
from repro.pagerank import PagerankConfig
from repro.utils.arrays import is_mmap_backed
from tests.conftest import random_events
from tests.dense_mask_reference import in_dedup


CSR_ARRAYS = ("indptr", "col", "time", "group_start")


def assert_event_log_equal(mapped, events):
    """The one event-log round-trip check: the mapped log equals the
    in-RAM event set array for array."""
    assert mapped.n_vertices == events.n_vertices
    for name in ("src", "dst", "time"):
        got, want = getattr(mapped, name), getattr(events, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def roundtrip(tmp_path, events, **kw):
    path = str(tmp_path / "events.tcsr")
    write_tcsr(events, path, **kw)
    return path


def assert_roundtrip(tmp_path, events, **kw):
    """Write ``events``, check the mapped log, return it (open)."""
    mapped = open_events(roundtrip(tmp_path, events, **kw))
    assert_event_log_equal(mapped, events)
    return mapped


def duplicate_heavy():
    # many repeated (u, v) pairs with tied timestamps
    rng = np.random.default_rng(13)
    src = rng.integers(0, 8, 2_000)
    dst = rng.integers(0, 8, 2_000)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    time = rng.integers(0, 50, src.size)  # heavy ties
    return TemporalEventSet(src, dst, time, n_vertices=8)


# ----------------------------------------------------------------------
# round-trip parity
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_matches_in_ram_adjacency(self, tmp_path):
        # every graph compacted from the mapped log equals the one
        # compacted from the in-RAM log
        events = random_events(n_vertices=50, n_events=2_000, seed=3)
        mapped = assert_roundtrip(tmp_path, events)
        spec = WindowSpec.covering(events, delta=2_000, sw=700)
        ram_part = LazyMultiWindowPartition(events, spec, 3)
        map_part = LazyMultiWindowPartition(mapped, spec, 3)
        for g_ram, g_map in zip(ram_part, map_part):
            np.testing.assert_array_equal(g_map.global_ids, g_ram.global_ids)
            for name in CSR_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(g_map.adjacency.in_csr, name),
                    getattr(g_ram.adjacency.in_csr, name),
                    err_msg=f"in_csr.{name}",
                )
        mapped.close()

    def test_event_log_matches_stable_sort(self, tmp_path):
        events = random_events(n_vertices=30, n_events=800, seed=5)
        assert_roundtrip(tmp_path, events).close()

    def test_empty_event_set(self, tmp_path):
        events = TemporalEventSet(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64), n_vertices=7,
        )
        mapped = assert_roundtrip(tmp_path, events)
        assert mapped.n_vertices == 7 and len(mapped) == 0

    def test_dangling_heavy(self, tmp_path):
        # 990 of 1000 vertices have no edges at all (isolated), sources
        # concentrated on a handful
        rng = np.random.default_rng(11)
        src = rng.integers(0, 5, 600)
        dst = rng.integers(5, 10, 600)
        time = rng.integers(0, 10_000, 600)
        events = TemporalEventSet(src, dst, time, n_vertices=1_000)
        assert_roundtrip(tmp_path, events).close()

    def test_weighted_duplicate_heavy(self, tmp_path):
        # the weighted kernel's per-group multiplicities must come out
        # identical from a graph compacted off the mapped log
        events = duplicate_heavy()
        mapped = assert_roundtrip(tmp_path, events)
        spec = WindowSpec(0, 20, 10, 3)
        ram = LazyMultiWindowPartition(events, spec, 1).graph_at(0)
        got = LazyMultiWindowPartition(mapped, spec, 1).graph_at(0)
        for w in range(spec.n_windows):
            v0, v1 = ram.window_view(w), got.window_view(w)
            np.testing.assert_array_equal(in_dedup(v0), in_dedup(v1))
            np.testing.assert_array_equal(
                v0.multiplicities, v1.multiplicities
            )
        mapped.close()

    def test_empty_windows(self, tmp_path):
        # a long quiet gap in the middle of the span: windows over the
        # gap hold no events in either representation
        src = np.array([0, 1, 2, 3] * 50, dtype=np.int64)
        dst = np.array([1, 2, 3, 0] * 50, dtype=np.int64)
        time = np.concatenate(
            [np.arange(100, dtype=np.int64),
             np.arange(100, dtype=np.int64) + 100_000]
        )
        events = TemporalEventSet(src, dst, time, n_vertices=4)
        mapped = assert_roundtrip(tmp_path, events, time_index_stride=16)
        for lo, hi in ((200, 300), (50_000, 60_000), (0, 50)):
            assert mapped.time_slice_indices(lo, hi) == \
                events.time_slice_indices(lo, hi)
        spec = WindowSpec(0, 99, 50_000, 3)
        view = LazyMultiWindowPartition(mapped, spec, 3).window_view(1)
        assert view.n_active_edges == 0 and view.n_active_vertices == 0
        mapped.close()

    @pytest.mark.parametrize(
        "options",
        [{"kernel": "spmm", "vector_length": 4}, {"weighted": True}],
        ids=["spmm", "weighted"],
    )
    def test_postmortem_from_artifact_is_bitwise(self, tmp_path, options):
        events = duplicate_heavy()
        mapped = assert_roundtrip(tmp_path, events, chunk_events=256)
        spec = WindowSpec(0, 12, 3, 12)
        cfg = PagerankConfig(tolerance=1e-10, max_iterations=200)
        opts = PostmortemOptions(n_multiwindows=3, **options)
        want = PostmortemDriver(events, spec, cfg, opts).run()
        got = PostmortemDriver(mapped, spec, cfg, opts).run()
        assert len(got.windows) == len(want.windows) == spec.n_windows
        for g, w in zip(got.windows, want.windows):
            assert g.iterations == w.iterations, g.window_index
            assert g.converged == w.converged
            assert np.array_equal(g.residual, w.residual)
            assert np.array_equal(g.values, w.values)
            assert np.array_equal(np.signbit(g.values), np.signbit(w.values))
        mapped.close()


# ----------------------------------------------------------------------
# format
# ----------------------------------------------------------------------
class TestFormat:
    @pytest.mark.parametrize("size,stride", [(0, 8), (1, 8), (640, 64),
                                             (641, 64), (3_000, 8192)])
    def test_stored_bytes_are_the_event_log(self, tmp_path, size, stride):
        events = random_events(n_vertices=20, n_events=size, seed=2) \
            if size else TemporalEventSet([], [], [], n_vertices=3)
        path = roundtrip(tmp_path, events, time_index_stride=stride)
        n = len(events)  # random_events drops self-loops
        with TcsrFile(path) as artifact:
            names = [r["name"] for r in artifact.array_table()]
            assert names == ["ev_src", "ev_dst", "ev_time", "time_index"]
            assert artifact.stored_bytes() == 24 * n + 8 * -(-n // stride)
            assert artifact.info()["format"] == "tcsr v3"
        assert io_mod.VERSION == 3


# ----------------------------------------------------------------------
# chunked construction
# ----------------------------------------------------------------------
class TestChunkedBuilder:
    def test_unsorted_chunks_match_global_sort(self, tmp_path):
        rng = np.random.default_rng(17)
        chunks = []
        for _ in range(7):
            n = int(rng.integers(50, 200))
            chunks.append(
                (rng.integers(0, 40, n), rng.integers(0, 40, n),
                 rng.integers(0, 500, n))  # heavy ties across chunks
            )
        src = np.concatenate([c[0] for c in chunks])
        dst = np.concatenate([c[1] for c in chunks])
        time = np.concatenate([c[2] for c in chunks])
        events = TemporalEventSet(src, dst, time, n_vertices=40)

        path = str(tmp_path / "chunked.tcsr")
        build_tcsr(iter(chunks), path, 40, chunk_events=128, n_workers=2)
        mapped = open_events(path)
        assert_event_log_equal(mapped, events)
        mapped.close()

    def test_add_events_validates(self, tmp_path):
        path = str(tmp_path / "bad.tcsr")
        with pytest.raises(ValidationError):
            with TemporalCSRBuilder(path, n_vertices=4) as b:
                b.add_events(
                    np.array([0, 9], dtype=np.int64),  # 9 out of range
                    np.array([1, 2], dtype=np.int64),
                    np.array([0, 1], dtype=np.int64),
                )
        assert not os.path.exists(path)  # aborted build leaves nothing

    def test_abort_cleans_up(self, tmp_path):
        path = str(tmp_path / "aborted.tcsr")
        b = TemporalCSRBuilder(path, n_vertices=4)
        b.add_events(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64),
            np.array([5], dtype=np.int64),
        )
        b.abort()
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".spill")

    def test_spill_file_removed_after_finalize(self, tmp_path):
        events = random_events(n_vertices=10, n_events=100, seed=23)
        path = roundtrip(tmp_path, events)
        assert not os.path.exists(path + ".spill")

    @pytest.mark.parametrize(
        "failing_pass,error",
        [(0, MemoryError()),
         (1, OSError(errno.ENOSPC, "No space left on device"))],
        ids=["sort", "merge"],
    )
    def test_failed_worker_pass_removes_spill_and_artifact(
        self, tmp_path, monkeypatch, failing_pass, error
    ):
        # the sort pass fails before the artifact file exists, the merge
        # pass after; either way the spill (as large as the event log)
        # and the unfinalized artifact must go
        real_map = io_mod._map_items
        passes = []

        def map_with_failure(fn, n_items, n_workers):
            passes.append(n_items)
            if len(passes) - 1 != failing_pass:
                return real_map(fn, n_items, n_workers)
            assert n_items > 1 and n_workers == 2

            def task(i):
                if i == 1:
                    raise error
                return fn(i)

            return real_map(task, n_items, n_workers)

        monkeypatch.setattr(io_mod, "_map_items", map_with_failure)
        events = random_events(n_vertices=10, n_events=100, seed=23)
        path = str(tmp_path / "x.tcsr")
        with pytest.raises(type(error)):
            write_tcsr(events, path, chunk_events=25, n_workers=2)
        assert len(passes) == failing_pass + 1
        assert not os.path.exists(path + ".spill")
        assert not os.path.exists(path)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        events = random_events(n_vertices=40, n_events=3_000, seed=19)
        blobs = []
        for n_workers in (1, 4):
            path = str(tmp_path / f"w{n_workers}.tcsr")
            write_tcsr(events, path, chunk_events=256, n_workers=n_workers)
            with open(path, "rb") as f:
                blobs.append(f.read())
        assert blobs[0] == blobs[1]


# ----------------------------------------------------------------------
# mapped event set
# ----------------------------------------------------------------------
class TestMappedEventSet:
    def test_time_slice_parity(self, tmp_path):
        events = random_events(n_vertices=30, n_events=3_000, seed=29)
        path = roundtrip(tmp_path, events, time_index_stride=64)
        mapped = open_events(path)
        probes = [(-1, 0), (0, 0), (100, 5_000), (9_999, 10_001),
                  (4_000, 4_000), (20_000, 30_000)]
        for lo, hi in probes:
            assert mapped.time_slice_indices(lo, hi) == \
                events.time_slice_indices(lo, hi), (lo, hi)
        mapped.close()

    def test_pickle_reopens_by_path(self, tmp_path):
        events = random_events(n_vertices=15, n_events=200, seed=31)
        path = roundtrip(tmp_path, events)
        mapped = open_events(path)
        clone = pickle.loads(pickle.dumps(mapped))
        assert isinstance(clone, MappedEventSet)
        np.testing.assert_array_equal(clone.time, mapped.time)
        assert len(pickle.dumps(mapped)) < 1_000  # path, not arrays

    def test_is_mmap_backed(self, tmp_path):
        events = random_events(n_vertices=15, n_events=200, seed=37)
        mapped = open_events(roundtrip(tmp_path, events))
        assert is_mmap_backed(mapped.time)
        assert not is_mmap_backed(events.time)


# ----------------------------------------------------------------------
# rejection of damaged artifacts
# ----------------------------------------------------------------------
def edit_entry(name, key, value):
    """A layout-table edit: set one array entry's ``key`` to ``value``
    (``None`` deletes it)."""
    def mutate(table):
        for e in table["arrays"]:
            if e["name"] == name:
                if value is None:
                    del e[key]
                else:
                    e[key] = value
        return table

    return mutate


class TestRejection:
    def _valid(self, tmp_path):
        events = random_events(n_vertices=10, n_events=150, seed=41)
        return roundtrip(tmp_path, events)

    def test_too_short(self, tmp_path):
        path = str(tmp_path / "short.tcsr")
        with open(path, "wb") as f:
            f.write(MAGIC[:4])
        with pytest.raises(ValidationError, match="too short"):
            TcsrFile(path)
        assert not is_tcsr(path)

    def test_bad_magic(self, tmp_path):
        path = self._valid(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[:8] = b"NOTATCSR"
        open(path, "wb").write(bytes(data))
        with pytest.raises(ValidationError, match="magic"):
            TcsrFile(path)
        assert not is_tcsr(path)

    def test_truncated_body(self, tmp_path):
        path = self._valid(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(ValidationError):
            TcsrFile(path)

    def test_unfinalized(self, tmp_path):
        path = self._valid(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[12] = 0  # clear the flags word (little-endian bit 0)
        open(path, "wb").write(bytes(data))
        with pytest.raises(ValidationError, match="finalized"):
            TcsrFile(path)

    def test_bad_version(self, tmp_path):
        path = self._valid(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[8] = 99
        open(path, "wb").write(bytes(data))
        with pytest.raises(ValidationError, match="version"):
            TcsrFile(path)

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_v1_artifact_asks_for_a_rebuild(self, tmp_path, version):
        # v1 stored a second, push-style CSR and v2 a whole-horizon
        # in-CSR; their preambles are the same as v3's
        path = self._valid(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[8] = version
        open(path, "wb").write(bytes(data))
        with pytest.raises(
            ValidationError, match=f"version {version} .*need v3.*rebuild"
        ):
            TcsrFile(path)

    @staticmethod
    def _rewrite_table(path, mutate):
        """Replace the layout table with ``mutate(table)`` (well-formed
        JSON) and point the preamble at it."""
        with open(path, "rb") as f:
            data = bytearray(f.read())
        fields = list(io_mod._PREAMBLE.unpack(data[: io_mod._PREAMBLE.size]))
        table_offset, table_len = fields[5], fields[6]
        table = json.loads(data[table_offset: table_offset + table_len])
        payload = json.dumps(mutate(table)).encode()
        fields[6] = len(payload)
        data[: io_mod._PREAMBLE.size] = io_mod._PREAMBLE.pack(*fields)
        with open(path, "wb") as f:
            f.write(bytes(data[:table_offset]) + payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            edit_entry("ev_src", "shape", None),
            edit_entry("ev_time", "dtype", "garbage"),
            lambda table: table["arrays"],
            edit_entry("ev_dst", "offset", -64),
            edit_entry("ev_src", "dtype", "<f8"),
            edit_entry("ev_src", "shape", [1]),
        ],
        ids=[
            "missing-shape", "garbage-dtype", "table-is-list",
            "negative-offset", "float-col", "short-shape",
        ],
    )
    def test_layout_table_must_match_preamble(self, tmp_path, mutate):
        path = self._valid(tmp_path)
        TcsrFile(path).close()
        self._rewrite_table(path, mutate)
        with pytest.raises(ValidationError, match="layout table"):
            TcsrFile(path)

    def test_not_a_file(self, tmp_path):
        assert not is_tcsr(str(tmp_path / "missing.tcsr"))


# ----------------------------------------------------------------------
# memory honesty
# ----------------------------------------------------------------------
class TestMemoryHonesty:
    def test_graph_from_mapped_slice_is_heap(self, tmp_path):
        # compaction copies the mapped slice, so a graph's bytes are
        # exactly its arrays' bytes, all of them heap
        events = random_events(n_vertices=25, n_events=500, seed=43)
        mapped = open_events(roundtrip(tmp_path, events))
        spec = WindowSpec.covering(events, delta=2_000, sw=500)
        for g in LazyMultiWindowPartition(mapped, spec, 3):
            arrays = [getattr(g.adjacency.in_csr, name) for name in CSR_ARRAYS]
            arrays.append(g.global_ids)
            assert not any(is_mmap_backed(a) for a in arrays)
            assert g.memory_bytes() == sum(a.nbytes for a in arrays)
        mapped.close()

    def test_memory_report_splits_residency(self, tmp_path):
        events = random_events(n_vertices=25, n_events=2_000, seed=47)
        path = roundtrip(tmp_path, events)
        spec = WindowSpec.covering(events, delta=2_000, sw=500)
        from repro.analysis import memory_report

        in_ram = memory_report(LazyMultiWindowPartition(events, spec, 3))
        assert in_ram.peak_transient_bytes > 0
        assert in_ram.raw_event_mapped_bytes == 0

        mapped = open_events(path)
        report = memory_report(LazyMultiWindowPartition(mapped, spec, 3))
        assert report.peak_transient_bytes > 0
        assert report.raw_event_mapped_bytes == 3 * 8 * len(events)
        mapped.close()


# ----------------------------------------------------------------------
# zero-copy shared publication
# ----------------------------------------------------------------------
class TestSharedZeroCopy:
    def test_mapped_arrays_publish_as_handles(self, tmp_path):
        from repro.parallel.shared_arena import (
            MappedArenaHandle,
            SharedArenaRegistry,
            attach_arena,
        )

        events = random_events(n_vertices=20, n_events=400, seed=59)
        mapped = open_events(roundtrip(tmp_path, events))
        registry = SharedArenaRegistry()
        try:
            handle = registry.publish(
                {"src": mapped.src, "dst": mapped.dst, "time": mapped.time}
            )
            assert isinstance(handle, MappedArenaHandle)
            assert registry.total_bytes == 0  # no shm copied
            assert registry.mapped_bytes == 3 * mapped.time.nbytes
            view = attach_arena(handle)
            np.testing.assert_array_equal(
                view.shared_view("time"), mapped.time
            )
            assert len(pickle.dumps(handle)) < 2_000
        finally:
            registry.close()
            mapped.close()

    def test_sliced_memmap_publishes_with_correct_offset(self, tmp_path):
        """Slicing a memmap yields another memmap whose inherited
        ``offset`` attribute is stale — the descriptor must locate the
        slice by data pointer against the root mapping (the shard
        coordinator publishes exactly such row slices)."""
        from repro.parallel.shared_arena import (
            MappedArenaHandle,
            SharedArenaRegistry,
            attach_arena,
        )

        events = random_events(n_vertices=20, n_events=400, seed=61)
        mapped = open_events(roundtrip(tmp_path, events))
        registry = SharedArenaRegistry()
        try:
            sliced = np.ascontiguousarray(mapped.time[100:300])
            handle = registry.publish({"t": sliced})
            assert isinstance(handle, MappedArenaHandle)
            view = attach_arena(handle)
            np.testing.assert_array_equal(
                view.shared_view("t"), np.asarray(mapped.time[100:300])
            )
        finally:
            registry.close()
            mapped.close()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_generate_run_inspect_tcsr(self, tmp_path):
        art = str(tmp_path / "ab.tcsr")
        out = io.StringIO()
        assert main(
            ["generate", "askubuntu", "--scale", "0.05", "--out", art],
            out=out,
        ) == 0
        assert "wrote" in out.getvalue() and is_tcsr(art)

        out = io.StringIO()
        assert main(["inspect", art], out=out) == 0
        dump = out.getvalue()
        assert "tcsr v3" in dump and "TCSRART1" in dump
        assert "ev_src" in dump and "time-index" in dump

        out = io.StringIO()
        assert main(
            ["run", art, "--delta-days", "90", "--sw",
             "172800", "--max-windows", "6"],
            out=out,
        ) == 0
        assert "postmortem" in out.getvalue()

    def test_run_requires_exactly_one_input(self, capsys):
        assert main(
            ["run", "--delta-days", "90", "--sw", "172800"], out=io.StringIO()
        ) == 1
        # a .tcsr artifact is passed positionally; there is no second flag
        with pytest.raises(SystemExit):
            main(["run", "--graph", "x.tcsr", "--delta-days", "90",
                  "--sw", "172800"])

    def test_positional_events_sniffs_tcsr(self, tmp_path):
        art = str(tmp_path / "x.tcsr")
        main(["generate", "askubuntu", "--scale", "0.05", "--out", art])
        out = io.StringIO()
        assert main(["info", art], out=out) == 0
        assert "events" in out.getvalue()

    def test_xl_profile_listed(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        assert "askubuntu-xl" in out.getvalue()
