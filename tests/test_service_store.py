"""Tests for the on-disk rank store (repro.service.store)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import ReproError, ValidationError
from repro.events import WindowSpec
from repro.models import PostmortemDriver, WindowResult
from repro.service import RankStore, RankStoreWriter, write_store
from repro.service.store import PREAMBLE_SIZE, is_rank_store


@pytest.fixture
def run_and_spec(events, spec, config):
    run = PostmortemDriver(events, spec, config).run()
    return run, spec


class TestWriter:
    def test_rows_out_of_order(self, tmp_path):
        path = tmp_path / "s.rankstore"
        rng = np.random.default_rng(0)
        rows = rng.random((5, 8)).astype(np.float32)
        with RankStoreWriter(path, n_windows=5, n_vertices=8) as w:
            for i in (3, 0, 4, 1, 2):
                w.write_window(i, rows[i])
        store = RankStore(path)
        assert np.array_equal(np.asarray(store.matrix), rows)

    def test_missing_window_fails_close(self, tmp_path):
        w = RankStoreWriter(tmp_path / "s.rankstore", n_windows=3,
                            n_vertices=4)
        w.write_window(0, np.zeros(4))
        w.write_window(2, np.zeros(4))
        with pytest.raises(ValidationError, match="1 windows never written"):
            w.close()

    def test_wrong_shape_rejected(self, tmp_path):
        with RankStoreWriter(tmp_path / "s.rankstore", n_windows=1,
                             n_vertices=4) as w:
            with pytest.raises(ValidationError, match="expected shape"):
                w.write_window(0, np.zeros(5))
            w.write_window(0, np.zeros(4))

    def test_window_index_out_of_range(self, tmp_path):
        w = RankStoreWriter(tmp_path / "s.rankstore", n_windows=2,
                            n_vertices=4)
        with pytest.raises(ValidationError, match="out of range"):
            w.write_window(2, np.zeros(4))
        w.abort()

    def test_spec_window_count_mismatch(self, tmp_path, spec):
        with pytest.raises(ValidationError, match="windows"):
            RankStoreWriter(tmp_path / "s.rankstore",
                            n_windows=spec.n_windows + 1, n_vertices=4,
                            spec=spec)

    def test_write_after_close_rejected(self, tmp_path):
        with RankStoreWriter(tmp_path / "s.rankstore", n_windows=1,
                             n_vertices=2) as w:
            w.write_window(0, np.zeros(2))
        with pytest.raises(ValidationError, match="closed"):
            w.write_window(0, np.zeros(2))

    def test_bad_dtype_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="float32 or float64"):
            RankStoreWriter(tmp_path / "s.rankstore", n_windows=1,
                            n_vertices=2, dtype=np.int32)


class TestReader:
    def test_not_a_store(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\0" * 256)
        with pytest.raises(ValidationError, match="bad magic"):
            RankStore(path)
        assert not is_rank_store(path)
        assert not is_rank_store(tmp_path / "missing")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.rankstore"
        path.write_bytes(b"RANKSTR1")
        with pytest.raises(ValidationError, match="too short"):
            RankStore(path)

    def test_truncations_and_bit_flips_fail_typed(self, tmp_path):
        """Every truncation, and every single-bit flip outside the matrix
        bytes (the format has no checksum over them), either raises a
        ``ReproError`` or opens a store whose rows are bitwise the rows
        written."""
        path = tmp_path / "s.rankstore"
        rows = np.random.default_rng(3).random((5, 7))
        with RankStoreWriter(path, n_windows=5, n_vertices=7,
                             spec=WindowSpec(0, 100, 50, 5),
                             dtype=np.float64) as w:
            for i, row in enumerate(rows):
                w.write_window(i, row, meta=WindowResult(
                    i, row, iterations=i + 1, converged=True,
                    residual=1e-9, n_active_vertices=7,
                    n_active_edges=3 * i,
                ))
        data = path.read_bytes()
        bad = tmp_path / "bad.rankstore"

        def rejected_or_intact(blob: bytes) -> bool:
            bad.write_bytes(blob)
            try:
                store = RankStore(bad)
            except ReproError:
                return True
            with store:
                store.info()
                return np.asarray(store.matrix).tobytes() == rows.tobytes()

        assert rejected_or_intact(data) and RankStore(path).n_windows == 5
        for n in range(len(data)):
            assert rejected_or_intact(data[:n]), f"truncated to {n} bytes"
        matrix_end = PREAMBLE_SIZE + rows.nbytes
        for byte in [*range(PREAMBLE_SIZE), *range(matrix_end, len(data))]:
            for bit in range(8):
                blob = bytearray(data)
                blob[byte] ^= 1 << bit
                assert rejected_or_intact(bytes(blob)), (byte, bit)

    def test_unfinalized_store_rejected(self, tmp_path):
        path = tmp_path / "s.rankstore"
        w = RankStoreWriter(path, n_windows=1, n_vertices=2)
        w.write_window(0, np.zeros(2))
        w.abort()  # close() never ran: index_offset still 0
        with pytest.raises(ValidationError, match="never finalized"):
            RankStore(path)

    def test_row_is_mmap_view(self, tmp_path):
        with RankStoreWriter(tmp_path / "s.rankstore", n_windows=2,
                             n_vertices=8) as w:
            w.write_window(0, np.arange(8))
            w.write_window(1, np.arange(8) * 2)
        store = RankStore(tmp_path / "s.rankstore")
        row = store.row(1)
        assert isinstance(store.matrix, np.memmap)
        assert not row.flags["OWNDATA"]
        assert row[3] == pytest.approx(6.0)

    def test_windows_at_requires_intervals(self, tmp_path):
        with RankStoreWriter(tmp_path / "s.rankstore", n_windows=1,
                             n_vertices=2) as w:
            w.write_window(0, np.zeros(2))
        store = RankStore(tmp_path / "s.rankstore")
        with pytest.raises(ValidationError, match="no window intervals"):
            store.windows_at(0)

    def test_windows_at_matches_spec(self, tmp_path, spec):
        with RankStoreWriter(tmp_path / "s.rankstore",
                             n_windows=spec.n_windows, n_vertices=2,
                             spec=spec) as w:
            for i in range(spec.n_windows):
                w.write_window(i, np.zeros(2))
        store = RankStore(tmp_path / "s.rankstore")
        for t in (spec.t0 - 1, spec.t0, spec.t0 + spec.delta,
                  spec.t_end, spec.t_end + 1):
            expected = spec.windows_containing(t)
            assert np.array_equal(store.windows_at(t), expected)


class TestRoundTrip:
    """Acceptance: served ranks are bitwise-equal to the run's vectors."""

    def test_float64_store_is_bitwise_exact(self, tmp_path, run_and_spec):
        run, spec = run_and_spec
        path = tmp_path / "exact.rankstore"
        write_store(run, path, spec=spec, dtype=np.float64)
        store = RankStore(path)
        assert store.n_windows == spec.n_windows
        for w in run.windows:
            assert np.array_equal(
                np.asarray(store.row(w.window_index)), w.values
            )
            meta = store.window_meta(w.window_index)
            assert meta["iterations"] == w.iterations
            assert meta["converged"] == w.converged
            assert meta["residual"] == pytest.approx(w.residual)
            assert meta["n_active_vertices"] == w.n_active_vertices
            assert meta["n_active_edges"] == w.n_active_edges

    def test_float32_store_matches_cast(self, tmp_path, run_and_spec):
        run, spec = run_and_spec
        path = tmp_path / "f32.rankstore"
        write_store(run, path, spec=spec)
        store = RankStore(path)
        for w in run.windows:
            assert np.array_equal(
                np.asarray(store.row(w.window_index)),
                w.values.astype(np.float32),
            )

    def test_store_values_false_refused(self, events, spec, config,
                                        tmp_path):
        run = PostmortemDriver(events, spec, config).run(store_values=False)
        with pytest.raises(ValidationError, match="store_values=False"):
            write_store(run, tmp_path / "x.rankstore")


class TestDriverSink:
    """The streaming writer hook on the postmortem driver."""

    def test_sink_equals_write_store(self, events, spec, config, tmp_path):
        driver = PostmortemDriver(events, spec, config)
        eager = tmp_path / "eager.rankstore"
        streamed = tmp_path / "streamed.rankstore"

        run = driver.run()
        write_store(run, eager, spec=spec, dtype=np.float64)

        with RankStoreWriter(streamed, n_windows=spec.n_windows,
                             n_vertices=events.n_vertices, spec=spec,
                             dtype=np.float64) as writer:
            run2 = driver.run(store_values=False,
                              value_sink=writer.write_window)
        assert all(w.values is None for w in run2.windows)

        a, b = RankStore(eager), RankStore(streamed)
        assert np.array_equal(np.asarray(a.matrix), np.asarray(b.matrix))
        for i in range(spec.n_windows):
            assert a.window_meta(i) == b.window_meta(i)

    def test_streaming_peak_memory_independent_of_window_count(
        self, tmp_path
    ):
        """Acceptance: the sink path never holds the full matrix."""
        n_vertices = 20_000
        row = np.random.default_rng(0).random(n_vertices)

        def peak_for(n_windows: int) -> int:
            writer = RankStoreWriter(
                tmp_path / f"m{n_windows}.rankstore",
                n_windows=n_windows, n_vertices=n_vertices,
            )
            tracemalloc.start()
            for i in range(n_windows):
                writer.write_window(i, row)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            writer.close()
            return peak

        few, many = peak_for(8), peak_for(64)
        row_bytes = n_vertices * 4
        # peak stays within a few rows regardless of window count
        assert many < 8 * row_bytes
        assert many < few * 2 + row_bytes


class TestCliIntegration:
    def test_run_store_save_inspect_roundtrip(self, tmp_path):
        import io

        from repro.cli import main

        events_path = tmp_path / "ev.tsv"
        store_path = tmp_path / "ev.rankstore"
        assert main(
            ["generate", "askubuntu", "--scale", "0.05", "--out",
             str(events_path)],
            out=io.StringIO(),
        ) == 0
        out = io.StringIO()
        assert main(
            ["run", str(events_path), "--delta-days", "180",
             "--sw", "5184000", "--max-windows", "6",
             "--store", str(store_path), "--store-dtype", "float64"],
            out=out,
        ) == 0
        assert "wrote rank store" in out.getvalue()

        out = io.StringIO()
        assert main(["inspect", str(store_path)], out=out) == 0
        assert "rankstore v1" in out.getvalue()
        assert "float64" in out.getvalue()

        # the event text file is neither binary artifact
        assert main(["inspect", str(events_path)], out=io.StringIO()) == 1

        out = io.StringIO()
        assert main(
            ["query", str(store_path), "top-k", "--window", "1", "-k", "3"],
            out=out,
        ) == 0
        assert "top-3 of window 1" in out.getvalue()

        out = io.StringIO()
        assert main(
            ["query", str(store_path), "trajectory", "--vertex", "0",
             "--start", "0", "--stop", "4"],
            out=out,
        ) == 0
        assert "trajectory of vertex 0" in out.getvalue()

        out = io.StringIO()
        assert main(
            ["query", str(store_path), "movers", "--from", "0", "--to",
             "1"],
            out=out,
        ) == 0
        assert "movers 0 -> 1" in out.getvalue()

    def test_query_bad_window_exits_nonzero(self, tmp_path):
        import io

        from repro.cli import main

        path = tmp_path / "s.rankstore"
        with RankStoreWriter(path, n_windows=1, n_vertices=4) as w:
            w.write_window(0, np.ones(4))
        assert main(
            ["query", str(path), "top-k", "--window", "9"],
            out=io.StringIO(),
        ) == 1
