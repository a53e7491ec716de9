"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def events_file(tmp_path):
    path = tmp_path / "events.tsv"
    rc = main(
        ["generate", "askubuntu", "--scale", "0.05", "--out", str(path)],
        out=io.StringIO(),
    )
    assert rc == 0
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompile"])


class TestGenerate:
    def test_tsv_output(self, tmp_path):
        path = tmp_path / "events.tsv"
        out = io.StringIO()
        rc = main(
            ["generate", "askubuntu", "--scale", "0.05", "--out", str(path)],
            out=out,
        )
        assert rc == 0
        assert path.exists()
        assert "wrote" in out.getvalue()

    def test_npz_format_rejected(self, tmp_path, capsys):
        """``.tcsr`` and ``.tsv`` are the event formats."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["generate", "askubuntu", "--format", "npz",
                 "--out", str(tmp_path / "x.npz")]
            )
        assert exc.value.code == 2
        assert "'auto', 'tsv', 'tcsr'" in capsys.readouterr().err

    def test_unknown_profile_fails(self, tmp_path):
        rc = main(
            ["generate", "nope", "--out", str(tmp_path / "x.tsv")],
            out=io.StringIO(),
        )
        assert rc == 1


class TestListInfo:
    def test_list(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "wiki-talk" in text and "ia-enron-email" in text

    def test_info(self, events_file):
        out = io.StringIO()
        assert main(["info", events_file], out=out) == 0
        text = out.getvalue()
        assert "events" in text and "shape class" in text

    def test_info_missing_file(self):
        assert main(["info", "/nonexistent.tsv"], out=io.StringIO()) == 1


class TestRun:
    def test_run_prints_windows(self, events_file):
        out = io.StringIO()
        rc = main(
            [
                "run",
                events_file,
                "--delta-days", "180",
                "--sw", "5184000",
                "--top", "2",
                "--max-windows", "10",
            ],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "postmortem pagerank over 10 windows" in text
        assert "top-2" in text
        assert "build" in text

    def test_run_options(self, events_file):
        out = io.StringIO()
        rc = main(
            [
                "run",
                events_file,
                "--delta-days", "180",
                "--sw", "5184000",
                "--kernel", "spmv",
                "--partition", "minimax",
                "--max-windows", "6",
            ],
            out=out,
        )
        assert rc == 0

    def test_bare_run_is_a_default_options_run(self, events_file, tmp_path):
        """With no ``--kernel`` or ``--vector-length``, ``run`` writes the
        same store as ``PostmortemDriver`` under default options, and
        prints the widths the run chose."""
        from repro.cli import _load_events
        from repro.events import WindowSpec
        from repro.models import PostmortemDriver
        from repro.pagerank import PagerankConfig
        from repro.service import RankStoreWriter

        cli_store = tmp_path / "cli.rankstore"
        out = io.StringIO()
        rc = main(
            ["run", events_file, "--delta-days", "180", "--sw", "5184000",
             "--max-windows", "10", "--store", str(cli_store),
             "--store-dtype", "float64"],
            out=out,
        )
        assert rc == 0
        assert "lockstep: widths [" in out.getvalue()
        events = _load_events(events_file)
        covering = WindowSpec.covering_days(events, 180, 5184000)
        spec = WindowSpec(covering.t0, covering.delta, covering.sw,
                          min(covering.n_windows, 10))
        lib_store = tmp_path / "lib.rankstore"
        with RankStoreWriter(lib_store, spec.n_windows, events.n_vertices,
                             spec=spec, dtype="float64") as writer:
            PostmortemDriver(events, spec, PagerankConfig()).run(
                value_sink=writer.write_window
            )
        assert cli_store.read_bytes() == lib_store.read_bytes()

    def test_npz_input_fails(self, tmp_path, capsys):
        """An ``.npz`` archive is no event input: it raises a typed error
        naming the event formats, and ``run`` exits 1 through the CLI's
        ``error:`` path."""
        import numpy as np

        from repro.cli import _load_events
        from repro.errors import ValidationError

        path = tmp_path / "x.npz"
        np.savez(path, src=np.array([0]), dst=np.array([1]),
                 time=np.array([5]), n_vertices=np.int64(2))
        with pytest.raises(ValidationError, match="event inputs are"):
            _load_events(str(path))
        rc = main(
            ["run", str(path), "--delta-days", "1", "--sw", "86400"],
            out=io.StringIO(),
        )
        assert rc == 1
        message = capsys.readouterr().err
        assert message.startswith("error: ")
        assert ".tsv text or a .tcsr event log" in message

    def test_run_has_no_archive_flags(self, capsys):
        for flag in ("--save", "--no-compress"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(
                    ["run", "x.tsv", "--delta-days", "1", "--sw", "1",
                     flag, "run.npz"]
                )
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


class TestCompareSweep:
    def test_compare(self, events_file):
        out = io.StringIO()
        rc = main(
            [
                "compare",
                events_file,
                "--delta-days", "180",
                "--sw", "5184000",
                "--max-windows", "8",
            ],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "streaming" in text and "postmortem vs streaming" in text

    def test_sweep(self, events_file):
        out = io.StringIO()
        rc = main(
            [
                "sweep",
                events_file,
                "--delta-days", "180",
                "--sw", "5184000",
                "--max-windows", "8",
                "--workers", "8",
            ],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "simulated makespan" in text and "best:" in text


def _write_store(directory):
    """Write ``run.rankstore`` (6 windows x 30 vertices) into
    ``directory`` and return the directory."""
    import numpy as np

    from repro.service import RankStoreWriter

    rng = np.random.default_rng(3)
    path = directory / "run.rankstore"
    with RankStoreWriter(path, n_windows=6, n_vertices=30) as w:
        for i in range(6):
            row = rng.random(30)
            w.write_window(i, row / row.sum())
    return directory


@pytest.fixture
def rankstore_dir(tmp_path):
    """A directory holding one rank store written through the runtime."""
    return _write_store(tmp_path)


class TestStoreDiscovery:
    def test_file_resolves_to_itself(self, rankstore_dir):
        from repro.runtime import discover_rank_store

        path = str(rankstore_dir / "run.rankstore")
        assert discover_rank_store(path) == path

    def test_directory_with_one_store(self, rankstore_dir):
        from repro.runtime import discover_rank_store

        assert discover_rank_store(str(rankstore_dir)).endswith(
            "run.rankstore"
        )

    def test_empty_directory_errors(self, tmp_path):
        from repro.errors import ValidationError
        from repro.runtime import discover_rank_store

        with pytest.raises(ValidationError, match="no rank stores"):
            discover_rank_store(str(tmp_path))

    def test_ambiguous_directory_lists_candidates(self, rankstore_dir):
        import shutil

        from repro.errors import ValidationError
        from repro.runtime import discover_rank_store

        shutil.copy(
            rankstore_dir / "run.rankstore",
            rankstore_dir / "other.rankstore",
        )
        with pytest.raises(ValidationError) as err:
            discover_rank_store(str(rankstore_dir))
        message = str(err.value)
        assert "run.rankstore" in message
        assert "other.rankstore" in message
        assert "6 windows x 30 vertices" in message

    def test_non_store_file_errors(self, tmp_path):
        from repro.errors import ValidationError
        from repro.runtime import discover_rank_store

        bogus = tmp_path / "x.rankstore"
        bogus.write_bytes(b"not a store")
        with pytest.raises(ValidationError, match="bad magic"):
            discover_rank_store(str(bogus))

    def test_serve_has_no_verbose_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "x.rankstore", "--verbose"])
        assert exc.value.code == 2
        assert "--verbose" in capsys.readouterr().err

    def test_serve_cli_reports_discovery_error(self, tmp_path):
        rc = main(["serve", str(tmp_path), "--port", "0"],
                  out=io.StringIO())
        assert rc == 1


def _spawn_serve(store, *options):
    """Start ``repro serve store *options`` on an ephemeral port; return
    the process and its URL once ``/healthz`` answers."""
    import os
    import re
    import subprocess
    import sys
    import time
    import urllib.request

    repo_src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(store),
         "--port", "0", *options],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:\d+", banner)
    assert match, f"no URL in banner: {banner!r} (rc={proc.poll()})"
    url = match.group(0)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=1):
                break
        except OSError:
            time.sleep(0.1)
    else:
        proc.kill()
        raise AssertionError("server never became healthy")
    return proc, url


def _children_of(pid):
    import subprocess

    out = subprocess.run(
        ["ps", "-o", "pid=", "--ppid", str(pid)],
        capture_output=True, text=True,
    ).stdout
    return [int(tok) for tok in out.split()]


def _wait_dead(pids, timeout=10.0):
    import os
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            alive.append(pid)
        if not alive:
            return []
        time.sleep(0.2)
    return alive


def _segments(pid):
    from pathlib import Path

    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    return list(shm.glob(f"repro_arena_{pid}_*"))


def _reap(proc):
    """Whatever a test proved or failed to prove, leave nothing behind:
    kill the server if still up, then sweep any segments its pid
    published (SIGKILL skips the parent's own unlink)."""
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=15)
    proc.stdout.close()
    _wait_dead(_children_of(proc.pid))
    for seg in _segments(proc.pid):
        seg.unlink()


@pytest.fixture(scope="module")
def default_serve(tmp_path_factory):
    """``repro serve STORE`` with every option at its default."""
    proc, url = _spawn_serve(_write_store(tmp_path_factory.mktemp("srv")))
    yield url
    _reap(proc)


class TestBenchTraffic:
    def test_one_shot_against_server(self, default_serve):
        out = io.StringIO()
        rc = main(
            [
                "bench-traffic", default_serve,
                "--requests", "60",
                "--concurrency", "3",
                "--seed", "1",
            ],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "qps" in text and "p99_ms" in text

    def test_json_output_and_mix(self, default_serve):
        import json as json_mod

        out = io.StringIO()
        rc = main(
            [
                "bench-traffic", default_serve,
                "--requests", "40",
                "--mix", "top_k=1.0",
                "--json",
            ],
            out=out,
        )
        assert rc == 0
        payload = json_mod.loads(out.getvalue())
        assert payload["total"] == 40
        assert payload["errors"] == 0
        assert list(payload["ops"]) == ["top_k"]

    def test_bad_mix_errors(self, default_serve):
        rc = main(
            ["bench-traffic", default_serve, "--mix", "top_k"],
            out=io.StringIO(),
        )
        assert rc == 1


class TestServeTeardown:
    """The CLI server against real process signals.

    `kill` (SIGTERM) must tear the server down like Ctrl-C — workers
    reaped, shm segments unlinked.  SIGKILL skips all cleanup by
    definition; the workers' getppid() watch must still reap them (the
    parent-side pipe fds they inherit from forked siblings mean EOF
    never arrives), though the segments leak until an external sweep.
    """

    def test_default_serve_matches_engine(self, rankstore_dir):
        """No options: one shard answers the whole query surface exactly
        as one in-process engine does, then exits clean on SIGTERM."""
        import json
        import signal
        import urllib.request

        from repro.service import QueryEngine

        queries = (
            [{"op": "top_k", "window": w, "k": 4} for w in range(6)]
            + [{"op": "rank", "vertex": v, "window": v % 6}
               for v in range(30)]
            + [{"op": "trajectory", "vertex": 7},
               {"op": "trajectory", "vertex": 2, "start": 1, "stop": 4},
               {"op": "movers", "from": 0, "to": 5, "k": 5},
               {"op": "windows_at", "t": 0},
               {"op": "top_k", "window": 6},
               {"op": "nope"}]
        )
        proc, url = _spawn_serve(rankstore_dir)
        try:
            with urllib.request.urlopen(url + "/store", timeout=10) as r:
                assert json.loads(r.read())["shards"] == 1
            request = urllib.request.Request(
                url + "/batch", data=json.dumps(queries).encode()
            )
            with urllib.request.urlopen(request, timeout=10) as r:
                served = json.loads(r.read())["results"]
            engine = QueryEngine(str(rankstore_dir / "run.rankstore"))
            try:
                expected = json.loads(json.dumps(engine.batch(queries)))
            finally:
                engine.close()
            assert served == expected
            workers = _children_of(proc.pid)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
            assert "shutting down" in proc.stdout.read()
            assert _wait_dead(workers) == []
            assert _segments(proc.pid) == []
        finally:
            _reap(proc)

    def test_sigterm_is_graceful(self, rankstore_dir):
        import signal

        proc, _ = _spawn_serve(rankstore_dir, "--shards", "2")
        try:
            # 2 shard workers + multiprocessing's resource tracker
            workers = _children_of(proc.pid)
            assert len(workers) >= 2
            # a file-backed store publishes zero-copy mapped handles:
            # no shm segments exist at any point in the serve lifetime
            assert _segments(proc.pid) == []
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
            output = proc.stdout.read()
            assert "shutting down" in output
            assert _wait_dead(workers) == []
            assert _segments(proc.pid) == []
        finally:
            _reap(proc)

    def test_sigkilled_parent_reaps_workers(self, rankstore_dir):
        import signal

        proc, _ = _spawn_serve(rankstore_dir, "--shards", "2")
        try:
            workers = _children_of(proc.pid)
            assert len(workers) >= 2
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=15)
            # the getppid() watch polls every second; give it a few
            assert _wait_dead(workers, timeout=10.0) == []
        finally:
            _reap(proc)
