"""Out-of-core `.tcsr` construction and postmortem: throughput + RSS.

The question this bench answers: **does the memory-mapped input path
actually bound resident memory while staying bitwise-correct?**  Three
measurements:

* **parity** (small scale, in-process) — the artifact's event log equals
  the in-RAM `TemporalEventSet` array-for-array, and a postmortem run
  from the mapped event set is bitwise-identical to the in-RAM run;
* **build** (subprocess) — `generate_tcsr` at ``REPRO_OOC_EVENTS`` events
  (default 1,000,000; the committed baseline ran at 10,000,000), peak
  ``ru_maxrss`` net of interpreter startup must stay under 50% of the
  artifact's array bytes plus a fixed allocator slack;
* **run** (subprocess) — a serial postmortem over the whole artifact
  under the same RSS bound: only the pages windows touch (the event log
  plus one transient compact graph at a time) ever become resident.

Each RSS probe runs in its own child process (``python -m
benchmarks.bench_outofcore --child ...``) so `ru_maxrss` — a
process-lifetime high-water mark — measures that workload alone; a
`baseline` child measures interpreter + import cost, which is subtracted.

Wall-clock throughput (events/s) is printed but not asserted; the
guarded metrics in ``check_regression.py`` are the parity and RSS-bound
flags, which depend only on the code.

Run:  pytest benchmarks/bench_outofcore.py -s
Scale up:  REPRO_OOC_EVENTS=10000000 pytest benchmarks/bench_outofcore.py -s
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

#: total events in the subprocess build/run probes; the committed
#: baseline (BENCH_outofcore.json) was generated at 10_000_000
N_EVENTS = int(os.environ.get("REPRO_OOC_EVENTS", "1000000"))

#: the probes scale this profile (20_000 base events) up to N_EVENTS
PROFILE = "askubuntu"

#: net peak RSS must stay under HALF the mapped array bytes, plus a fixed
#: allowance for allocator fragmentation and numpy scratch — the slack
#: dominates at smoke scale, the 50% term at baseline scale
RSS_FRACTION = 0.5
RSS_SLACK_BYTES = 96 * 1024 * 1024

#: chunk size for the build probe.  The builder's working set is
#: O(chunk_events x n_workers) -- each worker holds a handful of
#: chunk-sized temporaries (sort order, gathers) plus the dirty mapped
#: pages it is about to drop -- so the probe picks a chunk that keeps
#: 4 workers' transients well under the RSS bound while still being
#: large enough that chunking genuinely engages at smoke scale.
CHUNK_EVENTS = min(max(N_EVENTS // 16, 65_536), 1_000_000)

DELTA_DAYS = 180
SW_SECONDS = 30 * 86_400
MAX_WINDOWS = 48
N_MULTIWINDOWS = 8


def _scale() -> float:
    from repro.datasets import get_profile

    return N_EVENTS / get_profile(PROFILE).n_events


def _rss_bytes() -> int:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _spec(events):
    from repro.events import WindowSpec

    spec = WindowSpec.covering_days(events, DELTA_DAYS, SW_SECONDS)
    if spec.n_windows > MAX_WINDOWS:
        spec = WindowSpec(spec.t0, spec.delta, spec.sw, MAX_WINDOWS)
    return spec


# ----------------------------------------------------------------------
# child probes (each runs in a fresh interpreter)
# ----------------------------------------------------------------------

def _child_baseline() -> dict:
    """Import cost + interpreter footprint, nothing else."""
    import repro.models  # noqa: F401  (the run probe's import set)

    return {"rss_bytes": _rss_bytes()}


def _child_build(path: str) -> dict:
    from repro.datasets import get_profile
    from repro.graph.io import TcsrFile

    t0 = time.perf_counter()
    get_profile(PROFILE).generate_tcsr(
        path, scale=_scale(), chunk_events=CHUNK_EVENTS
    )
    seconds = time.perf_counter() - t0
    with TcsrFile(path) as artifact:
        n_events = artifact.n_events
        array_bytes = artifact.stored_bytes()
    return {
        "rss_bytes": _rss_bytes(),
        "seconds": seconds,
        "n_events": n_events,
        "array_bytes": array_bytes,
        "chunk_events": CHUNK_EVENTS,
    }


def _child_run(path: str) -> dict:
    from repro.graph.io import open_events
    from repro.models import PostmortemDriver, PostmortemOptions
    from repro.pagerank import PagerankConfig

    events = open_events(path)
    spec = _spec(events)
    opts = PostmortemOptions(n_multiwindows=N_MULTIWINDOWS)
    cfg = PagerankConfig(tolerance=1e-6, max_iterations=60)
    t0 = time.perf_counter()
    run = PostmortemDriver(events, spec, cfg, opts).run(store_values=False)
    seconds = time.perf_counter() - t0
    return {
        "rss_bytes": _rss_bytes(),
        "seconds": seconds,
        "n_windows": spec.n_windows,
        "total_iterations": run.total_iterations,
    }


_CHILDREN = {
    "baseline": _child_baseline,
    "build": _child_build,
    "run": _child_run,
}


def _spawn(mode: str, *args: str) -> dict:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.bench_outofcore",
         "--child", mode, *args],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {mode} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# the bench
# ----------------------------------------------------------------------

def _parity_flags(tmp_dir: str) -> dict:
    """Small-scale, in-process: artifact vs in-RAM, event log and
    postmortem run."""
    from repro.datasets import get_profile
    from repro.graph.io import open_events, write_tcsr
    from repro.models import PostmortemDriver, PostmortemOptions
    from repro.pagerank import PagerankConfig

    events = get_profile(PROFILE).generate()
    path = os.path.join(tmp_dir, "parity.tcsr")
    write_tcsr(events, path, chunk_events=4_096)

    mapped = open_events(path)
    event_log_match = mapped.n_vertices == events.n_vertices and all(
        np.array_equal(getattr(mapped, name), getattr(events, name))
        for name in ("src", "dst", "time")
    )

    spec = _spec(events)
    cfg = PagerankConfig(tolerance=1e-10, max_iterations=200)
    opts = PostmortemOptions(n_multiwindows=N_MULTIWINDOWS)
    in_ram = PostmortemDriver(events, spec, cfg, opts).run()
    from_file = PostmortemDriver(mapped, spec, cfg, opts).run()
    postmortem_match = all(
        np.array_equal(w0.values, w1.values)
        and w0.iterations == w1.iterations
        for w0, w1 in zip(in_ram.windows, from_file.windows)
    )
    mapped.close()
    return {
        "event_log_match": bool(event_log_match),
        "postmortem_match_exact": bool(postmortem_match),
    }


def test_outofcore(tmp_path):
    from benchmarks._common import OUTPUT_DIR, emit
    from repro.reporting import format_table

    parity = _parity_flags(str(tmp_path))

    base = _spawn("baseline")
    art = str(tmp_path / "probe.tcsr")
    build = _spawn("build", art)
    run = _spawn("run", art)

    rss_bound = RSS_FRACTION * build["array_bytes"] + RSS_SLACK_BYTES
    build_net = build["rss_bytes"] - base["rss_bytes"]
    run_net = run["rss_bytes"] - base["rss_bytes"]

    payload = {
        "n_events": build["n_events"],
        "array_bytes": build["array_bytes"],
        "rss_bound_bytes": int(rss_bound),
        "baseline_rss_bytes": base["rss_bytes"],
        "parity": parity,
        "build": {
            "seconds": build["seconds"],
            "events_per_second": build["n_events"] / build["seconds"],
            "chunk_events": build["chunk_events"],
            "net_rss_bytes": build_net,
            "rss_within_bound": build_net < rss_bound,
        },
        "run": {
            "seconds": run["seconds"],
            "n_windows": run["n_windows"],
            "total_iterations": run["total_iterations"],
            "net_rss_bytes": run_net,
            "rss_within_bound": run_net < rss_bound,
        },
    }

    mb = 1024 * 1024
    rows = [
        ["build", f"{build['seconds']:.2f}",
         f"{payload['build']['events_per_second'] / 1e6:.2f}M ev/s",
         f"{build_net / mb:.0f} MiB"],
        ["run", f"{run['seconds']:.2f}",
         f"{run['n_windows']} windows",
         f"{run_net / mb:.0f} MiB"],
    ]
    text = format_table(
        ["phase", "seconds", "throughput", "net peak RSS"],
        rows,
        title=(
            f"out-of-core at {build['n_events']:,} events "
            f"({build['array_bytes'] / mb:.0f} MiB mapped, "
            f"RSS bound {rss_bound / mb:.0f} MiB)"
        ),
    )
    print()
    print(emit("outofcore", text))

    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "outofcore.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert parity["event_log_match"]
    assert parity["postmortem_match_exact"]
    assert payload["build"]["rss_within_bound"], (
        f"build RSS {build_net / mb:.0f} MiB over bound {rss_bound / mb:.0f}"
    )
    assert payload["run"]["rss_within_bound"], (
        f"run RSS {run_net / mb:.0f} MiB over bound {rss_bound / mb:.0f}"
    )


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        mode, args = sys.argv[2], sys.argv[3:]
        print(json.dumps(_CHILDREN[mode](*args)))
    else:
        print("usage: python -m benchmarks.bench_outofcore --child "
              "<baseline|build|run> [args]", file=sys.stderr)
        sys.exit(2)
