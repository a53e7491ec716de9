"""Executor dispatch gate: what the ``shared`` executor ships, and that it
changes no result.

``shared`` is the runtime's one way to fan out: the event columns are
published once into a shared-memory arena (or mapped straight from a
``.tcsr`` file), and each task carries only a segment-name handle and a
small recipe.  Two workloads exercise both task shapes of
:func:`repro.runtime.execution.map_tasks` on the stackoverflow profile:

* **postmortem** — one task per multi-window graph (SpMM).  The
  reference is what pickling every multi-window graph to its worker would
  serialize; it is computed, not run.  The shared payload must stay
  ≤ 10% of it (in practice under 1%).
* **offline** — one task per window.  The payload must stay below
  256 KiB.

Each workload runs ``serial`` and ``shared`` and asserts the two are
bitwise-identical.  Wall-clock on a small CI box is noise, so the
*guarded* metrics are machine-independent: bytes a task submission
serializes, bytes the arena publishes, and the payload ratio.  Results
are printed, written to ``benchmarks/output/dispatch.{txt,json}``, and
``check_regression.py dispatch`` diffs them against the committed
``benchmarks/BENCH_dispatch.json``.

Run:  pytest benchmarks/bench_dispatch.py -s
"""

from __future__ import annotations

import json
import pickle

import numpy as np

from benchmarks._common import (
    BENCH_CONFIG,
    OUTPUT_DIR,
    emit,
    get_events,
    spec_for,
    spec_with_n_windows,
)
from repro.graph.multiwindow import LazyMultiWindowPartition
from repro.models import PostmortemOptions
from repro.pagerank import PagerankConfig
from repro.reporting import format_table
from repro.runtime import make_driver
from repro.utils.timer import Timer

PROFILE = "stackoverflow"
EXECUTORS = ("serial", "shared")

#: postmortem workload: 30-day windows, 48 of them, 4 multi-window graphs
PM_DELTA_DAYS = 30
PM_SW_SECONDS = 86_400
PM_MULTIWINDOWS = 4
PM_WORKERS = 2

#: offline workload: 48 90-day windows, one task each
OFF_DELTA_DAYS = 90.0
OFF_WORKERS = 4
OFF_CONFIG = PagerankConfig(tolerance=1e-10, max_iterations=200)

#: acceptance bounds on the shared executor's task payload
MAX_PAYLOAD_RATIO = 0.10
MAX_OFFLINE_PAYLOAD_BYTES = 256 * 1024


def _runs(make):
    """Run ``make(executor)`` under each executor; wall-clock and runs."""
    seconds, runs = {}, {}
    for executor in EXECUTORS:
        driver = make(executor)
        with Timer() as t:
            runs[executor] = driver.run(store_values=True)
        seconds[executor] = round(t.elapsed, 4)
    return seconds, runs


def _match_exact(runs) -> bool:
    a, b = runs["serial"], runs["shared"]
    return (
        [w.iterations for w in a.windows] == [w.iterations for w in b.windows]
        and np.array_equal(a.values_matrix(), b.values_matrix())
    )


def postmortem_dispatch(events):
    spec = spec_for(events, PM_DELTA_DAYS, PM_SW_SECONDS, max_windows=48)
    seconds, runs = _runs(
        lambda executor: make_driver(
            "postmortem", events, spec, BENCH_CONFIG,
            postmortem_options=PostmortemOptions(
                n_multiwindows=PM_MULTIWINDOWS, kernel="spmm",
                executor=executor, n_threads=PM_WORKERS,
            ),
        )
    )
    arena = runs["shared"].metadata["shared_arena"]
    pickled = sum(
        len(pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL))
        for g in LazyMultiWindowPartition(events, spec, PM_MULTIWINDOWS)
    )
    payload = int(arena["payload_bytes"])
    return {
        "windows": spec.n_windows,
        "multiwindows": PM_MULTIWINDOWS,
        "workers": PM_WORKERS,
        "seconds": seconds,
        "pickled_graph_bytes": pickled,
        "shared_payload_bytes": payload,
        "payload_ratio": payload / pickled,
        "shared_arena_bytes": int(arena["arena_bytes"]),
        "publish_seconds": round(float(arena["publish_seconds"]), 5),
        "match_exact": _match_exact(runs),
    }


def offline_dispatch(events):
    spec = spec_with_n_windows(events, OFF_DELTA_DAYS, 48)
    seconds, runs = _runs(
        lambda executor: make_driver(
            "offline", events, spec, OFF_CONFIG, executor=executor,
            n_workers=OFF_WORKERS,
        )
    )
    arena = runs["shared"].metadata["shared_arena"]
    return {
        "windows": spec.n_windows,
        "workers": OFF_WORKERS,
        "seconds": seconds,
        "shared_payload_bytes": int(arena["payload_bytes"]),
        "shared_arena_bytes": int(arena["arena_bytes"]),
        "shared_n_tasks": int(arena["n_tasks"]),
        "match_exact": _match_exact(runs),
    }


def test_dispatch():
    events = get_events(PROFILE)
    payload = {
        "profile": {
            "name": PROFILE,
            "events": int(events.n_events),
            "vertices": int(events.n_vertices),
        },
        "postmortem": postmortem_dispatch(events),
        "offline": offline_dispatch(events),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "dispatch.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    pm, off = payload["postmortem"], payload["offline"]
    rows = [
        [model, str(run["windows"]), str(run["workers"]),
         f"{run['seconds']['serial']:.3f}", f"{run['seconds']['shared']:.3f}",
         f"{run['shared_payload_bytes']:,}", f"{run['shared_arena_bytes']:,}",
         str(run["match_exact"])]
        for model, run in (("postmortem", pm), ("offline", off))
    ]
    text = format_table(
        ["model", "windows", "workers", "serial (s)", "shared (s)",
         "payload bytes", "arena bytes", "bitwise"],
        rows,
        title=f"shared-executor dispatch on {PROFILE} "
        f"({events.n_events:,} events)",
    )
    text += (
        f"\n\npostmortem shared/pickled-graph payload ratio: "
        f"{pm['payload_ratio']:.5f} (bound {MAX_PAYLOAD_RATIO}; pickling "
        f"the graphs would ship {pm['pickled_graph_bytes']:,} bytes)"
    )
    emit("dispatch", text)

    # the acceptance claims
    assert pm["match_exact"] and off["match_exact"]
    assert pm["payload_ratio"] <= MAX_PAYLOAD_RATIO
    assert pm["shared_payload_bytes"] < pm["shared_arena_bytes"]
    assert off["shared_payload_bytes"] < MAX_OFFLINE_PAYLOAD_BYTES
