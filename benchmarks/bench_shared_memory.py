"""Executor dispatch cost: the shared-memory arena vs pickling graphs.

The question this bench answers: **what does it cost to hand a
multi-window graph to a worker?**  Three executors solve the same medium
synthetic profile:

* ``serial`` — no dispatch at all (the kernel-time floor);
* ``thread`` — shared address space, but GIL-bound kernels;
* ``shared`` — the event columns published once into a shared-memory
  arena, tasks carry only a segment-name handle and the graph's build
  recipe.

The reference is what pickling every multi-window graph to its worker
would serialize (the deleted ``process`` executor's dispatch); it is
computed, not run.  Wall-clock on a 1-core CI box is noise, so the
*asserted* metrics are machine-independent: the bytes a task submission
serializes.  The shared executor must ship ≤ 10% of the pickled
reference (in practice ~1% — handles and recipes are a few hundred bytes)
while matching the thread executor's results bitwise.

Results are printed, persisted as text, and emitted as JSON
(``benchmarks/output/shared_memory.json``); the committed baseline lives
at ``benchmarks/BENCH_shared_memory.json`` and the CI bench-smoke job
fails on >2x regression of the ratio metrics.

Run:  pytest benchmarks/bench_shared_memory.py -s
"""

from __future__ import annotations

import json
import pickle
import time

from benchmarks._common import (
    BENCH_CONFIG,
    OUTPUT_DIR,
    emit,
    get_events,
    spec_for,
)
from repro.models import PostmortemDriver, PostmortemOptions
from repro.reporting import format_table

PROFILE = "stackoverflow"
DELTA_DAYS = 30
SW_SECONDS = 86_400
N_MULTIWINDOWS = 4
N_WORKERS = 2

#: acceptance bound — shared-arena dispatch payload relative to pickling
#: every graph (≤ 10%; measured ~1%)
MAX_PAYLOAD_RATIO = 0.10


def _run(events, spec, executor):
    opts = PostmortemOptions(
        n_multiwindows=N_MULTIWINDOWS,
        kernel="spmm",
        executor=executor,
        n_threads=N_WORKERS,
    )
    driver = PostmortemDriver(events, spec, BENCH_CONFIG, opts)
    t0 = time.perf_counter()
    run = driver.run(store_values=True)
    return run, time.perf_counter() - t0


def _pickled_dispatch_bytes(driver_events, spec):
    """What pickling the graphs to workers serializes per run: each task
    would ship its whole multi-window graph (structure arrays included)."""
    from repro.graph.multiwindow import LazyMultiWindowPartition

    part = LazyMultiWindowPartition(driver_events, spec, N_MULTIWINDOWS)
    return sum(
        len(pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL))
        for g in part
    )


def test_shared_memory_dispatch():
    events = get_events(PROFILE)
    spec = spec_for(events, DELTA_DAYS, SW_SECONDS, max_windows=48)

    runs, seconds = {}, {}
    for executor in ("serial", "thread", "shared"):
        runs[executor], seconds[executor] = _run(events, spec, executor)

    # -- correctness: shared must match thread bitwise -------------------
    mismatched = []
    for wa, wb in zip(runs["thread"].windows, runs["shared"].windows):
        same = (
            wa.iterations == wb.iterations
            and wa.values is not None
            and wb.values is not None
            and (wa.values == wb.values).all()
        )
        if not same:
            mismatched.append(wa.window_index)
    thread_match_exact = not mismatched

    # -- dispatch cost ---------------------------------------------------
    arena_stats = runs["shared"].metadata["shared_arena"]
    shared_payload = int(arena_stats["payload_bytes"])
    pickled_payload = _pickled_dispatch_bytes(events, spec)
    payload_ratio = shared_payload / pickled_payload

    payload = {
        "profile": {
            "name": PROFILE,
            "events": len(events),
            "vertices": events.n_vertices,
            "windows": spec.n_windows,
            "multiwindows": N_MULTIWINDOWS,
            "workers": N_WORKERS,
        },
        "seconds": {ex: round(s, 4) for ex, s in seconds.items()},
        "dispatch": {
            "pickled_process_bytes": pickled_payload,
            "shared_arena_bytes": shared_payload,
            "payload_ratio": payload_ratio,
            "arena_bytes": int(arena_stats["arena_bytes"]),
            "publish_seconds": round(
                float(arena_stats["publish_seconds"]), 5
            ),
        },
        "thread_match_exact": thread_match_exact,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "shared_memory.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        [ex, f"{seconds[ex]:.3f}",
         f"{shared_payload:,}" if ex == "shared" else "-"]
        for ex in ("serial", "thread", "shared")
    ] + [["(pickled graphs)", "-", f"{pickled_payload:,}"]]
    text = format_table(
        ["executor", "wall (s)", "dispatch bytes"], rows,
        title=(
            f"executor dispatch on {PROFILE} "
            f"({len(events):,} events, {spec.n_windows} windows)"
        ),
    )
    text += (
        f"\n\nshared/pickled payload ratio: {payload_ratio:.5f} "
        f"(bound {MAX_PAYLOAD_RATIO}); arena "
        f"{payload['dispatch']['arena_bytes']:,} bytes published in "
        f"{payload['dispatch']['publish_seconds'] * 1e3:.2f} ms"
        f"\nshared matches thread bitwise: {thread_match_exact}"
    )
    emit("shared_memory", text)

    # the acceptance claims
    assert thread_match_exact, f"windows diverged: {mismatched}"
    assert payload_ratio <= MAX_PAYLOAD_RATIO
    assert shared_payload < arena_stats["arena_bytes"]
