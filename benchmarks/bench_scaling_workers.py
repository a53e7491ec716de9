"""Strong-scaling study — simulated speedup vs worker count, plus the
offline model's *real* executor sweep.

The paper reports one machine size (48 cores).  The simulated half sweeps
the worker count for the suggested configuration (nested, auto,
granularity 4, SpMM-16) and the two single-level strategies, reporting
parallel efficiency — where each level's scaling saturates and why
(window-level: window count; application-level: per-region parallelism
and synchronization; nested: the best of both).

The real half exercises the unified runtime: the offline model's window
loop under every executor (serial / thread / shared), asserting
bitwise-identical vectors and recording machine-independent dispatch
metrics to ``benchmarks/output/scaling_workers.json`` for
``check_regression.py`` (baseline: ``BENCH_scaling_workers.json``).

Run:  pytest benchmarks/bench_scaling_workers.py --benchmark-only -s
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from benchmarks._common import (
    OUTPUT_DIR,
    cost_model,
    emit,
    get_events,
    postmortem_stats,
    spec_with_n_windows,
)
from repro.pagerank import PagerankConfig
from repro.parallel import AUTO, MachineSpec
from repro.parallel.levels import estimate_makespan
from repro.reporting import format_series
from repro.runtime import make_driver
from repro.utils.timer import Timer

WORKERS = [1, 2, 4, 8, 16, 24, 48, 96]

#: worker count for the real offline executor sweep (CI-friendly)
OFFLINE_WORKERS = 4
OFFLINE_EXECUTORS = ("serial", "thread", "shared")


def run_scaling():
    events = get_events("wiki-talk")
    spec = spec_with_n_windows(events, 90.0, 256)
    stats = postmortem_stats("wiki-talk", spec, 6)
    stats = dataclasses.replace(stats, build_seconds=0.0)
    model = cost_model()

    series = {}
    speedups = {}
    for level in ("window", "application", "nested"):
        base = estimate_makespan(
            stats, MachineSpec(1), model, level, AUTO, 4, "spmm", 16
        )
        ys, eff = [], []
        for p in WORKERS:
            t = estimate_makespan(
                stats, MachineSpec(p), model, level, AUTO, 4, "spmm", 16
            )
            ys.append(base / t)
            eff.append(base / t / p)
        series[f"{level} speedup"] = ys
        series[f"{level} efficiency"] = eff
        speedups[level] = ys
    text = format_series(
        "workers",
        WORKERS,
        series,
        title=(
            "Strong scaling (simulated): suggested configuration, "
            f"wiki-talk, {spec.n_windows} windows"
        ),
    )
    return text, speedups


def test_scaling_workers(benchmark):
    text, speedups = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    emit("scaling_workers", text)

    for level, ys in speedups.items():
        # monotone non-decreasing speedups
        for a, b in zip(ys, ys[1:]):
            assert b >= a * 0.99, level
        # and sublinear (efficiency <= 1)
        for p, s in zip(WORKERS, ys):
            assert s <= p * 1.01, (level, p)
    # real speedups at the paper's 48 workers: window-level scales best on
    # this many-window instance; nested pays per-region overheads on the
    # tiny scaled windows but still gains
    assert speedups["window"][WORKERS.index(48)] > 8.0
    assert speedups["nested"][WORKERS.index(48)] > 3.0


def run_offline_executor_sweep():
    events = get_events("stackoverflow")
    spec = spec_with_n_windows(events, 90.0, 48)
    cfg = PagerankConfig(tolerance=1e-10, max_iterations=200)

    seconds = {}
    matrices = {}
    arena_stats = None
    for executor in OFFLINE_EXECUTORS:
        driver = make_driver(
            "offline", events, spec, cfg, executor=executor,
            n_workers=OFFLINE_WORKERS,
        )
        with Timer() as t:
            run = driver.run(store_values=True)
        seconds[executor] = t.elapsed
        matrices[executor] = run.values_matrix()
        if executor == "shared":
            arena_stats = run.metadata["shared_arena"]

    payload = {
        "profile": {
            "name": "stackoverflow",
            "events": int(events.n_events),
            "vertices": int(events.n_vertices),
            "windows": int(spec.n_windows),
            "workers": OFFLINE_WORKERS,
        },
        "seconds": {k: round(v, 4) for k, v in seconds.items()},
        "offline": {
            "shared_payload_bytes": int(arena_stats["payload_bytes"]),
            "shared_arena_bytes": int(arena_stats["arena_bytes"]),
            "shared_n_tasks": int(arena_stats["n_tasks"]),
        },
    }
    for executor in OFFLINE_EXECUTORS[1:]:
        payload[f"{executor}_match_exact"] = bool(
            np.array_equal(matrices[executor], matrices["serial"])
        )
    return payload


def test_offline_executor_sweep(benchmark):
    payload = benchmark.pedantic(
        run_offline_executor_sweep, rounds=1, iterations=1
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "scaling_workers.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(json.dumps(payload, indent=2))

    # every parallel executor must reproduce serial bit for bit
    assert payload["thread_match_exact"]
    assert payload["shared_match_exact"]
    # shared dispatch ships handles, not arrays: payload stays small
    assert payload["offline"]["shared_payload_bytes"] < 256 * 1024
