"""Strong-scaling study — simulated speedup vs worker count.

The paper reports one machine size (48 cores).  This sweeps the worker
count for the suggested configuration (nested, auto, granularity 4,
SpMM-16) and the two single-level strategies, reporting parallel
efficiency — where each level's scaling saturates and why (window-level:
window count; application-level: per-region parallelism and
synchronization; nested: the best of both).  The real executor's
dispatch is gated by ``bench_dispatch.py``.

Run:  pytest benchmarks/bench_scaling_workers.py --benchmark-only -s
"""

from __future__ import annotations

import dataclasses

from benchmarks._common import (
    cost_model,
    emit,
    get_events,
    postmortem_stats,
    spec_with_n_windows,
)
from repro.parallel import AUTO, MachineSpec
from repro.parallel.levels import estimate_makespan
from repro.reporting import format_series

WORKERS = [1, 2, 4, 8, 16, 24, 48, 96]


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

