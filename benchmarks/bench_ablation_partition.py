"""Ablation — uniform vs work-balanced multi-window partitioning.

The paper's Section 7 names non-uniform decomposition as future work:
"we partitioned the temporal data in multi-windows with equal number of
graphs, but this may not be the decomposition that minimize memory and
work overheads".  This ablation implements it
(:mod:`repro.graph.balanced`) and measures the effect on the spike-shaped
datasets where uniform splits are most imbalanced.

Reported per dataset: the bottleneck run work (max over multi-window
graphs of |E_w| x windows) and the measured serial postmortem time, for
the paper's uniform split vs the minimax-balanced split.

Run:  pytest benchmarks/bench_ablation_partition.py --benchmark-only -s
"""

from __future__ import annotations

from benchmarks._common import BENCH_CONFIG, emit, get_events, spec_for
from repro.graph import BalancedMultiWindowPartition
from repro.graph.balanced import run_work
from repro.models import PostmortemDriver, PostmortemOptions
from repro.reporting import format_table
from repro.utils.timer import Timer

CONFIGS = [
    ("ia-enron-email", 730.0, 172_800),
    ("epinions-user-ratings", 60.0, 86_400),
    ("wiki-talk", 90.0, 259_200),
]
Y = 6


def measure(events, spec, method: str):
    opts = PostmortemOptions(n_multiwindows=Y, partition_method=method)
    driver = PostmortemDriver(events, spec, BENCH_CONFIG, opts)
    with Timer() as t:
        driver.run(store_values=False)
    part = driver.partition
    bottleneck = max(
        run_work(events, spec, g.first_window, g.first_window + g.n_windows)
        for g in part
    )
    return t.elapsed, bottleneck, part.total_stored_events


def run_ablation():
    rows = []
    gains = []
    for name, ws, sw in CONFIGS:
        events = get_events(name)
        spec = spec_for(events, ws, sw)
        t_u, work_u, stored_u = measure(events, spec, "uniform")
        t_b, work_b, stored_b = measure(events, spec, "minimax")
        gains.append(work_u / max(work_b, 1))
        rows.append(
            [
                name,
                spec.n_windows,
                f"{work_u:,}",
                f"{work_b:,}",
                round(work_u / max(work_b, 1), 2),
                round(t_u, 3),
                round(t_b, 3),
                round(stored_b / max(stored_u, 1), 2),
            ]
        )
    text = format_table(
        [
            "dataset",
            "#win",
            "bottleneck(uniform)",
            "bottleneck(minimax)",
            "work gain",
            "t uniform(s)",
            "t minimax(s)",
            "storage ratio",
        ],
        rows,
        title=(
            "Ablation: uniform vs minimax-balanced multi-window partition "
            f"(Y={Y}, serial)"
        ),
    )
    return text, gains


def test_ablation_partition(benchmark):
    text, gains = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit("ablation_partition", text)
    # balancing never increases the bottleneck, and helps on at least one
    # spike-shaped dataset
    assert all(g >= 0.999 for g in gains)
    assert max(gains) > 1.2
