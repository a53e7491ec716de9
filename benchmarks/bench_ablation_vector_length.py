"""Ablation — SpMM vector length vs partial initialization.

Section 4.4: "Choosing a high number of vector in SpMM will reduce benefit
of the partial initialization because all the initial Pagerank vectors
will do full initialization" (the region heads of the first batch).  This
ablation sweeps the vector length and reports:

* the width each multi-window graph ran: the vector length is an upper
  bound, and the driver picks each graph's region count from its
  windows' event counts (``metadata["lockstep"]``),
* the number of cold-started windows (region heads),
* total iterations executed (partial-init quality),
* measured serial time: the median and interquartile range over
  interleaved rounds (every width once per round, rotating which goes
  first, so a drift of the host's speed slows all widths of a round
  alike; per-round seconds go to ``benchmarks/output/
  ablation_vector_length.json``),
* the simulated 48-core makespan (structure-sharing benefit).

Expected tradeoff: larger k shares the structure traversal across more
windows (simulated makespan falls) but cold-starts more windows (iteration
count rises) — the reason the paper settles on k = 8 or 16.

Run:  pytest benchmarks/bench_ablation_vector_length.py --benchmark-only -s
"""

from __future__ import annotations

import json

import numpy as np

from benchmarks._common import (
    BENCH_CONFIG,
    OUTPUT_DIR,
    PAPER_CORES,
    cost_model,
    emit,
    get_events,
    interleaved_rounds,
    postmortem_stats,
    spec_for,
)
from repro.models import PostmortemDriver, PostmortemOptions
from repro.parallel import AUTO, MachineSpec
from repro.parallel.levels import estimate_makespan
from repro.reporting import format_table

VECTOR_LENGTHS = [1, 2, 4, 8, 16, 32]
Y = 6
#: interleaved timing rounds (odd: a clean median)
ROUNDS = 9


def run_ablation():
    events = get_events("wiki-talk")
    spec = spec_for(events, 90.0, 43_200)
    stats = postmortem_stats("wiki-talk", spec, Y)
    model = cost_model()
    machine = MachineSpec(PAPER_CORES)

    def solve(k):
        kernel = "spmv" if k == 1 else "spmm"
        opts = PostmortemOptions(
            n_multiwindows=Y, kernel=kernel, vector_length=k
        )
        return PostmortemDriver(events, spec, BENCH_CONFIG, opts).run(
            store_values=False
        )

    round_seconds, runs = interleaved_rounds(
        {k: (lambda k=k: solve(k)) for k in VECTOR_LENGTHS}, ROUNDS
    )
    rows = []
    sim_times = []
    iter_counts = []
    for k in VECTOR_LENGTHS:
        run = runs[k]
        kernel = "spmv" if k == 1 else "spmm"
        cold = sum(
            len(task.windows)
            for task in run.metadata["task_log"]
            if not task.used_partial_init
        )
        t_sim = estimate_makespan(
            stats, machine, model, "nested", AUTO, 4, kernel, k
        )
        sim_times.append(t_sim)
        iter_counts.append(run.total_iterations)
        q1, med, q3 = np.percentile(round_seconds[k], [25, 50, 75])
        rows.append(
            [
                k,
                "/".join(map(str, run.metadata["lockstep"]["widths"])),
                cold,
                run.total_iterations,
                round(med, 3),
                f"{q1:.3f}-{q3:.3f}",
                round(t_sim * 1_000, 2),
            ]
        )
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "ablation_vector_length.json").write_text(
        json.dumps(
            {
                "rounds": ROUNDS,
                "seconds_per_round": {
                    str(k): [round(t, 4) for t in round_seconds[k]]
                    for k in VECTOR_LENGTHS
                },
            },
            indent=2,
        )
        + "\n"
    )
    text = format_table(
        [
            "vector length",
            "widths run",
            "cold-start windows",
            "total iterations",
            "serial time (s, median)",
            "interquartile (s)",
            "simulated 48-core (ms)",
        ],
        rows,
        title=(
            "Ablation: SpMM vector length vs partial initialization "
            f"(wiki-talk, {spec.n_windows} windows, Y={Y}, "
            f"{ROUNDS} interleaved rounds)"
        ),
    )
    return text, sim_times, iter_counts


def test_ablation_vector_length(benchmark):
    text, sim_times, iters = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    emit("ablation_vector_length", text)

    k = VECTOR_LENGTHS
    # structure sharing: simulated makespan improves from k=1 to k=8
    assert sim_times[k.index(8)] < sim_times[k.index(1)]
    # partial-init erosion: more total iterations at k=32 than k=2
    assert iters[k.index(32)] >= iters[k.index(2)]
