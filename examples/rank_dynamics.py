"""Studying *change over time* — the point of postmortem analysis.

Computes the PageRank time series over the synthetic Epinions profile
(Figure 4b's review burst), caches it to disk, and runs the time-series
analytics: rank stability between consecutive windows, top-10 churn,
change-point detection on the activity series, and the "rising actors"
question (who gained the most rank through the burst) — the Section 3.2
organizational-crisis methodology as reusable library calls.

Run:  python examples/rank_dynamics.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import PagerankConfig, PostmortemDriver, PostmortemOptions, WindowSpec
from repro.analysis import (
    detect_change_points,
    rank_stability_series,
    rising_vertices,
    topk_churn_series,
)
from repro.datasets import get_profile
from repro.reporting import format_series, format_table
from repro.service import RankStore, write_store

DAY = 86_400


def main() -> None:
    events = get_profile("epinions-user-ratings").generate(scale=0.3)
    spec = WindowSpec.covering_days(events, 60, 10 * DAY)
    print(
        f"instance: {len(events)} events, {spec.n_windows} windows of 60 days"
    )

    run = PostmortemDriver(
        events,
        spec,
        PagerankConfig(tolerance=1e-10),
        PostmortemOptions(kernel="spmm", vector_length=8),
    ).run()

    # cache the series as a float64 rank store (bitwise the solver's
    # vectors) — downstream analytics re-read it from the memory map
    cache = Path(tempfile.gettempdir()) / "epinions_run.rankstore"
    write_store(run, cache, spec, dtype=np.float64)
    store = RankStore(cache)
    print(f"cached + reopened {store.n_windows} windows from {cache}\n")

    vectors = list(store.matrix)
    stability = rank_stability_series(vectors)
    churn = topk_churn_series(vectors, k=10)
    activity = np.array(store.columns["n_active_edges"], float)
    changes = detect_change_points(activity, z_threshold=2.5)

    step = max(1, (spec.n_windows - 1) // 12)
    idx = list(range(0, spec.n_windows - 1, step))
    print(
        format_series(
            "window",
            idx,
            {
                "edges": [activity[i] for i in idx],
                "rank stability": [
                    round(float(stability[i]), 2)
                    if not np.isnan(stability[i])
                    else 0.0
                    for i in idx
                ],
                "top-10 churn": [round(float(churn[i]), 2) for i in idx],
            },
            title="Rank dynamics across the review burst",
        )
    )
    print(f"\nactivity change points at windows: {changes.tolist()}")

    if changes.size:
        burst = int(changes[0])
        before = max(burst - 2, 0)
        after = min(burst + 2, spec.n_windows - 1)
        rising = rising_vertices(vectors, before, after, top=5)
        rows = [
            [f"v{v}", f"{a:.5f}", f"{b:.5f}", f"{b - a:+.5f}"]
            for v, a, b in rising
        ]
        print(
            "\n"
            + format_table(
                ["vertex", f"rank w{before}", f"rank w{after}", "gain"],
                rows,
                title="Rising actors through the burst",
            )
        )


if __name__ == "__main__":
    main()
