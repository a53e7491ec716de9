"""Figure 5 — Offline vs Streaming vs Postmortem wall-clock.

The paper's subfigures: (a) Enron 2/4-year windows, (b) YouTube 60/90-day,
(c) Epinions 60/90-day, (d) wiki-talk 10/15/90/180-day.  Postmortem here is
the paper's "bare-bone" configuration: partial initialization, 6
multi-window graphs, serial application-level execution — measured real
wall-clock on this machine, same solver tolerance for all three models.

Expected shape (paper): streaming beats offline on Enron/YouTube but loses
on Epinions/wiki-talk; postmortem beats both everywhere (and by more than
3x on YouTube, ~40x on Epinions in the paper's C++ runs).

The three models are timed in interleaved round-robin rounds
(``benchmarks._common.interleaved_rounds``, one untimed warm-up each): a
host whose speed drifts slows every model of a round alike, so the
reported speedups are medians of per-round ratios, not quotients of two
single runs.  Each driver is built afresh per run, so no run reuses
another's partition.

Results are printed, persisted as text, and emitted as JSON
(``benchmarks/output/fig5_models.json``): per configuration, the median
per-round ``pm_over_offline`` (offline seconds over postmortem seconds)
and ``pm_over_stream`` (streaming over postmortem) with their per-round
lists.  The committed baseline is ``benchmarks/BENCH_fig5_models.json``;
the CI ``bench-smoke`` job gates ``pm_beats_offline`` and
``pm_beats_streaming`` (postmortem faster on every configuration)
through ``check_regression.py``.

Run:  pytest benchmarks/bench_fig5_models.py --benchmark-only -s
"""

from __future__ import annotations

import json

import numpy as np

from benchmarks._common import (
    BENCH_CONFIG,
    OUTPUT_DIR,
    emit,
    get_events,
    interleaved_rounds,
    round_ratios,
    spec_for,
)
from repro.models import PostmortemOptions
from repro.reporting import format_table
from repro.runtime import MODELS, make_driver

# (dataset, window sizes in days, paper sliding offset seconds)
SUBFIGURES = [
    ("ia-enron-email", [730.0, 1460.0], 172_800),
    ("youtube-growth", [60.0, 90.0], 86_400),
    ("epinions-user-ratings", [60.0, 90.0], 86_400),
    ("wiki-talk", [10.0, 15.0, 90.0, 180.0], 259_200),
]

OPTIONS = PostmortemOptions(n_multiwindows=6, kernel="spmv",
                            partial_init=True)

#: timed rounds per configuration, after one untimed warm-up per model
ROUNDS = 3


def model_rounds(events, spec):
    """``{model: [seconds per round]}`` of the three execution models on
    one configuration, timed in interleaved rounds."""
    def solve(model):
        return make_driver(
            model, events, spec, BENCH_CONFIG, postmortem_options=OPTIONS
        ).run(store_values=False)

    round_seconds, _ = interleaved_rounds(
        {model: (lambda m=model: solve(m)) for model in MODELS}, ROUNDS
    )
    return round_seconds


def run_fig5():
    rows = []
    configs = {}
    for name, window_sizes, sw in SUBFIGURES:
        events = get_events(name)
        for ws in window_sizes:
            spec = spec_for(events, ws, sw)
            round_seconds = model_rounds(events, spec)
            seconds = {m: float(np.median(t)) for m, t in round_seconds.items()}
            over_offline = round_ratios(round_seconds, "offline",
                                        ("postmortem",))
            over_stream = round_ratios(round_seconds, "streaming",
                                       ("postmortem",))
            entry = {
                "window_days": ws,
                "n_windows": spec.n_windows,
                "offline_s": round(seconds["offline"], 4),
                "streaming_s": round(seconds["streaming"], 4),
                "postmortem_s": round(seconds["postmortem"], 4),
                "pm_over_offline": round(float(np.median(over_offline)), 4),
                "pm_over_stream": round(float(np.median(over_stream)), 4),
                "pm_over_offline_rounds": [round(r, 4) for r in over_offline],
                "pm_over_stream_rounds": [round(r, 4) for r in over_stream],
            }
            configs[f"{name}/{ws:.0f}d"] = entry
            rows.append(
                [
                    name,
                    f"{ws:.0f}d",
                    f"{spec.sw:,}s",
                    spec.n_windows,
                    round(seconds["offline"], 3),
                    round(seconds["streaming"], 3),
                    round(seconds["postmortem"], 3),
                    round(entry["pm_over_stream"], 1),
                    round(entry["pm_over_offline"], 1),
                ]
            )
    payload = {
        "configs": configs,
        "pm_beats_offline": bool(
            min(c["pm_over_offline"] for c in configs.values()) > 1.0
        ),
        "pm_beats_streaming": bool(
            min(c["pm_over_stream"] for c in configs.values()) > 1.0
        ),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "fig5_models.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    text = format_table(
        [
            "dataset",
            "window",
            "offset",
            "#win",
            "offline(s)",
            "streaming(s)",
            "postmortem(s)",
            "pm/stream",
            "pm/offline",
        ],
        rows,
        title=(
            "Figure 5: Offline vs Streaming vs Postmortem "
            "(measured, single core, serial postmortem; median of "
            f"{ROUNDS} interleaved rounds)"
        ),
    )
    return text, configs


def test_fig5_models(benchmark):
    text, configs = benchmark.pedantic(run_fig5, rounds=1, iterations=1)
    emit("fig5_models", text)

    # the headline shape: postmortem beats streaming on the large-window
    # configurations and on almost all of the small ones (the paper's own
    # Figure 5d shows postmortem losing ground on the smallest wiki-talk
    # windows, where the 6-multi-window structure overhead dominates)
    for key, c in configs.items():
        if c["window_days"] >= 60:
            assert c["pm_over_stream"] > 1.0, key
    wins = sum(c["pm_over_stream"] > 1.0 for c in configs.values())
    assert wins >= len(configs) - 1
    # and beats offline on most large-window configurations
    big = [c for c in configs.values() if c["window_days"] >= 60]
    assert sum(c["pm_over_offline"] > 1.0 for c in big) >= len(big) // 2
