"""Extension — the three execution models on a *different* kernel (k-core).

The paper's Section 3.1 claims the sliding-window methodology generalizes
beyond PageRank ("other kernels like ... k-core").  This bench runs the
``kcore`` vertex program (per-vertex core numbers) per window under
offline, streaming and postmortem execution on two datasets through
``make_driver``, asserts the three models' core numbers are
bitwise-identical, reports the largest (the degeneracy), and checks the
representational advantages carry over: the postmortem model avoids both
the per-window rebuild (offline) and the structure-maintenance + snapshot
costs (streaming).

The three models are timed in interleaved round-robin rounds
(``benchmarks._common.interleaved_rounds``): a host whose speed drifts
slows every model of a round alike, so the gated ratios are medians of
per-round ratios, not quotients of two single runs.

Results are printed, persisted as text, and emitted as JSON
(``benchmarks/output/extension_kcore.json``); the committed baseline is
``benchmarks/BENCH_extension_kcore.json`` and the CI ``bench-smoke`` job
gates the cross-model parity flag and the postmortem-vs-offline ratio
through ``check_regression.py``.

Run:  pytest benchmarks/bench_extension_kcore.py --benchmark-only -s
"""

from __future__ import annotations

import json

import numpy as np

from benchmarks._common import (
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

CONFIGS = [
    ("wiki-talk", 90.0, 259_200),
    ("youtube-growth", 60.0, 86_400),
]

#: timed rounds per dataset, after one untimed warm-up run per model
ROUNDS = 5


def kcore_runs(events, spec):
    """Per-vertex core numbers per window under each execution model,
    all through the one vertex-program engine, timed in interleaved
    rounds.

    Returns ``({model: [seconds per round]}, {model: last run})``."""
    def solve(model):
        return make_driver(
            model, events, spec, program="kcore",
            postmortem_options=PostmortemOptions(n_multiwindows=6),
        ).run()

    return interleaved_rounds(
        {model: (lambda m=model: solve(m)) for model in MODELS}, ROUNDS
    )


def run_extension():
    rows = []
    stream_ratios = []
    datasets = {}
    values_match = True
    for name, ws, sw in CONFIGS:
        events = get_events(name)
        spec = spec_for(events, ws, sw)
        round_seconds, runs = kcore_runs(events, spec)
        cores = runs["postmortem"].values_matrix()
        match = np.array_equal(cores, runs["offline"].values_matrix()) and (
            np.array_equal(cores, runs["streaming"].values_matrix())
        )
        max_degeneracy = int(cores.max()) if cores.size else 0
        values_match = values_match and match
        seconds = {m: float(np.median(t)) for m, t in round_seconds.items()}
        pm_rounds = round_ratios(round_seconds, "postmortem", ("offline",))
        stream_rounds = round_ratios(
            round_seconds, "streaming", ("postmortem",)
        )
        stream_ratio = float(np.median(stream_rounds))
        stream_ratios.append(stream_ratio)
        datasets[name] = {
            "n_windows": spec.n_windows,
            "max_degeneracy": max_degeneracy,
            "offline_s": round(seconds["offline"], 4),
            "streaming_s": round(seconds["streaming"], 4),
            "postmortem_s": round(seconds["postmortem"], 4),
            "pm_over_offline": round(float(np.median(pm_rounds)), 4),
            "stream_over_pm": round(stream_ratio, 4),
            "pm_over_offline_rounds": [round(r, 4) for r in pm_rounds],
            "stream_over_pm_rounds": [round(r, 4) for r in stream_rounds],
            "values_match": bool(match),
        }
        rows.append(
            [
                name,
                spec.n_windows,
                max_degeneracy,
                round(seconds["offline"], 3),
                round(seconds["streaming"], 3),
                round(seconds["postmortem"], 3),
                round(stream_ratio, 2),
            ]
        )
    # the headline representational claim for a non-PageRank kernel:
    # postmortem avoids the streaming model's structure-maintenance and
    # snapshot costs (the boolean below), and stays within a bounded
    # factor of the embarrassingly-cheap offline rebuild (the guarded
    # ratio — at this peeling-dominated scale offline's per-window build
    # is not the bottleneck, so postmortem tracks rather than beats it).
    # both are medians of per-round same-machine ratios, so they are
    # stable where absolute wall-clock is not
    pm_over_offline_worst = max(
        d["pm_over_offline"] for d in datasets.values()
    )
    payload = {
        "datasets": datasets,
        "values_match": bool(values_match),
        "pm_beats_streaming": bool(all(r > 1.0 for r in stream_ratios)),
        "pm_over_offline_worst": pm_over_offline_worst,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "extension_kcore.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    text = format_table(
        [
            "dataset",
            "#win",
            "max degeneracy",
            "offline(s)",
            "streaming(s)",
            "postmortem(s)",
            "pm/stream",
        ],
        rows,
        title=(
            "Extension: k-core degeneracy per window under the three "
            f"execution models (median of {ROUNDS} interleaved rounds; "
            "identical results asserted)"
        ),
    )
    return text, stream_ratios, payload


def test_extension_kcore(benchmark):
    text, stream_ratios, payload = benchmark.pedantic(
        run_extension, rounds=1, iterations=1
    )
    emit("extension_kcore", text)
    # the postmortem representation advantage carries over to k-core
    assert payload["values_match"]
    assert payload["pm_beats_streaming"]
