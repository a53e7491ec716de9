"""Active-edge compaction: per-iteration cost, parity and the auto policy.

The masked kernels touch all ``nnz`` stored events of their multi-window
graph every power iteration; compaction
(:mod:`repro.pagerank.compaction`) packs each window's active deduped
edges once and iterates over the Θ(|E_w|) packed arrays.  This bench
answers three questions on a realistic profile:

* **How much cheaper is an iteration?**  A low-activity window (active
  ratio ≤ 0.25) must run its iterations ≥ 2x faster compacted than
  masked — the tentpole acceptance claim.
* **Is it still the same answer?**  The compacted spmv/weighted paths
  must match the masked paths *bitwise* (sequential
  ``segment_sum_ordered`` makes zero-dropping exact).
* **Can ``edge_path="auto"`` be trusted?**  The adaptive choice must
  land within 10% of whichever fixed path is actually faster.

The SpMM batch has no edge path to choose: it reads only its live
(edge, window) cells (:class:`~repro.pagerank.spmm.ActiveCells`).  Its
section reports the cells read per iteration as a fraction of
``nnz * k`` and checks the batch, under every ``edge_path`` value,
bitwise against the full-width masked pass it replaced
(``tests/spmm_reference.py``).

Wall-clock on a shared CI box is noise, so the *guarded* regression
metrics are ratios: traversed-events and cell fractions (pure code
facts) and same-machine time ratios.  The three paths are timed round-robin in
interleaved rounds (``benchmarks._common.interleaved_rounds``); each
path's time is its median round, and the auto gate is the median
per-round ratio of auto over the better fixed path, which a host whose
speed drifts between rounds cannot fool.  Results are printed, persisted
as text, and emitted as JSON (``benchmarks/output/edge_compaction.json``);
the committed baseline is ``benchmarks/BENCH_edge_compaction.json``.

Run:  pytest benchmarks/bench_edge_compaction.py -s
"""

from __future__ import annotations

import json
from dataclasses import replace

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
from repro.graph import LazyMultiWindowPartition
from repro.pagerank import (
    Workspace,
    pagerank_window,
    pagerank_window_weighted,
    pagerank_windows_spmm,
)
from repro.reporting import format_table
from tests.spmm_reference import reference_power_iterate_batch

PROFILE = "stackoverflow"
DELTA_DAYS = 30
SW_SECONDS = 86_400
MAX_WINDOWS = 48
SPMM_BATCH = 8

#: interleaved timing rounds per kernel (odd: a clean median)
ROUNDS = 15

#: acceptance bounds — per-iteration speedup of the compacted path on a
#: window with activity ratio ≤ LOW_ACTIVITY, and the auto policy's
#: allowed slack over the better fixed path
LOW_ACTIVITY = 0.25
MIN_SPEEDUP = 2.0
AUTO_SLACK = 1.10


def _timed(solves):
    """Interleaved rounds over ``{path: solve(workspace)}``, each call on a
    fresh workspace so the pack pass and buffer-pool warmup are inside
    the measurement.

    Returns ``(last results, median seconds, per-round auto/better-fixed
    ratios)``.
    """
    round_seconds, results = interleaved_rounds(
        {path: (lambda f=f: f(Workspace())) for path, f in solves.items()},
        ROUNDS,
    )
    seconds = {p: float(np.median(t)) for p, t in round_seconds.items()}
    ratios = round_ratios(round_seconds, "auto", ("masked", "compacted"))
    return results, seconds, ratios


def _spmv_configs():
    return {
        path: replace(BENCH_CONFIG, edge_path=path)
        for path in ("masked", "compacted", "auto")
    }


def test_edge_compaction():
    events = get_events(PROFILE)
    spec = spec_for(events, DELTA_DAYS, SW_SECONDS, max_windows=MAX_WINDOWS)

    # one multi-window graph over the whole span: every window is a thin
    # activity slice of the shared structure — the regime compaction targets
    graph = LazyMultiWindowPartition(events, spec, 1).graphs[0]
    nnz = graph.nnz
    views = [graph.window_view(i) for i in graph.window_indices()]
    ratios = np.array(
        [v.n_active_edges / nnz for v in views], dtype=np.float64
    )

    # the guarded window: the busiest one still under the low-activity
    # bound (the hardest case the ≥2x claim must survive)
    low = [j for j in range(len(views)) if 0 < ratios[j] <= LOW_ACTIVITY]
    assert low, f"no window under activity ratio {LOW_ACTIVITY}"
    j_low = max(low, key=lambda j: ratios[j])
    view = views[j_low]
    activity_ratio = float(ratios[j_low])

    configs = _spmv_configs()

    # -- spmv: parity + per-iteration cost on the guarded window ---------
    runs, seconds, auto_ratios = _timed({
        path: (lambda ws, cfg=cfg: pagerank_window(view, cfg, workspace=ws))
        for path, cfg in configs.items()
    })
    spmv_match = (
        runs["masked"].iterations == runs["compacted"].iterations
        and np.array_equal(runs["masked"].values, runs["compacted"].values)
        and np.array_equal(runs["masked"].values, runs["auto"].values)
    )
    iters = runs["masked"].iterations
    periter = {p: seconds[p] / iters for p in configs}
    speedup = periter["masked"] / periter["compacted"]
    traversal_ratio = (
        runs["compacted"].work.edge_traversals
        / runs["masked"].work.edge_traversals
    )
    auto_over_best = float(np.median(auto_ratios))
    auto_within_bound = auto_over_best <= AUTO_SLACK

    # -- weighted: parity on the same window -----------------------------
    w_runs = {
        path: pagerank_window_weighted(view, cfg, workspace=Workspace())
        for path, cfg in configs.items()
    }
    weighted_match = (
        w_runs["masked"].iterations == w_runs["compacted"].iterations
        and np.array_equal(
            w_runs["masked"].values, w_runs["compacted"].values
        )
        and np.array_equal(w_runs["masked"].values, w_runs["auto"].values)
    )

    # -- spmm: the strided batch's active cells --------------------------
    stride = max(1, len(views) // SPMM_BATCH)
    batch = views[::stride][:SPMM_BATCH]
    m_runs = {
        path: pagerank_windows_spmm(batch, cfg, workspace=Workspace())
        for path, cfg in configs.items()
    }
    oracle = reference_power_iterate_batch(
        batch, BENCH_CONFIG, None,
        np.full(len(batch), BENCH_CONFIG.damping, dtype=np.float64),
        BENCH_CONFIG.alpha,
    )
    spmm_match = all(
        np.array_equal(r.values, oracle.values)
        and np.array_equal(
            r.iterations_per_window, oracle.iterations_per_window
        )
        and np.array_equal(r.residuals, oracle.residuals)
        for r in m_runs.values()
    )
    spmm_work = m_runs["auto"].work
    spmm_iters = int(spmm_work.iterations)
    cell_fraction = spmm_work.edge_traversals / (
        spmm_iters * nnz * len(batch)
    )
    # every edge path runs the same cells, so one timing stands for all
    m_seconds, _ = interleaved_rounds(
        {"spmm": lambda: pagerank_windows_spmm(
            batch, configs["auto"], workspace=Workspace()
        )},
        ROUNDS,
    )
    spmm_periter = float(np.median(m_seconds["spmm"])) / spmm_iters

    payload = {
        "profile": {
            "name": PROFILE,
            "events": len(events),
            "vertices": events.n_vertices,
            "windows": spec.n_windows,
            "nnz": nnz,
            "activity_ratio_min": float(ratios[ratios > 0].min()),
            "activity_ratio_max": float(ratios.max()),
        },
        "spmv": {
            "window": int(view.window.index),
            "activity_ratio": activity_ratio,
            "iterations": int(iters),
            "periter_masked_ms": round(periter["masked"] * 1e3, 4),
            "periter_compacted_ms": round(periter["compacted"] * 1e3, 4),
            "periter_auto_ms": round(periter["auto"] * 1e3, 4),
            "speedup": round(speedup, 3),
            "speedup_ok": bool(
                activity_ratio <= LOW_ACTIVITY and speedup >= MIN_SPEEDUP
            ),
            "traversal_ratio": round(float(traversal_ratio), 5),
            "periter_ratio": round(periter["compacted"] / periter["masked"], 5),
            "match_exact": bool(spmv_match),
            "auto_over_best_per_round": [round(r, 4) for r in auto_ratios],
            "auto_over_best": round(auto_over_best, 4),
        },
        "weighted": {"match_exact": bool(weighted_match)},
        "spmm": {
            "batch": len(batch),
            "iterations": spmm_iters,
            "cell_fraction": round(float(cell_fraction), 5),
            "periter_ms": round(spmm_periter * 1e3, 4),
            "match_exact": bool(spmm_match),
        },
        "rounds": ROUNDS,
        "auto_within_bound": bool(auto_within_bound),
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "edge_compaction.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows = [
        ["spmv", f"{activity_ratio:.3f}", f"{periter['masked'] * 1e3:.3f}",
         f"{periter['compacted'] * 1e3:.3f}", f"{speedup:.2f}x",
         "bitwise" if spmv_match else "DIVERGED"],
    ]
    text = format_table(
        ["kernel", "active/nnz", "masked ms/it", "compacted ms/it",
         "speedup", "parity"],
        rows,
        title=(
            f"edge compaction on {PROFILE} ({nnz:,} stored events, "
            f"{spec.n_windows} windows; window {view.window.index}, "
            f"{iters} iterations)"
        ),
    )
    text += (
        f"\n\nweighted parity: "
        f"{'bitwise' if weighted_match else 'DIVERGED'}"
        f"\nauto / better fixed path, median of {ROUNDS} interleaved "
        f"rounds (bound {AUTO_SLACK:.2f}x): spmv={auto_over_best:.3f}"
        f"\nspmm batch of {len(batch)}: {cell_fraction:.3f} of nnz*k cells "
        f"read per iteration, {spmm_periter * 1e3:.3f} ms/it, "
        f"{'bitwise' if spmm_match else 'DIVERGED'} vs the masked pass"
    )
    emit("edge_compaction", text)

    # the acceptance claims
    assert spmv_match and weighted_match and spmm_match
    assert activity_ratio <= LOW_ACTIVITY
    assert speedup >= MIN_SPEEDUP, f"speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    assert auto_within_bound
