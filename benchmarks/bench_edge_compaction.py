"""Active-edge compaction: per-iteration cost and parity.

A masked pass touches all ``nnz`` stored events of its multi-window graph
every power iteration; the single-window kernels instead pack each
window's active deduped edges once (:mod:`repro.pagerank.compaction`)
and iterate over the Θ(|E_w|) packed arrays.  The masked pass survives
only as the tests' oracle (``tests/dense_mask_reference.py``), and this
bench measures the kernels against it on a realistic profile:

* **How much cheaper is an iteration?**  A low-activity window (active
  ratio ≤ 0.25) must run its iterations ≥ 2x faster in the kernel than
  in the masked oracle.
* **Is it still the same answer?**  The spmv/weighted kernels must match
  the masked oracle *bitwise* (sequential ``segment_sum_ordered`` makes
  zero-dropping exact).

An SpMM batch (a strided set of windows of one graph, as the region
schedule forms them) runs on the lockstep loop
(:func:`~repro.pagerank.spmv.pagerank_windows_lockstep`), which reads
only each column's packed active edges — its live (edge, window) cells.
Its section reports the cells read per iteration of the longest column
as a fraction of ``nnz * k`` and checks every column bitwise against the
masked single-window oracle.

Wall-clock on a shared CI box is noise, so the *guarded* regression
metrics are ratios: traversed-events and cell fractions (pure code
facts) and same-machine time ratios.  The kernel and the oracle are
timed round-robin in interleaved rounds
(``benchmarks._common.interleaved_rounds``); each one's time is its
median round.  Results are printed, persisted as text, and emitted as
JSON (``benchmarks/output/edge_compaction.json``); the committed
baseline is ``benchmarks/BENCH_edge_compaction.json``.

Run:  pytest benchmarks/bench_edge_compaction.py -s
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
    spec_for,
)
from repro.graph import LazyMultiWindowPartition
from repro.pagerank import (
    Workspace,
    pagerank_window,
    pagerank_window_weighted,
    pagerank_windows_lockstep,
)
from repro.reporting import format_table
from tests.dense_mask_reference import dense_mask_pagerank

PROFILE = "stackoverflow"
DELTA_DAYS = 30
SW_SECONDS = 86_400
MAX_WINDOWS = 48
SPMM_BATCH = 8

#: interleaved timing rounds per kernel (odd: a clean median)
ROUNDS = 15

#: acceptance bounds — per-iteration speedup of the kernel over the
#: masked oracle on a window with activity ratio ≤ LOW_ACTIVITY
LOW_ACTIVITY = 0.25
MIN_SPEEDUP = 2.0


def _same(got, want) -> bool:
    return (
        got.iterations == want.iterations
        and np.array_equal(got.values, want.values)
    )


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

    # -- spmv: parity + per-iteration cost on the guarded window ---------
    # the kernel on a fresh workspace, so the pack pass and buffer-pool
    # warmup are inside the measurement
    round_seconds, runs = interleaved_rounds(
        {
            "masked": lambda: dense_mask_pagerank(view, BENCH_CONFIG),
            "compacted": lambda: pagerank_window(
                view, BENCH_CONFIG, workspace=Workspace()
            ),
        },
        ROUNDS,
    )
    seconds = {p: float(np.median(t)) for p, t in round_seconds.items()}
    spmv_match = _same(runs["compacted"], runs["masked"])
    iters = runs["masked"].iterations
    periter = {p: seconds[p] / iters for p in seconds}
    speedup = periter["masked"] / periter["compacted"]
    traversal_ratio = (
        runs["compacted"].work.edge_traversals / (iters * nnz)
    )

    # -- weighted: parity on the same window -----------------------------
    weighted_match = _same(
        pagerank_window_weighted(view, BENCH_CONFIG, workspace=Workspace()),
        dense_mask_pagerank(view, BENCH_CONFIG, weighted=True),
    )

    # -- spmm: the strided batch's active cells --------------------------
    stride = max(1, len(views) // SPMM_BATCH)
    batch = views[::stride][:SPMM_BATCH]
    m_run = pagerank_windows_lockstep(
        batch, BENCH_CONFIG, workspace=Workspace()
    )
    oracle = [dense_mask_pagerank(v, BENCH_CONFIG) for v in batch]
    spmm_match = all(
        _same(column, want) and column.residual == want.residual
        for column, want in zip(m_run.columns, oracle)
    )
    # the loop steps until its longest column converges: its count is
    # the batch's iterations, and every column's edges are its cells
    spmm_iters = max(column.iterations for column in m_run.columns)
    cell_fraction = m_run.work.edge_traversals / (
        spmm_iters * nnz * len(batch)
    )
    m_seconds, _ = interleaved_rounds(
        {"spmm": lambda: pagerank_windows_lockstep(
            batch, BENCH_CONFIG, workspace=Workspace()
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
            "speedup": round(speedup, 3),
            "speedup_ok": bool(
                activity_ratio <= LOW_ACTIVITY and speedup >= MIN_SPEEDUP
            ),
            "traversal_ratio": round(float(traversal_ratio), 5),
            "periter_ratio": round(periter["compacted"] / periter["masked"], 5),
            "match_exact": bool(spmv_match),
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
        f"\nspmm batch of {len(batch)}: {cell_fraction:.3f} of nnz*k cells "
        f"read per iteration, {spmm_periter * 1e3:.3f} ms/it, "
        f"{'bitwise' if spmm_match else 'DIVERGED'} vs the masked pass"
    )
    emit("edge_compaction", text)

    # the acceptance claims
    assert spmv_match and weighted_match and spmm_match
    assert activity_ratio <= LOW_ACTIVITY
    assert speedup >= MIN_SPEEDUP, f"speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
