"""Kernel backends: parity, partitioned-reduce cost, and the auto policy.

The backend registry (:mod:`repro.pagerank.backends`) lets every kernel
swap its per-iteration gather→reduce step between the flat NumPy
reference and the (optional) numba JIT-fused destination-partitioned
reduce.  This bench answers three questions:

* **Is it always the same answer?**  Every backend must match the numpy
  reference *bitwise* on a realistic window for the spmv and weighted
  kernels.  The SpMM batch reads no backend, so under every backend
  setting it must match the full-width masked oracle
  (``tests/spmm_reference.py``) instead: a comparison of backends with
  one another could not fail there.
* **What does the fused partitioned reduce cost?**  Measured
  per-iteration propagate time at large V for numpy vs numba, plus the
  one-time binning cost.  The ratio is reported, not guarded: it is only
  meaningful where the JIT is importable (without it the numba backend
  *is* the flat pass).
* **Can ``backend="auto"`` be trusted?**  The resolved choice must land
  within 10% of whichever fixed backend is actually faster.  Without
  numba ``auto`` resolves to numpy without asking the cost model.  The
  three are timed round-robin in interleaved rounds and the gate is the
  median per-round ratio: a host whose speed drifts over a few seconds
  slows every contender of a round alike, which separate best-of runs
  cannot see through.

Results are printed, persisted as text, and emitted as JSON
(``benchmarks/output/backends.json``); the committed baseline is
``benchmarks/BENCH_backends.json``.

Run:  pytest benchmarks/bench_backends.py -s
"""

from __future__ import annotations

import json
import time
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
from repro.events import TemporalEventSet, Window
from repro.graph import TemporalAdjacency
from repro.pagerank import (
    Workspace,
    pagerank_window,
    pagerank_window_weighted,
    pagerank_windows_spmm,
)
from repro.pagerank.backends import create_backend, numba_available, resolve_backend
from repro.reporting import format_table
from tests.spmm_reference import reference_power_iterate_batch

PROFILE = "stackoverflow"
DELTA_DAYS = 30
SW_SECONDS = 86_400
SPMM_BATCH = 4
REPEATS = 3

#: parity runs use a tiny cache budget (8 vertices/partition) so the
#: busiest window's packed edges, relabelled into its own few hundred
#: active vertices, genuinely span dozens of partitions
PARITY_BUDGET = 64

#: the large-V propagate instance: a 16 MB rank vector (64 partitions at
#: the default budget) with average in-degree 8
LARGE_V = 300_000
LARGE_M = 2_400_000

#: allowed slack of the auto policy over the better fixed backend
AUTO_SLACK = 1.10

#: interleaved timing rounds of the auto gate (odd: a clean median)
AUTO_ROUNDS = 7

BACKENDS = ("numpy", "numba", "auto")


def _best_of(fn, repeats: int = REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _parity_flags(view, views):
    """Bitwise parity of every backend against numpy (SpMV, weighted)
    and against the masked SpMM oracle (SpMM).

    The single-window kernels hand each backend's plan the busiest
    window's packed active edges — the largest edge list the
    partitioning sees on this profile.
    """
    cfgs = {
        b: replace(BENCH_CONFIG, backend=b, cache_budget=PARITY_BUDGET)
        for b in BACKENDS
    }
    kernels = {
        "spmv": lambda cfg: pagerank_window(
            view, cfg, workspace=Workspace()
        ),
        "weighted": lambda cfg: pagerank_window_weighted(
            view, cfg, workspace=Workspace()
        ),
    }
    flags = {}
    for name, solve in kernels.items():
        base = solve(cfgs["numpy"])
        flags[name] = all(
            np.array_equal(solve(cfgs[b]).values, base.values)
            for b in ("numba", "auto")
        )
    # the batch reads no backend, so comparing backends with one another
    # would only show that; each must match the full-width masked oracle
    oracle = reference_power_iterate_batch(
        views, cfgs["numpy"], None,
        np.full(len(views), BENCH_CONFIG.damping, dtype=np.float64),
        BENCH_CONFIG.alpha,
    )
    flags["spmm"] = all(
        _batch_equal(
            pagerank_windows_spmm(views, cfgs[b], workspace=Workspace()),
            oracle,
        )
        for b in BACKENDS
    )
    return flags


def _batch_equal(got, want) -> bool:
    """Values, per-window iterations and residuals equal bit for bit."""
    return (
        np.array_equal(got.values, want.values)
        and np.array_equal(
            got.iterations_per_window, want.iterations_per_window
        )
        and np.array_equal(got.residuals, want.residuals)
    )


def _large_v_instance(seed: int = 7):
    """A destination-sorted random edge list over a rank vector that is
    far larger than the cache budget."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, LARGE_V, LARGE_M)).astype(np.int64)
    cols = rng.integers(0, LARGE_V, LARGE_M).astype(np.int64)
    w = rng.random(LARGE_V)
    return rows, cols, w


def test_backends():
    events = get_events(PROFILE)
    spec = spec_for(events, DELTA_DAYS, SW_SECONDS, max_windows=48)
    adj = TemporalAdjacency.from_events(events)
    all_views = [
        adj.window_view(spec.window(i)) for i in range(spec.n_windows)
    ]
    # the busiest windows: parity on a trivial slice proves nothing
    busiest = sorted(
        all_views, key=lambda v: v.n_active_edges, reverse=True
    )
    views = sorted(busiest[:SPMM_BATCH], key=lambda v: v.window.index)
    view = busiest[0]

    # -- parity: every backend bitwise vs numpy / the SpMM oracle --------
    flags = _parity_flags(view, views)

    # -- per-iteration propagate cost at large V -------------------------
    rows, cols, w = _large_v_instance()
    periter_ms, bin_ms = {}, {}
    for name in ("numpy", "numba"):
        backend = create_backend(name)
        plan, t_bin = _best_of(
            lambda b=backend: b.make_plan(cols, rows, LARGE_V), 1
        )
        _, t_prop = _best_of(lambda p=plan: p.propagate(w))
        periter_ms[name] = t_prop * 1e3
        bin_ms[name] = t_bin * 1e3
    numba_over_numpy = periter_ms["numba"] / periter_ms["numpy"]

    # -- the auto gate: full kernel at large V ---------------------------
    # a full-span window over a synthetic graph whose rank vector dwarfs
    # the cache budget; auto must land within AUTO_SLACK of the better
    # fixed backend
    rng = np.random.default_rng(11)
    n_v, n_e = 150_000, 900_000
    ev = TemporalEventSet(
        rng.integers(0, n_v, n_e),
        rng.integers(0, n_v, n_e),
        rng.integers(0, 10_000, n_e),
        n_vertices=n_v,
    )
    big_view = TemporalAdjacency.from_events(ev).window_view(
        Window(0, 0, 10_001)
    )
    solves = {
        name: (
            lambda c=replace(BENCH_CONFIG, backend=name): pagerank_window(
                big_view, c, workspace=Workspace()
            )
        )
        for name in BACKENDS
    }
    round_seconds, runs = interleaved_rounds(solves, AUTO_ROUNDS)
    seconds = {
        name: float(np.median(t)) for name, t in round_seconds.items()
    }
    best_fixed = min(("numpy", "numba"), key=seconds.get)
    auto_ratios = round_ratios(round_seconds, "auto", ("numpy", "numba"))
    auto_over_best = float(np.median(auto_ratios))
    auto_within_bound = auto_over_best <= AUTO_SLACK
    resolved = resolve_backend(
        replace(BENCH_CONFIG, backend="auto"),
        big_view.n_active_edges, n_v, runs["numpy"].iterations,
    ).name

    # -- WorkStats attribution -------------------------------------------
    numba_work = runs["numba"].work
    stats_recorded = (
        numba_work.binning_seconds > 0.0
        and numba_work.propagate_seconds > 0.0
    )

    payload = {
        "availability": {"numba": bool(numba_available())},
        "parity": {k: bool(v) for k, v in flags.items()},
        "propagate_large_v": {
            "n_vertices": LARGE_V,
            "n_edges": LARGE_M,
            "numpy_ms": round(periter_ms["numpy"], 3),
            "numba_ms": round(periter_ms["numba"], 3),
            "numba_binning_ms": round(bin_ms["numba"], 3),
            "numba_over_numpy": round(numba_over_numpy, 4),
        },
        "auto": {
            "n_vertices": n_v,
            "n_edges": int(big_view.n_active_edges),
            "iterations": int(runs["numpy"].iterations),
            "seconds_numpy": round(seconds["numpy"], 4),
            "seconds_numba": round(seconds["numba"], 4),
            "seconds_auto": round(seconds["auto"], 4),
            "best_fixed": best_fixed,
            "resolved": resolved,
            "rounds": AUTO_ROUNDS,
            "auto_over_best_per_round": [round(r, 4) for r in auto_ratios],
            "auto_over_best": round(auto_over_best, 4),
            "auto_within_bound": bool(auto_within_bound),
        },
        "workstats": {
            "binning_seconds": round(numba_work.binning_seconds, 6),
            "propagate_seconds": round(numba_work.propagate_seconds, 6),
            "recorded": bool(stats_recorded),
        },
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "backends.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    rows_tbl = [
        [k, "bitwise" if ok else "DIVERGED"] for k, ok in flags.items()
    ]
    text = format_table(
        ["kernel", "every backend vs numpy (spmm: vs oracle)"], rows_tbl,
        title=(
            f"backend parity on {PROFILE} (window {view.window.index}, "
            f"{view.n_active_edges:,} packed edges, "
            f"cache budget {PARITY_BUDGET} B → "
            f"{-(-view.n_active_vertices // (PARITY_BUDGET // 8))} "
            "partitions)"
        ),
    )
    text += (
        f"\n\nlarge-V propagate ({LARGE_V:,} vertices, {LARGE_M:,} edges):"
        f" numpy {periter_ms['numpy']:.2f} ms/it,"
        f" numba {periter_ms['numba']:.2f} ms/it"
        f" (ratio {numba_over_numpy:.2f}x,"
        f" binning {bin_ms['numba']:.2f} ms once)"
        f"\nnumba available: {numba_available()}"
        f"\nauto on {n_v:,}-vertex window: resolved={resolved},"
        f" median {seconds['auto']:.3f}s vs best fixed"
        f" {best_fixed}={seconds[best_fixed]:.3f}s over {AUTO_ROUNDS}"
        f" interleaved rounds (median per-round ratio"
        f" {auto_over_best:.3f}x, bound {AUTO_SLACK:.2f}x)"
        f"\nworkstats: binning={numba_work.binning_seconds * 1e3:.2f} ms,"
        f" propagate={numba_work.propagate_seconds * 1e3:.2f} ms"
    )
    emit("backends", text)

    # the acceptance claims
    assert all(flags.values()), flags
    assert auto_within_bound, (
        f"auto {auto_over_best:.3f}x over best fixed backend"
    )
    assert stats_recorded
