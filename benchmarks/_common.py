"""Shared infrastructure for the benchmark harness.

Every ``bench_*.py`` regenerates one table or figure of the paper.  The
instances are the scaled synthetic profiles (DESIGN.md §2 documents the
substitution); where a figure's window count matters (Figures 7–10 fix 6,
256 and 1024 windows) the sliding offset is chosen to hit the paper's
window count on the scaled time span, and the effective parameters are
printed with the output.

Rendered outputs are printed *and* written to ``benchmarks/output/`` so
EXPERIMENTS.md can reference them.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path

from repro.datasets import DatasetRegistry
from repro.events import WindowSpec
from repro.pagerank import PagerankConfig
from repro.parallel import calibrate_cost_model, collect_window_stats
from repro.streaming import StreamingDriver
from repro.utils.timer import Timer

OUTPUT_DIR = Path(__file__).parent / "output"

#: default down-scale of the synthetic instances used by the harness;
#: raise REPRO_BENCH_SCALE for a heavier, more faithful run.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))

#: cap on windows per configuration so streaming baselines finish quickly
MAX_WINDOWS = int(os.environ.get("REPRO_BENCH_MAX_WINDOWS", "240"))

#: the paper's machine: 2 x 24-core Xeon
PAPER_CORES = 48

REGISTRY = DatasetRegistry()

BENCH_CONFIG = PagerankConfig(tolerance=1e-8, max_iterations=100)


def get_events(name: str, scale: float = None):
    """The scaled synthetic instance for a dataset profile (memoized)."""
    return REGISTRY.get(name, scale=scale if scale is not None else BENCH_SCALE)


def spec_for(events, delta_days: float, sw_seconds: int,
             max_windows: int = None) -> WindowSpec:
    """The paper's (delta, sw) on the scaled instance; if that yields more
    than ``max_windows`` windows, the sliding offset is scaled up by an
    integer factor (recorded via ``spec.sw``) to keep the full span covered
    with a bounded window count."""
    cap = max_windows or MAX_WINDOWS
    spec = WindowSpec.covering_days(events, delta_days, sw_seconds)
    if spec.n_windows > cap:
        factor = -(-spec.n_windows // cap)
        spec = WindowSpec.covering_days(events, delta_days,
                                        sw_seconds * factor)
    return spec


def spec_with_n_windows(events, delta_days: float, n_windows: int) -> WindowSpec:
    """A spec with (approximately) a fixed window count over the full span
    — used by Figures 7-10, whose x-axes fix the number of windows."""
    delta = int(delta_days * 86_400)
    span = max(events.span - delta, 1)
    sw = max(1, span // max(n_windows - 1, 1))
    return WindowSpec(t0=events.t_min, delta=delta, sw=sw,
                      n_windows=n_windows)


@functools.lru_cache(maxsize=1)
def cost_model():
    """The machine-calibrated cost model (calibrated once per session)."""
    return calibrate_cost_model()


_STREAMING_CACHE = {}


def streaming_seconds(name: str, spec: WindowSpec, scale: float = None) -> float:
    """Measured wall-clock of the streaming baseline (memoized per
    configuration)."""
    key = (name, scale, spec.t0, spec.delta, spec.sw, spec.n_windows)
    if key not in _STREAMING_CACHE:
        events = get_events(name, scale)
        with Timer() as t:
            StreamingDriver(events, spec, BENCH_CONFIG).run(store_values=False)
        _STREAMING_CACHE[key] = t.elapsed
    return _STREAMING_CACHE[key]


_STATS_CACHE = {}


def postmortem_stats(name: str, spec: WindowSpec, n_multiwindows: int = 6,
                     scale: float = None):
    """Measured per-window statistics for the simulator (memoized)."""
    key = (name, scale, spec.t0, spec.delta, spec.sw, spec.n_windows,
           n_multiwindows)
    if key not in _STATS_CACHE:
        events = get_events(name, scale)
        _STATS_CACHE[key] = collect_window_stats(
            events, spec, BENCH_CONFIG, n_multiwindows
        )
    return _STATS_CACHE[key]


def interleaved_rounds(fns, rounds: int):
    """Time every callable once per round after one untimed warm-up
    call each, rotating which goes first.

    A host whose speed drifts over a few seconds slows every contender of
    a round alike, so per-round ratios see through drift that separate
    best-of runs cannot.

    Returns ``({name: [seconds per round]}, {name: last result})``.
    """
    names = list(fns)
    results = {name: fns[name]() for name in names}
    seconds = {name: [] for name in names}
    for r in range(rounds):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            t0 = time.perf_counter()
            results[name] = fns[name]()
            seconds[name].append(time.perf_counter() - t0)
    return seconds, results


def round_ratios(round_seconds, name: str, fixed):
    """Per round, ``name``'s time over the fastest of ``fixed`` in that
    same round (the auto-policy gates take the median)."""
    return [
        t / min(others)
        for t, *others in zip(
            round_seconds[name], *(round_seconds[f] for f in fixed)
        )
    ]


def emit(name: str, text: str) -> str:
    """Print a rendered table/figure and persist it under
    benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
    return text
