"""Lockstep chains: the serial postmortem run against the per-chain run.

On the serial executor the postmortem driver steps window j of every
multi-window graph in a lockstep group through one batched power
iteration (:func:`repro.programs.engine.solve_program_chains`).  The
contract is that nothing observable changes: every window's float64
values, iteration count, residual and ``converged`` bit equal a chain
that solves its graph's windows one after another with the masked
single-window oracles of ``tests/dense_mask_reference.py``.  The inputs
cover chains of unequal length (balanced partitions), an empty window in
the middle of a chain, chains whose windows converge in one iteration,
and windows that stop at the iteration cap.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec
from repro.graph.balanced import (
    BalancedMultiWindowPartition,
    window_event_counts,
)
from repro.graph.multiwindow import LazyMultiWindowPartition
from repro.models import postmortem as pm
from repro.models.postmortem import (
    PostmortemDriver,
    PostmortemOptions,
    region_width,
)
from repro.pagerank.config import PagerankConfig
from repro.programs import engine
from repro.programs.katz import KatzConfig, KatzProgram
from repro.programs.pagerank import PagerankProgram
from repro.service import RankStoreWriter
from tests.dense_mask_reference import dense_mask_katz, dense_mask_pagerank

CONFIG = PagerankConfig(tolerance=1e-11, max_iterations=300)
KATZ = KatzConfig(tolerance=1e-12)
PROGRAMS = ("pagerank", "weighted", "katz")
PARTITIONS = ("uniform", "minimax", "greedy")


def make_program(name: str, config: PagerankConfig = CONFIG):
    if name == "katz":
        return KatzProgram(config=replace(
            KATZ, max_iterations=config.max_iterations, strict=config.strict,
        ))
    return PagerankProgram(config=config, weighted=name == "weighted")


def masked_solve(program, view, x0):
    if isinstance(program, KatzProgram):
        return dense_mask_katz(view, program.config, x0=x0)
    return dense_mask_pagerank(
        view, program.config, x0=x0, weighted=program.weighted
    )


def per_chain(events, spec, program, partition, n_graphs):
    """Each graph's windows solved one after another by the masked
    oracles, warm-started by the program: ``{window: (values,
    iterations, residual, converged)}`` with values in the global space."""
    if partition == "uniform":
        part = LazyMultiWindowPartition(events, spec, n_graphs)
    else:
        part = BalancedMultiWindowPartition(
            events, spec, n_graphs, method=partition
        )
    out = {}
    for g in range(len(part)):
        graph = part.graph_at(g)
        prev = None
        for w in graph.window_indices():
            view = graph.window_view(w)
            x0 = (
                program.init_window(view) if prev is None
                else program.warm_start(view, *prev)
            )
            pr = masked_solve(program, view, x0)
            out[w] = (
                graph.to_global(pr.values, events.n_vertices),
                pr.iterations, pr.residual, pr.converged,
            )
            prev = (view, pr.values)
    return out


def run(events, spec, program, partition="uniform", n_graphs=4,
        executor="serial", kernel="spmv", **kw):
    options = PostmortemOptions(
        n_multiwindows=n_graphs, partition_method=partition,
        executor=executor, n_threads=2, kernel=kernel,
    )
    return PostmortemDriver(
        events, spec, program.config if isinstance(program, PagerankProgram)
        else CONFIG, options, program=program,
    ).run(**kw)


def assert_matches(result, reference):
    assert [w.window_index for w in result.windows] == sorted(reference)
    for w in result.windows:
        values, iterations, residual, converged = reference[w.window_index]
        assert w.iterations == iterations, w.window_index
        assert w.converged == converged, w.window_index
        # bitwise, NaN-free: residuals and values compare exactly
        assert w.residual == residual, w.window_index
        np.testing.assert_array_equal(w.values, values)


@pytest.fixture(scope="module")
def burst():
    """A burst in the middle of the span, so the balanced splits cut
    chains of different lengths."""
    rng = np.random.default_rng(29)
    n = 1_500
    t = np.sort(np.concatenate([
        rng.integers(40_000, 55_000, int(n * 0.7)),
        rng.integers(0, 100_000, n - int(n * 0.7)),
    ]))
    src = rng.integers(0, 50, n)
    dst = (src + 1 + rng.integers(0, 48, n)) % 50
    events = TemporalEventSet(src, dst, t, n_vertices=50)
    return events, WindowSpec.covering(events, delta=9_000, sw=2_500)


@pytest.fixture(scope="module")
def gap():
    """No events in [40k, 60k): windows 16..19 of the 2.5k-step spec are
    empty, in the middle of the second of three chains."""
    rng = np.random.default_rng(7)
    n = 900
    t = np.sort(np.concatenate([
        rng.integers(0, 40_000, n // 2), rng.integers(60_000, 100_000, n // 2)
    ]))
    src = rng.integers(0, 40, n)
    dst = (src + 1 + rng.integers(0, 38, n)) % 40
    events = TemporalEventSet(src, dst, t, n_vertices=40)
    return events, WindowSpec(t0=0, delta=2_500, sw=2_500, n_windows=40)


@pytest.fixture(scope="module")
def identical():
    """Windows 1..15 hold the same edges and windows 0 and 16..23 none,
    so every warm-started window converges in one iteration."""
    rng = np.random.default_rng(31)
    pairs = np.array([(s, d) for s in range(50) for d in range(50) if s != d])
    src, dst = pairs[rng.permutation(len(pairs))[:400]].T
    t = np.sort(rng.integers(1, 10, len(src)))
    events = TemporalEventSet(src, dst, t, n_vertices=50)
    return events, WindowSpec(t0=-600, delta=600, sw=40, n_windows=24)


@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_unequal_chains_bitwise(burst, name, partition):
    events, spec = burst
    program = make_program(name)
    if partition != "uniform":
        part = BalancedMultiWindowPartition(events, spec, 4, method=partition)
        lengths = {part.graph_at(g).n_windows for g in range(len(part))}
        assert len(lengths) > 1  # the premise: chains of unequal length
    reference = per_chain(events, spec, program, partition, 4)
    assert_matches(run(events, spec, program, partition), reference)


@pytest.mark.parametrize("name", PROGRAMS)
def test_empty_window_mid_chain(gap, name):
    events, spec = gap
    program = make_program(name)
    reference = per_chain(events, spec, program, "uniform", 3)
    empty = [w for w, r in reference.items() if r[1] == 0]
    assert empty and min(empty) > 13 and max(empty) < 26  # chain 2 of 3
    assert_matches(run(events, spec, program, n_graphs=3), reference)


# Katz is absent: its warm start is the unit-mass previous solution,
# while its raw iteration's fixed point is not unit-mass, so even an
# unchanged window takes the full descent
@pytest.mark.parametrize("name", ("pagerank", "weighted"))
def test_one_iteration_chains(identical, name):
    events, spec = identical
    program = make_program(name)
    reference = per_chain(events, spec, program, "uniform", 4)
    assert sum(r[1] == 1 for r in reference.values()) >= 10
    assert_matches(run(events, spec, program), reference)


@pytest.mark.parametrize("name", PROGRAMS)
def test_iteration_cap(burst, name):
    events, spec = burst
    program = make_program(name, replace(CONFIG, max_iterations=6))
    reference = per_chain(events, spec, program, "minimax", 4)
    assert sum(not r[3] for r in reference.values()) >= 5
    assert_matches(run(events, spec, program, "minimax"), reference)


def test_strict_names_first_window_of_the_level(burst):
    """A strict run raises at the first lockstep step with a capped
    window, naming that step's lowest window index (one per chain, so
    the window of the earliest chain that failed at that step)."""
    events, spec = burst
    config = replace(CONFIG, max_iterations=3, strict=True)
    program = make_program("pagerank", config)
    loose = make_program("pagerank", replace(config, strict=False))
    part = LazyMultiWindowPartition(events, spec, 4)
    first = [part.graph_at(g).first_window for g in range(len(part))]
    failed = [
        w for w, r in per_chain(events, spec, loose, "uniform", 4).items()
        if not r[3]
    ]
    step = min(w - max(f for f in first if f <= w) for w in failed)
    named = min(
        w for w in failed if w - max(f for f in first if f <= w) == step
    )
    with pytest.raises(ConvergenceError, match=f"window {named} did not"):
        run(events, spec, program)


def test_sink_sees_every_window_once(burst):
    events, spec = burst
    seen = []
    run(events, spec, make_program("pagerank"), store_values=False,
        value_sink=lambda w, values, meta: seen.append(w))
    assert sorted(seen) == list(range(spec.n_windows))


def test_serial_and_shared_stores_identical(burst, tmp_path):
    events, spec = burst
    program = make_program("pagerank")
    paths = {}
    for executor in ("serial", "shared"):
        path = paths[executor] = tmp_path / f"{executor}.rankstore"
        writer = RankStoreWriter(
            path, spec.n_windows, events.n_vertices, spec=spec
        )
        run(events, spec, program, "minimax", executor=executor,
            store_values=False, value_sink=writer.write_window)
        writer.close()
    assert paths["serial"].read_bytes() == paths["shared"].read_bytes()


def test_task_log_and_progress_match_per_graph_run(burst, monkeypatch):
    """``LOCKSTEP_EVENTS = 0`` puts every graph in a task of its own:
    the task log (what the machine simulator replays) and the progress
    reports must not tell the two runs apart."""
    events, spec = burst
    program = make_program("pagerank")

    def logged():
        reports = []
        result = run(events, spec, program, "greedy",
                     progress=lambda done, total: reports.append(
                         (done, total)))
        return result.metadata["task_log"], reports

    lockstep_log, lockstep_progress = logged()
    monkeypatch.setattr(pm, "LOCKSTEP_EVENTS", 0)
    alone_log, alone_progress = logged()
    assert lockstep_log == alone_log
    assert lockstep_progress == alone_progress == [(i, 4) for i in range(1, 5)]


def test_graph_above_the_bound_runs_alone(burst, monkeypatch):
    events, spec = burst
    part = LazyMultiWindowPartition(events, spec, 4)
    sizes = [hi - lo for _, _, lo, hi in
             (part.graph_payload(g) for g in range(len(part)))]
    big = int(np.argmax(sizes))
    # the bound fits any two of the other graphs, never the largest
    monkeypatch.setattr(pm, "LOCKSTEP_EVENTS", sizes[big] - 1)
    assert sum(sorted(sizes)[:2]) <= sizes[big] - 1
    calls = []
    original = engine.solve_program_chains

    def spy(graphs, indices, *args, **kw):
        calls.append(list(indices))
        return original(graphs, indices, *args, **kw)

    monkeypatch.setattr(pm, "solve_program_chains", spy)
    program = make_program("pagerank")
    result = run(events, spec, program)
    assert [big] in calls
    assert sorted(g for c in calls for g in c) == [0, 1, 2, 3]
    assert any(len(c) > 1 for c in calls)
    assert_matches(result, per_chain(events, spec, program, "uniform", 4))


def test_custom_program_defaults_to_one_window_at_a_time(burst):
    """An iterative program with no batched loop of its own: the base
    class solves a lockstep step window by window, so the chains still
    group and every answer is unchanged."""
    from repro.programs.base import VertexProgram

    reference = make_program("pagerank")

    class PlainPagerank(VertexProgram):
        name = "plain"
        config = CONFIG

        def init_window(self, view):
            return reference.init_window(view)

        def warm_start(self, view, prev_view, prev_values):
            return reference.warm_start(view, prev_view, prev_values)

        def solve_window(self, view, x0=None, *, workspace=None):
            return reference.solve_window(view, x0, workspace=workspace)

    events, spec = burst
    assert_matches(
        run(events, spec, PlainPagerank(), "greedy"),
        per_chain(events, spec, reference, "greedy", 4),
    )


@pytest.mark.parametrize("executor", ("serial", "shared"))
@pytest.mark.parametrize("name", PROGRAMS)
def test_step_cap_changes_no_bit(burst, monkeypatch, name, executor):
    """A step cap of one edge solves every window of a step alone, one of
    2**40 edges the whole step in one call; the chains are independent,
    so every window's bits are the same either way."""
    events, spec = burst
    program = make_program(name)
    runs = {}
    for cap in (1, 1 << 40):
        monkeypatch.setattr(engine, "STEP_EVENTS", cap)
        runs[cap] = run(events, spec, program, "minimax", executor=executor)
    alone, whole = runs[1], runs[1 << 40]
    for a, b in zip(alone.windows, whole.windows):
        assert a.window_index == b.window_index
        assert (a.iterations, a.converged, a.residual) == (
            b.iterations, b.converged, b.residual
        ), a.window_index
        np.testing.assert_array_equal(a.values, b.values)
    calls = [r.metadata["lockstep"]["solve_calls"] for r in (alone, whole)]
    assert calls[0] == spec.n_windows  # every burst window has edges
    if executor == "serial":  # shared tasks hold one chain per step
        assert calls[1] < calls[0]
    assert_matches(whole, per_chain(events, spec, program, "minimax", 4))


@pytest.mark.parametrize("vector_length", (1, 3, 16))
def test_region_width_rule(vector_length):
    """A window that fills a step alone gives width 1; smaller windows
    give as many regions as a step holds, at most ``vector_length`` and
    the graph's window count."""
    step = engine.STEP_EVENTS
    for peak in (step, step + 1, 40 * step):
        assert region_width(peak, 30, vector_length) == 1
    for peak, n_windows in ((step // 2, 30), (step // 5, 30),
                            (step // 40, 30), (step // 40, 2), (0, 30)):
        assert region_width(peak, n_windows, vector_length) == min(
            vector_length, n_windows, step // max(peak, 1)
        )


def test_lockstep_metadata_reads_back(burst, monkeypatch):
    """``metadata["lockstep"]`` holds the step cap, each graph's width
    and the largest window event count it came from, and the number of
    solve calls; width-1 graphs log plain ``spmv`` records."""
    events, spec = burst
    counts = window_event_counts(events, spec)
    part = LazyMultiWindowPartition(events, spec, 4)
    graphs = [part.graph_at(g) for g in range(len(part))]
    peaks = [
        int(counts[g.first_window:g.first_window + g.n_windows].max())
        for g in graphs
    ]
    # the burst's graph fills a step alone, the others do not
    monkeypatch.setattr(engine, "STEP_EVENTS", max(peaks))
    calls = []
    for method in ("solve_window", "solve_batch"):
        def spy(self, *args, _original=getattr(PagerankProgram, method),
                **kw):
            calls.append(1)
            return _original(self, *args, **kw)

        monkeypatch.setattr(PagerankProgram, method, spy)
    result = run(events, spec, make_program("pagerank"), kernel="spmm")
    lockstep = result.metadata["lockstep"]
    widths = [
        region_width(peak, g.n_windows, 16)
        for peak, g in zip(peaks, graphs)
    ]
    assert 1 in widths and max(widths) > 1
    assert lockstep == {
        "step_events": max(peaks),
        "widths": widths,
        "max_window_events": peaks,
        "solve_calls": len(calls),
    }
    log = result.metadata["task_log"]
    # region heads fit one call, so each (graph, step) record is one call
    assert len(log) == len(calls)
    for task in log:
        assert task.kernel == (
            "spmm" if len(task.windows) > 1 else "spmv"
        )
        if widths[task.multiwindow] == 1:
            assert len(task.windows) == 1
