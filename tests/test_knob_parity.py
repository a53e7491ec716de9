"""One parity suite over combinations of execution knobs.

Executors, partition methods and the input medium change how a run is
dispatched and where its graphs are built, never what is computed — so
every combination must reproduce the canonical answer *bitwise*:

* postmortem: executor {serial, shared} x partition method
  {uniform, minimax, greedy} x input {in-RAM, ``.tcsr``}, against the
  serial in-RAM run of the same partition method (balanced runs group
  windows differently, so their warm-start chains differ from uniform);
* offline: executor {serial, shared} x input, against the serial
  in-RAM run;
* kernels: kernel {spmv, spmm} (and the weighted SpMV kernel) x
  executor x window regime, against the canonical answer: the same
  warm-start chain solved serially by the masked oracles, which stream
  every stored event under the Θ(nnz) dedup mask
  (``tests/dense_mask_reference.py``).  The kernels themselves always
  iterate each window's packed active edges; the regimes are the windows
  a per-window edge-path choice would tell apart — ``compacted``: sparse
  windows of a bursty stream; ``masked``: windows whose pack is every
  stored event (fully active, no duplicate pairs), warm starts that are
  already the fixed point, and empty windows;
* the SpMM region schedule: program {PageRank, Katz} x partition method
  x executor x ``vector_length`` {1, 3, 16}, against each window solved
  alone by the masked oracle from the seed the region schedule hands it
  at each graph's chosen width (the run's ``metadata["lockstep"]``),
  with the task log's steps equal to the schedule's batches.

Values and per-window iteration counts must be equal, not close.  The
suite also pins the executor surface: the legal set is exactly
``serial``/``shared`` and anything else is a typed error.
"""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.errors import ValidationError
from repro.events import TemporalEventSet, WindowSpec
from repro.graph import multiwindow
from repro.graph.balanced import BalancedMultiWindowPartition
from repro.graph.io import open_events, write_tcsr
from repro.models import OfflineDriver, PostmortemDriver, PostmortemOptions
from repro.models.postmortem import region_width
from repro.models.schedule import spmm_region_schedule
from repro.pagerank import PagerankConfig
from repro.programs.katz import KatzConfig, KatzProgram
from repro.programs.pagerank import PagerankProgram
from repro.runtime import EXECUTORS
from tests.dense_mask_reference import (
    dense_mask_katz,
    dense_mask_pagerank,
    reference_chain,
)

CONFIG = PagerankConfig(tolerance=1e-11, max_iterations=300)
PARTITIONS = ("uniform", "minimax", "greedy")


@pytest.fixture(scope="module")
def events():
    """A burst in the middle of the span, so the balanced splits differ
    from the uniform one."""
    rng = np.random.default_rng(29)
    n = 1_500
    t = np.sort(np.concatenate([
        rng.integers(40_000, 55_000, int(n * 0.7)),
        rng.integers(0, 100_000, n - int(n * 0.7)),
    ]))
    src = rng.integers(0, 50, n)
    dst = (src + 1 + rng.integers(0, 48, n)) % 50
    return TemporalEventSet(src, dst, t, n_vertices=50)


@pytest.fixture(scope="module")
def spec(events):
    return WindowSpec.covering(events, delta=9_000, sw=2_500)


@pytest.fixture(scope="module")
def tcsr(events, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("knobs") / "events.tcsr")
    write_tcsr(events, path)
    return path


@pytest.fixture
def inputs(events, tcsr):
    """``{"ram": events, "tcsr": mapped events}``, unmapped afterwards."""
    mapped = open_events(tcsr)
    yield {"ram": events, "tcsr": mapped}
    mapped.close()


def postmortem(events, spec, executor="serial", partition="uniform"):
    options = PostmortemOptions(
        n_multiwindows=4, executor=executor, n_threads=2,
        partition_method=partition,
    )
    return PostmortemDriver(events, spec, CONFIG, options).run()


def offline(events, spec, executor="serial"):
    return OfflineDriver(
        events, spec, CONFIG, executor=executor, n_workers=2
    ).run()


def assert_bitwise(run, reference):
    assert len(run.windows) == len(reference.windows)
    for got, want in zip(run.windows, reference.windows):
        assert got.window_index == want.window_index
        assert got.iterations == want.iterations, got.window_index
        np.testing.assert_array_equal(got.values, want.values)


@pytest.fixture(scope="module")
def postmortem_reference(events, spec):
    return {p: postmortem(events, spec, partition=p) for p in PARTITIONS}


@pytest.fixture(scope="module")
def offline_reference(events, spec):
    return offline(events, spec)


@pytest.mark.parametrize("medium", ["ram", "tcsr"])
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_postmortem_bitwise(
    inputs, spec, postmortem_reference, executor, partition, medium
):
    run = postmortem(inputs[medium], spec, executor, partition)
    assert run.metadata["executor"] == executor
    assert_bitwise(run, postmortem_reference[partition])


@pytest.mark.parametrize("medium", ["ram", "tcsr"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_offline_bitwise(inputs, spec, offline_reference, executor, medium):
    run = offline(inputs[medium], spec, executor)
    assert run.metadata["executor"] == executor
    assert_bitwise(run, offline_reference)


#: (kernel, weighted) pairs: the weighted kernel exists only as SpMV
KERNELS = (("spmv", False), ("spmv", True), ("spmm", False))
REGIMES = ("masked", "compacted")


@pytest.fixture(scope="module")
def full_windows():
    """Events on distinct (src, dst) pairs at times 1..9 and a spec whose
    windows either hold all of them or none: window 0 and windows 16..23
    are empty, windows 1..15 are fully active and identical, so every
    warm start after window 1 is already the fixed point."""
    rng = np.random.default_rng(31)
    pairs = np.array([(s, d) for s in range(50) for d in range(50) if s != d])
    src, dst = pairs[rng.permutation(len(pairs))[:400]].T
    t = np.sort(rng.integers(1, 10, len(src)))
    events = TemporalEventSet(src, dst, t, n_vertices=50)
    return events, WindowSpec(t0=-600, delta=600, sw=40, n_windows=24)


@pytest.fixture(scope="module")
def regime_inputs(events, spec, full_windows):
    return {"masked": full_windows, "compacted": (events, spec)}


def kernel_run(events, spec, kernel, weighted, executor="serial"):
    options = PostmortemOptions(
        n_multiwindows=4, executor=executor, n_threads=2, kernel=kernel,
        vector_length=4, weighted=weighted,
    )
    return PostmortemDriver(events, spec, CONFIG, options).run()


@pytest.fixture(scope="module")
def kernel_reference(regime_inputs):
    return {
        (regime, kernel, weighted): reference_chain(
            *regime_inputs[regime], CONFIG, 4, kernel=kernel,
            vector_length=4, weighted=weighted,
        )
        for regime in REGIMES
        for kernel, weighted in KERNELS
    }


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("kernel, weighted", KERNELS)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_kernel_edge_path_bitwise(
    regime_inputs, kernel_reference, executor, kernel, weighted, regime
):
    events, spec = regime_inputs[regime]
    run = kernel_run(events, spec, kernel, weighted, executor)
    want = kernel_reference[(regime, kernel, weighted)]
    assert [w.window_index for w in run.windows] == list(
        range(spec.n_windows)
    )
    assert [w.iterations for w in run.windows] == want.iterations.tolist()
    np.testing.assert_array_equal(run.values_matrix(), want.values)


def test_masked_regime_windows_are_full_or_empty(full_windows):
    """Guards the ``masked`` regime: each window's pack is either every
    stored event of its graph or nothing, and every warm-started window
    converges in at most one iteration."""
    events, spec = full_windows
    part = multiwindow.LazyMultiWindowPartition(events, spec, 4)
    active = [
        (part.window_view(i).n_active_edges,
         part.window_view(i).adjacency.nnz)
        for i in range(spec.n_windows)
    ]
    assert all(n in (0, nnz) for n, nnz in active)
    assert [i for i, (n, _) in enumerate(active) if n] == list(range(1, 16))
    assert active[1][0] == len(events.src)
    # the serial chain starts cold at each graph's first active window
    # (graphs hold windows 0-5, 6-11, 12-17, 18-23)
    iterations = reference_chain(events, spec, CONFIG, 4).iterations
    cold = [1, 6, 12]
    assert all(iterations[cold] > 1)
    assert all(np.delete(iterations, cold) <= 1)


PROGRAMS = {
    "pagerank": PagerankProgram(config=CONFIG),
    "katz": KatzProgram(config=KatzConfig(tolerance=1e-12)),
}


def make_partition(events, spec, method):
    if method == "uniform":
        return multiwindow.LazyMultiWindowPartition(events, spec, 4)
    return BalancedMultiWindowPartition(events, spec, 4, method=method)


def region_oracle(events, spec, program, method, widths):
    """Every window solved alone by the masked oracle, seeded along the
    region schedule's chains at graph g's width ``widths[g]``:
    ``({window: (global values, iterations)}, {graph: [batch
    windows]})``."""
    part = make_partition(events, spec, method)
    windows, batches = {}, {}
    for g in range(len(part)):
        graph = part.graph_at(g)
        schedule = spmm_region_schedule(
            graph.first_window, graph.n_windows, widths[g]
        )
        batches[g] = [b.windows for b in schedule]
        views, values = {}, {}
        for batch in schedule:
            for w, pred in zip(batch.windows, batch.predecessors):
                view = views[w] = graph.window_view(w)
                x0 = (
                    program.init_window(view) if pred is None
                    else program.warm_start(view, views[pred], values[pred])
                )
                if isinstance(program, KatzProgram):
                    pr = dense_mask_katz(view, program.config, x0=x0)
                else:
                    pr = dense_mask_pagerank(view, program.config, x0=x0)
                values[w] = pr.values
                windows[w] = (
                    graph.to_global(pr.values, events.n_vertices),
                    pr.iterations,
                )
    return windows, batches


@pytest.fixture(scope="module")
def region_oracles(events, spec):
    """:func:`region_oracle` per (program, method, widths), computed once
    for both executors."""
    cache = {}

    def get(name, method, widths):
        key = (name, method, tuple(widths))
        if key not in cache:
            cache[key] = region_oracle(
                events, spec, PROGRAMS[name], method, widths
            )
        return cache[key]

    return get


@pytest.mark.parametrize("width", [1, 3, 16])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("method", PARTITIONS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_spmm_region_schedule_bitwise(
    events, spec, region_oracles, name, method, executor, width
):
    """``kernel="spmm"`` steps each graph's regions through one lockstep
    loop at the width the run chose for it: every window equals its
    masked single-window solve along that width's region schedule, and
    the task log holds one record per schedule batch."""
    options = PostmortemOptions(
        n_multiwindows=4, kernel="spmm", vector_length=width,
        executor=executor, n_threads=2, partition_method=method,
    )
    run = PostmortemDriver(
        events, spec, CONFIG, options, program=PROGRAMS[name]
    ).run()
    lockstep = run.metadata["lockstep"]
    assert lockstep["widths"] == [
        region_width(peak, size, width) for peak, size in zip(
            lockstep["max_window_events"], graph_sizes(events, spec, method)
        )
    ]
    windows, batches = region_oracles(name, method, lockstep["widths"])
    assert [w.window_index for w in run.windows] == sorted(windows)
    for w in run.windows:
        values, iterations = windows[w.window_index]
        assert w.iterations == iterations, w.window_index
        np.testing.assert_array_equal(w.values, values)
    log = run.metadata["task_log"]
    for g, steps in batches.items():
        assert [t.windows for t in log if t.multiwindow == g] == steps, g
    if width > 1:
        assert any(len(t.windows) > 1 for t in log)


def graph_sizes(events, spec, method):
    """Window count of every multi-window graph, from the recipes."""
    part = make_partition(events, spec, method)
    return [
        part.graph_payload(g)[0].n_windows for g in range(len(part))
    ]


def run_starts(partition):
    """First window of every multi-window graph, from the recipes."""
    return [partition.graph_payload(g)[1] for g in range(len(partition))]


def test_balanced_splits_differ_from_uniform(events, spec):
    """Guards the suite's premise: the balanced rows test other chains."""
    uniform = multiwindow.LazyMultiWindowPartition(events, spec, 4)
    for method in ("minimax", "greedy"):
        balanced = BalancedMultiWindowPartition(
            events, spec, 4, method=method
        )
        assert run_starts(balanced) != run_starts(uniform), method


@pytest.mark.parametrize("method", ["minimax", "greedy"])
def test_balanced_partition_on_tcsr_builds_no_graph(
    inputs, spec, monkeypatch, method
):
    built = []
    real = multiwindow.build_compact_graph

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(multiwindow, "build_compact_graph", counting)
    part = BalancedMultiWindowPartition(
        inputs["tcsr"], spec, 4, method=method
    )
    assert part.memory_bytes() == 0
    assert part.mapped_bytes() > 0
    assert built == []
    part.graph_at(0)
    assert built == [1]


@pytest.mark.parametrize("method", ["minimax", "greedy"])
def test_balanced_shared_on_tcsr_matches_in_ram_serial(
    inputs, spec, postmortem_reference, method
):
    run = postmortem(inputs["tcsr"], spec, "shared", method)
    assert run.metadata["shared_arena"]["arena_bytes"] == 0  # mapped
    assert_bitwise(run, postmortem_reference[method])


class TestExecutorSurface:
    def test_options_reject_process_naming_legal_set(self):
        with pytest.raises(ValidationError) as exc:
            PostmortemOptions(executor="process")
        assert str(EXECUTORS) in str(exc.value)

    def test_driver_rejects_process_naming_legal_set(self, events, spec):
        with pytest.raises(ValidationError) as exc:
            OfflineDriver(events, spec, CONFIG, executor="process")
        assert str(EXECUTORS) in str(exc.value)

    def test_cli_rejects_process(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "x.tsv", "--delta-days", "1", "--sw", "1",
                 "--executor", "process"]
            )
        assert "shared" in capsys.readouterr().err

    def test_thread_executor_removed(self, events, spec, capsys):
        """Shared dispatch is the one way to fan out: ``thread`` is
        rejected by the options, the drivers and the CLI alike."""
        for make in (
            lambda: PostmortemOptions(executor="thread"),
            lambda: OfflineDriver(events, spec, CONFIG, executor="thread"),
        ):
            with pytest.raises(ValidationError) as exc:
                make()
            assert str(EXECUTORS) in str(exc.value)
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "x.tsv", "--delta-days", "1", "--sw", "1",
                 "--executor", "thread"]
            )
        assert "'serial', 'shared'" in capsys.readouterr().err
