"""One parity suite over combinations of execution knobs.

Executors, partition methods and the input medium change how a run is
dispatched and where its graphs are built, never what is computed — so
every combination must reproduce the canonical answer *bitwise*:

* postmortem: executor {serial, thread, shared} x partition method
  {uniform, minimax, greedy} x input {in-RAM, ``.tcsr``}, against the
  serial in-RAM run of the same partition method (balanced runs group
  windows differently, so their warm-start chains differ from uniform);
* offline: executor {serial, thread, shared} x input, against the serial
  in-RAM run;
* kernels: kernel {spmv, spmm} x edge path {masked, compacted} (and the
  weighted SpMV kernel) x executor, against the serial masked run of the
  same kernel on the numpy backend — the compacted paths pack window
  views' active groups, the masked ones stream the Θ(nnz) dedup mask.

Values and per-window iteration counts must be equal, not close.  The
suite also pins the executor surface: the legal set is exactly
``serial``/``thread``/``shared`` and anything else is a typed error.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import build_parser
from repro.errors import ValidationError
from repro.events import TemporalEventSet, WindowSpec
from repro.graph import multiwindow
from repro.graph.balanced import BalancedMultiWindowPartition
from repro.graph.io import open_events, write_tcsr
from repro.models import OfflineDriver, PostmortemDriver, PostmortemOptions
from repro.pagerank import PagerankConfig
from repro.runtime import EXECUTORS

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


def kernel_run(events, spec, kernel, weighted, edge_path, executor="serial"):
    config = replace(CONFIG, edge_path=edge_path, backend="numpy")
    options = PostmortemOptions(
        n_multiwindows=4, executor=executor, n_threads=2, kernel=kernel,
        vector_length=4, weighted=weighted,
    )
    return PostmortemDriver(events, spec, config, options).run()


@pytest.fixture(scope="module")
def kernel_reference(events, spec):
    return {
        (kernel, weighted): kernel_run(
            events, spec, kernel, weighted, "masked"
        )
        for kernel, weighted in KERNELS
    }


@pytest.mark.parametrize("edge_path", ["masked", "compacted"])
@pytest.mark.parametrize("kernel, weighted", KERNELS)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_kernel_edge_path_bitwise(
    events, spec, kernel_reference, executor, kernel, weighted, edge_path
):
    run = kernel_run(events, spec, kernel, weighted, edge_path, executor)
    assert_bitwise(run, kernel_reference[(kernel, weighted)])


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
                ["run", "x.npz", "--delta-days", "1", "--sw", "1",
                 "--executor", "process"]
            )
        assert "shared" in capsys.readouterr().err
