"""Kernel-backend registry: plan structure, bitwise parity of the
numpy/numba backends across all three kernels, the ``backend="auto"``
cost-model decision, numba-absent degradation, and the driver/CLI
threading of ``backend``."""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.models import PostmortemDriver, PostmortemOptions
from repro.pagerank import (
    PagerankConfig,
    Workspace,
    pagerank_window,
    pagerank_window_weighted,
    pagerank_windows_spmm,
)
from repro.pagerank.backends import (
    BACKEND_NAMES,
    NumbaBackend,
    NumpyBackend,
    backend_availability,
    create_backend,
    numba_available,
    resolve_backend,
    validate_backend_name,
)
from repro.pagerank.backends import numba_backend as numba_mod
from repro.pagerank.backends import registry as registry_mod
from repro.pagerank.backends.numba_backend import (
    DEFAULT_CACHE_BUDGET,
    NumbaPlan,
)
from repro.pagerank.backends.numpy_backend import NumpyPlan
from repro.parallel.cost_model import (
    DEFAULT_EXPECTED_ITERATIONS,
    CostModel,
    choose_backend,
)
from tests.conftest import random_events
from tests.dense_mask_reference import dense_mask_pagerank
from tests.test_edge_compaction import (
    CFG,
    _views_regimes,
    assert_batch_matches,
    make_view,
    spmm_oracle,
)

#: a tiny budget (8 vertices per partition) so even the small test graphs
#: span several partitions
TINY_BUDGET = 64


@pytest.fixture
def no_numba(monkeypatch):
    """Simulate an environment without numba and reset the JIT cache."""
    monkeypatch.setitem(sys.modules, "numba", None)
    numba_available.cache_clear()
    numba_mod._load_pull_1d.cache_clear()
    yield
    numba_available.cache_clear()
    numba_mod._load_pull_1d.cache_clear()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("auto", "numpy", "numba")
        for name in BACKEND_NAMES:
            assert validate_backend_name(name) == name
        with pytest.raises(ValidationError):
            validate_backend_name("gpu")

    def test_create(self):
        assert isinstance(create_backend("numpy"), NumpyBackend)
        assert isinstance(create_backend("numba"), NumbaBackend)
        with pytest.raises(ValidationError):
            create_backend("auto")

    def test_cache_budget_shapes_partition_width(self):
        assert create_backend("numba", 64).width == 8
        assert create_backend("numba", 1).width == 1
        with pytest.raises(ValidationError):
            create_backend("numba", 0)

    def test_availability_covers_concrete_backends(self):
        avail = backend_availability()
        assert set(avail) == {"numpy", "numba"}
        assert avail["numpy"][0]
        assert avail["numba"][0] == numba_available()
        assert all(note for _, note in avail.values())

    def test_config_validates(self):
        assert PagerankConfig(backend="numba").backend == "numba"
        with pytest.raises(ValidationError):
            PagerankConfig(backend="gpu")
        with pytest.raises(ValidationError):
            PagerankConfig(cache_budget=0)

    def test_removed_pcpm_name_rejected_naming_legal_set(self, capsys):
        legal = str(BACKEND_NAMES)
        with pytest.raises(ValidationError) as exc:
            PagerankConfig(backend="pcpm")
        assert legal in str(exc.value)

        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "x.npz", "--delta-days", "1", "--sw", "1",
                 "--backend", "pcpm"]
            )
        err = capsys.readouterr().err
        assert "'pcpm'" in err
        assert all(f"'{name}'" in err for name in BACKEND_NAMES)


# ---------------------------------------------------------------------------
# plan structure
# ---------------------------------------------------------------------------
class TestPlanStructure:
    """The numba plan's destination binning; construction needs no JIT."""

    def _plan(self, rows, n_rows, width, **kw):
        rows = np.asarray(rows, dtype=np.int64)
        col = np.zeros(rows.size, dtype=np.int64)
        return NumbaPlan(col, rows, n_rows, width, **kw)

    def test_partition_spans_and_local_ids(self):
        # destinations 0..9 over width-4 partitions: {0-3}, {4-7}, {8-9}
        rows = [0, 0, 1, 3, 4, 4, 5, 8, 9, 9]
        plan = self._plan(rows, 10, 4)
        assert plan.n_parts == 3
        assert plan.pstart.tolist() == [0, 4, 7, 10]
        assert plan.dst_local.tolist() == [0, 0, 1, 3, 0, 0, 1, 0, 1, 1]

    def test_unsorted_rows_rejected(self):
        with pytest.raises(ValidationError):
            self._plan([3, 1, 2], 5, 4)

    def test_empty_edge_list(self):
        plan = self._plan([], 6, 4)
        assert plan.pstart.tolist() == [0, 0, 0]
        out = plan.propagate(np.ones(6, dtype=np.float64))
        assert np.array_equal(out, np.zeros(6, dtype=np.float64))

    def test_workspace_pools_dst_local(self):
        ws = Workspace()
        rows = np.array([0, 2, 5, 7], dtype=np.int64)
        a = self._plan(rows, 8, 4, workspace=ws, key="p", capacity=16)
        b = self._plan(rows, 8, 4, workspace=ws, key="p", capacity=16)
        assert np.shares_memory(a.dst_local, b.dst_local)
        assert np.array_equal(a.dst_local, rows % 4)

    def test_propagate_matches_flat_reference(self):
        # the fused JIT loop where numba is importable, the inherited
        # flat pass (the compile-failure fallback) where it is not
        rng = np.random.default_rng(7)
        n, m = 30, 200
        rows = np.sort(rng.integers(0, n, m)).astype(np.int64)
        col = rng.integers(0, n, m).astype(np.int64)
        w = rng.random(n)
        weights = rng.random(m)
        flat = NumpyBackend().make_plan(col, rows, n)
        part = NumbaPlan(col, rows, n, TINY_BUDGET // 8)
        assert part.n_parts > 1
        assert np.array_equal(
            part.propagate(w, weights=weights),
            flat.propagate(w, weights=weights),
        )
        assert np.array_equal(part.propagate(w), flat.propagate(w))


# ---------------------------------------------------------------------------
# bitwise parity: numpy vs numba vs auto, all three kernels
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("use_workspace", [False, True], ids=["owned", "ws"])
@pytest.mark.parametrize(
    "name,view", _views_regimes(), ids=[n for n, _ in _views_regimes()]
)
class TestBackendParity:
    OTHERS = ("numba", "auto")

    def _cfg(self, backend):
        return replace(CFG, backend=backend, cache_budget=TINY_BUDGET)

    def _solve(self, kernel, view, backend, use_workspace, **kw):
        ws = Workspace() if use_workspace else None
        return kernel(view, self._cfg(backend), workspace=ws, **kw)

    def test_spmv(self, name, view, use_workspace):
        base = self._solve(pagerank_window, view, "numpy", use_workspace)
        for backend in self.OTHERS:
            r = self._solve(pagerank_window, view, backend, use_workspace)
            assert np.array_equal(r.values, base.values), backend
            assert r.iterations == base.iterations

    def test_weighted(self, name, view, use_workspace):
        base = self._solve(
            pagerank_window_weighted, view, "numpy", use_workspace
        )
        for backend in self.OTHERS:
            r = self._solve(
                pagerank_window_weighted, view, backend, use_workspace
            )
            assert np.array_equal(r.values, base.values), backend
            assert r.iterations == base.iterations

    def test_spmm(self, name, view, use_workspace):
        """The batch reads no backend, so each setting's batch must match
        the masked oracle rather than the numpy setting's batch."""
        views = [view] * 3
        want = spmm_oracle(views, CFG)
        for backend in ("numpy",) + self.OTHERS:
            ws = Workspace() if use_workspace else None
            r = pagerank_windows_spmm(
                views, self._cfg(backend), workspace=ws
            )
            assert_batch_matches(r, want)

    def test_composes_with_edge_path(self, name, view, use_workspace):
        """The partitioned plan composes with the one edge path, the
        packed active edges: it reproduces the masked pass over every
        stored event, weighted or not."""
        for weighted, kernel in (
            (False, pagerank_window), (True, pagerank_window_weighted),
        ):
            r = self._solve(kernel, view, "numba", use_workspace)
            want = dense_mask_pagerank(view, CFG, weighted=weighted)
            assert np.array_equal(r.values, want.values), weighted
            assert r.iterations == want.iterations


def test_backends_share_one_workspace():
    """Different backends keyed into the same workspace must not corrupt
    one another's pooled plans."""
    view = make_view(seed=47)
    ws = Workspace()
    base = pagerank_window(view, replace(CFG, backend="numpy"), workspace=ws)
    for backend in ("numba", "numpy"):
        cfg = replace(CFG, backend=backend, cache_budget=TINY_BUDGET)
        r = pagerank_window(view, cfg, workspace=ws)
        assert np.array_equal(r.values, base.values), backend


# ---------------------------------------------------------------------------
# adaptive selection
# ---------------------------------------------------------------------------
class TestBackendSelection:
    def test_rank_vector_fits_cache_stays_flat(self):
        # 1k vertices = 8 KB of rank: partitioning buys nothing
        assert choose_backend(1_000_000, 1_000, 50, DEFAULT_CACHE_BUDGET) \
            == "numpy"

    def test_empty_structure_stays_flat(self):
        assert choose_backend(0, 1_000_000, 50, DEFAULT_CACHE_BUDGET) \
            == "numpy"

    def test_large_dense_graph_partitions(self):
        assert choose_backend(
            20_000_000, 1_000_000, 50, DEFAULT_CACHE_BUDGET
        ) == "numba"

    def test_sparse_large_graph_stays_flat(self):
        # huge rank vector but almost no edges: per-partition overhead
        # dominates
        assert choose_backend(
            50_000, 1_000_000, 50, DEFAULT_CACHE_BUDGET
        ) == "numpy"

    def test_crossover_moves_with_bin_cost(self):
        args = (20_000_000, 1_000_000, 2, DEFAULT_CACHE_BUDGET)
        assert CostModel(c_bin=0.0).choose_backend(*args) == "numba"
        assert CostModel(c_bin=1.0).choose_backend(*args) == "numpy"

    def test_unfused_never_partitions(self, monkeypatch):
        # without the JIT there is no fused reduce to amortize the
        # binning, so auto stays flat — even on the most partition-friendly
        # shape, and without consulting the cost model
        monkeypatch.setattr(
            registry_mod, "numba_available", lambda: False
        )

        def no_model(*args, **kwargs):
            raise AssertionError("cost model consulted without the JIT")

        monkeypatch.setattr(
            "repro.parallel.cost_model.choose_backend", no_model
        )
        cfg = PagerankConfig(backend="auto", max_iterations=1_000)
        assert resolve_backend(cfg, 20_000_000, 1_000_000, 1_000).name \
            == "numpy"

    def test_resolve_pinned_names_bypass_model(self):
        for name, cls in (
            ("numpy", NumpyBackend), ("numba", NumbaBackend),
        ):
            cfg = PagerankConfig(backend=name)
            assert isinstance(resolve_backend(cfg, 10, 10), cls)

    def test_resolve_auto_uses_cost_model(self):
        cfg = PagerankConfig(backend="auto")
        small = resolve_backend(cfg, 1_000_000, 1_000)
        assert small.name == "numpy"

    def test_resolve_auto_tracks_jit_availability(self, monkeypatch):
        # the partition-friendly shape: numba *iff* the fused reduce
        # exists
        cfg = PagerankConfig(backend="auto")
        monkeypatch.setattr(
            registry_mod, "numba_available", lambda: True
        )
        assert resolve_backend(cfg, 20_000_000, 1_000_000, 50).name \
            == "numba"
        monkeypatch.setattr(
            registry_mod, "numba_available", lambda: False
        )
        assert resolve_backend(cfg, 20_000_000, 1_000_000, 50).name \
            == "numpy"

    def test_default_expected_iterations_positive(self):
        assert DEFAULT_EXPECTED_ITERATIONS > 0

    def test_positive_hint_capped_by_budget(self):
        cfg = PagerankConfig(max_iterations=5)
        assert registry_mod.cost_model_estimate(cfg, 3)[1] == 3
        assert registry_mod.cost_model_estimate(cfg, 400)[1] == 5

    def test_nonpositive_hint_falls_back_to_default_audibly(
        self, monkeypatch, caplog
    ):
        import logging

        monkeypatch.setattr(registry_mod, "_NONPOSITIVE_HINT_NOTED", False)
        cfg = PagerankConfig(max_iterations=500)
        with caplog.at_level(
            logging.DEBUG, logger="repro.pagerank.backends.registry"
        ):
            # hint=0 (a previous empty window) behaves exactly like "no
            # hint": the conservative default, not "zero iterations"
            _, expected = registry_mod.cost_model_estimate(cfg, 0)
            assert expected == DEFAULT_EXPECTED_ITERATIONS
            assert registry_mod.cost_model_estimate(cfg, None)[1] \
                == expected
            notes = [
                r for r in caplog.records
                if "iteration_hint=0" in r.getMessage()
            ]
            assert len(notes) == 1
            assert "DEFAULT_EXPECTED_ITERATIONS" in notes[0].getMessage()
            # the note is a one-shot latch, not per-call noise
            registry_mod.cost_model_estimate(cfg, 0)
            assert len(
                [
                    r for r in caplog.records
                    if "iteration_hint" in r.getMessage()
                ]
            ) == 1

    def test_resolve_auto_honours_cache_budget(self, monkeypatch):
        # same structure, huge per-partition budget: no win left even
        # with the JIT present
        monkeypatch.setattr(
            registry_mod, "numba_available", lambda: True
        )
        cfg = PagerankConfig(backend="auto", cache_budget=1 << 40)
        assert resolve_backend(cfg, 20_000_000, 1_000_000, 50).name \
            == "numpy"


# ---------------------------------------------------------------------------
# numba degradation
# ---------------------------------------------------------------------------
class _CountingFinder:
    """A ``sys.meta_path`` finder that only counts ``numba`` lookups."""

    def __init__(self) -> None:
        self.lookups = 0

    def find_spec(self, fullname, path=None, target=None):
        if fullname == "numba":
            self.lookups += 1
        return None


class TestNumbaDegradation:
    def test_availability_reports_false(self, no_numba):
        assert numba_available() is False
        assert backend_availability()["numba"][0] is False

    def test_failed_import_is_attempted_once(self, monkeypatch):
        # backend="auto" resolves once per window; a missing numba must
        # not cost a sys.path scan per window
        finder = _CountingFinder()
        monkeypatch.setattr(sys, "meta_path", [finder, *sys.meta_path])
        numba_available.cache_clear()
        try:
            cfg = PagerankConfig(backend="auto")
            for _ in range(5):
                resolve_backend(cfg, 1_000, 100)
        finally:
            numba_available.cache_clear()
        assert finder.lookups <= 1

    def test_plan_falls_back_bitwise(self, no_numba):
        rng = np.random.default_rng(11)
        n, m = 20, 120
        rows = np.sort(rng.integers(0, n, m)).astype(np.int64)
        col = rng.integers(0, n, m).astype(np.int64)
        w = rng.random(n)
        jit = NumbaBackend(TINY_BUDGET).make_plan(col, rows, n)
        ref = NumpyBackend().make_plan(col, rows, n)
        assert np.array_equal(jit.propagate(w), ref.propagate(w))

    def test_numba_without_jit_is_the_flat_plan(self, monkeypatch):
        monkeypatch.setattr(numba_mod, "numba_available", lambda: False)
        monkeypatch.setattr(
            registry_mod, "numba_available", lambda: False
        )
        rows = np.array([0, 1, 1, 3], dtype=np.int64)
        plan = create_backend("numba", TINY_BUDGET).make_plan(
            np.zeros(4, dtype=np.int64), rows, 4
        )
        assert type(plan) is NumpyPlan
        cfg = PagerankConfig(backend="auto")
        assert resolve_backend(cfg, 20_000_000, 1_000_000, 50).name \
            == "numpy"

    def test_kernel_with_numba_backend_still_exact(self, no_numba):
        view = make_view(seed=53)
        base = pagerank_window(view, replace(CFG, backend="numpy"))
        r = pagerank_window(
            view, replace(CFG, backend="numba", cache_budget=TINY_BUDGET)
        )
        assert np.array_equal(r.values, base.values)


# ---------------------------------------------------------------------------
# work attribution
# ---------------------------------------------------------------------------
class TestWorkStats:
    def test_kernels_record_phase_seconds(self):
        view = make_view(seed=59)
        for backend in ("numpy", "numba"):
            cfg = replace(CFG, backend=backend, cache_budget=TINY_BUDGET)
            r = pagerank_window(view, cfg)
            assert r.work.binning_seconds >= 0.0
            assert r.work.propagate_seconds > 0.0

    def test_merge_accumulates(self):
        from repro.pagerank import WorkStats

        a = WorkStats(binning_seconds=0.25, propagate_seconds=1.0)
        b = WorkStats(binning_seconds=0.5, propagate_seconds=0.5)
        a.merge(b)
        assert a.binning_seconds == 0.75
        assert a.propagate_seconds == 1.5


# ---------------------------------------------------------------------------
# driver / CLI threading
# ---------------------------------------------------------------------------
class TestDriverThreading:
    def _run(self, backend, kernel="spmv"):
        events = random_events(seed=61, n_events=300)
        spec = WindowSpec.covering(events, delta=3_000, sw=1_500)
        cfg = replace(CFG, backend=backend, cache_budget=TINY_BUDGET)
        driver = PostmortemDriver(
            events, spec, cfg,
            PostmortemOptions(n_multiwindows=2, kernel=kernel),
        )
        return driver.run()

    @pytest.mark.parametrize("kernel", ["spmv", "spmm"])
    def test_driver_backends_agree(self, kernel):
        runs = {
            b: self._run(b, kernel)
            for b in ("numpy", "numba", "auto")
        }
        base = runs["numpy"]
        for b in ("numba", "auto"):
            for w_base, w in zip(base.windows, runs[b].windows):
                assert np.array_equal(w_base.values, w.values), b
                assert w_base.iterations == w.iterations

    def test_metadata_records_backend(self):
        assert self._run("numba").metadata["backend"] == "numba"
        assert self._run("auto").metadata["backend"] == "auto"


def test_cli_run_accepts_backend(tmp_path):
    import io

    from repro.cli import main
    from repro.events import save_events_npz

    events = random_events(seed=67, n_events=200)
    path = tmp_path / "ev.npz"
    save_events_npz(events, str(path))
    outs = {}
    for backend in ("numpy", "numba"):
        buf = io.StringIO()
        rc = main(
            [
                "run", str(path), "--delta-days", "0.03", "--sw", "1000",
                "--kernel", "spmv", "--backend", backend,
                "--cache-budget", str(TINY_BUDGET),
            ],
            out=buf,
        )
        assert rc == 0
        outs[backend] = buf.getvalue()
    table = {
        k: "\n".join(
            line for line in v.splitlines() if not line.startswith("total")
        )
        for k, v in outs.items()
    }
    assert table["numpy"] == table["numba"]


def test_cli_backends_subcommand():
    import io

    from repro.cli import main

    buf = io.StringIO()
    assert main(["backends"], out=buf) == 0
    text = buf.getvalue()
    for needle in ("numpy", "numba", "c_edge_local", "c_bin",
                   "cache budget"):
        assert needle in text, needle
