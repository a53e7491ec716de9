"""Active-edge compaction: structure correctness, bitwise parity of the
masked and compacted kernel paths, the adaptive cost-model decision, and
the driver/CLI threading of ``edge_path``."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.graph import LazyMultiWindowPartition, TemporalAdjacency
from repro.models import PostmortemDriver, PostmortemOptions
from repro.pagerank import (
    PagerankConfig,
    Workspace,
    compact_pull,
    pagerank_window,
    pagerank_window_weighted,
    pagerank_windows_spmm,
    resolve_edge_path,
)
from repro.parallel.cost_model import (
    DEFAULT_EXPECTED_ITERATIONS,
    CostModel,
    choose_edge_path,
)
from tests.conftest import random_events
from tests.spmm_reference import reference_power_iterate_batch

CFG = PagerankConfig(tolerance=1e-12, max_iterations=300)


def spmm_oracle(views, config):
    """A PageRank batch solved by the full-width masked SpMM oracle."""
    return reference_power_iterate_batch(
        views, config, None,
        np.full(len(views), config.damping, dtype=np.float64), config.alpha,
    )


def assert_batch_matches(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(
        got.iterations_per_window, want.iterations_per_window
    )
    assert np.array_equal(got.residuals, want.residuals)
    assert np.array_equal(got.converged, want.converged)


def make_view(seed=0, n_vertices=40, n_events=400, delta=3_000, sw=1_000,
              window=0):
    events = random_events(
        n_vertices=n_vertices, n_events=n_events, seed=seed
    )
    adj = TemporalAdjacency.from_events(events)
    spec = WindowSpec.covering(events, delta=delta, sw=sw)
    return adj.window_view(spec.window(window))


# ---------------------------------------------------------------------------
# packed-structure correctness
# ---------------------------------------------------------------------------
class TestCompactStructure:
    def test_matches_boolean_compress(self):
        view = make_view(seed=7)
        in_csr = view.adjacency.in_csr
        packed = compact_pull(view)
        assert packed.n_edges == view.n_active_edges
        assert np.array_equal(packed.col, in_csr.col[view.in_dedup])
        # per-row ranges reproduce the active in-degrees
        lengths = np.diff(packed.indptr)
        assert np.array_equal(lengths, view.in_degrees)

    def test_workspace_and_owned_paths_agree(self):
        view_owned = make_view(seed=11)
        ws = Workspace()
        events = random_events(seed=11)
        adj = TemporalAdjacency.from_events(events)
        spec = WindowSpec.covering(events, delta=3_000, sw=1_000)
        view_ws = adj.window_view(spec.window(0), workspace=ws)
        a = view_owned.compact_pull()
        b = view_ws.compact_pull()
        assert np.array_equal(a.col, b.col)
        assert np.array_equal(a.indptr, b.indptr)

    def test_owned_result_is_cached(self):
        view = make_view(seed=3)
        assert view.compact_pull() is view.compact_pull()

    def test_empty_window(self):
        view = make_view(seed=5, window=0, delta=1, sw=1)
        # shrink the window until nothing is active (t range below min t)
        events = random_events(seed=5)
        adj = TemporalAdjacency.from_events(events)
        from repro.events import Window

        view = adj.window_view(Window(0, -10, -5))
        packed = compact_pull(view)
        assert packed.n_edges == 0
        assert packed.indptr[-1] == 0


# ---------------------------------------------------------------------------
# bitwise parity: masked vs compacted vs auto, all three kernels
# ---------------------------------------------------------------------------
def _views_regimes():
    """(name, view) pairs covering empty, sparse, and fully-active
    windows, plus a dangling-heavy one."""
    from repro.events import TemporalEventSet, Window

    regimes = []
    # sparse: one window of a long event stream
    regimes.append(("sparse", make_view(seed=23)))
    # fully active: window spans all of time
    events = random_events(seed=29)
    adj = TemporalAdjacency.from_events(events)
    regimes.append(("full", adj.window_view(Window(0, 0, 10_000))))
    # empty
    regimes.append(("empty", adj.window_view(Window(0, -10, -5))))
    # dangling-heavy: a star where leaves never point back
    src = [0] * 12 + [1, 2, 3]
    dst = list(range(1, 13)) + [13, 14, 15]
    t = list(range(15))
    ev = TemporalEventSet(src, dst, t, n_vertices=16)
    adj2 = TemporalAdjacency.from_events(ev)
    regimes.append(("dangling", adj2.window_view(Window(0, 0, 20))))
    return regimes


@pytest.mark.parametrize("use_workspace", [False, True], ids=["owned", "ws"])
@pytest.mark.parametrize(
    "name,view", _views_regimes(), ids=[n for n, _ in _views_regimes()]
)
class TestBitwiseParity:
    def _solve(self, kernel, view, path, use_workspace, **kw):
        ws = Workspace() if use_workspace else None
        return kernel(
            view, replace(CFG, edge_path=path), workspace=ws, **kw
        )

    def test_spmv(self, name, view, use_workspace):
        base = self._solve(pagerank_window, view, "masked", use_workspace)
        for path in ("compacted", "auto"):
            r = self._solve(pagerank_window, view, path, use_workspace)
            assert np.array_equal(r.values, base.values)
            assert r.iterations == base.iterations

    def test_weighted(self, name, view, use_workspace):
        base = self._solve(
            pagerank_window_weighted, view, "masked", use_workspace
        )
        for path in ("compacted", "auto"):
            r = self._solve(
                pagerank_window_weighted, view, path, use_workspace
            )
            assert np.array_equal(r.values, base.values)
            assert r.iterations == base.iterations

    def test_spmm(self, name, view, use_workspace):
        """The batch reads no edge path, so each setting's batch must
        match the masked oracle rather than one another."""
        views = [view] * 3
        want = spmm_oracle(views, CFG)
        for path in ("masked", "compacted", "auto"):
            ws = Workspace() if use_workspace else None
            r = pagerank_windows_spmm(
                views, replace(CFG, edge_path=path), workspace=ws
            )
            assert_batch_matches(r, want)


def test_spmm_distinct_windows_parity():
    events = random_events(seed=31)
    adj = TemporalAdjacency.from_events(events)
    spec = WindowSpec.covering(events, delta=3_000, sw=1_000)
    views = [adj.window_view(spec.window(i)) for i in range(4)]
    want = spmm_oracle(views, CFG)
    for path in ("masked", "compacted"):
        r = pagerank_windows_spmm(views, replace(CFG, edge_path=path))
        assert_batch_matches(r, want)


# ---------------------------------------------------------------------------
# adaptive selection
# ---------------------------------------------------------------------------
class TestEdgePathSelection:
    def test_sparse_long_run_compacts(self):
        # 5% activity over many iterations: packing obviously amortizes
        assert choose_edge_path(10_000, 500, 100, 50) == "compacted"

    def test_fully_active_stays_masked(self):
        assert choose_edge_path(10_000, 10_000, 100, 50) == "masked"

    def test_single_iteration_stays_masked(self):
        # one iteration cannot repay a pack priced at ~2 edge-traversals
        assert choose_edge_path(10_000, 9_000, 100, 1) == "masked"

    def test_empty_structure_masked(self):
        assert choose_edge_path(0, 0, 100, 50) == "masked"

    def test_crossover_moves_with_pack_cost(self):
        cheap = CostModel(c_pack=1e-12)
        dear = CostModel(c_pack=1.0)
        args = (10_000, 9_999, 100, 2)
        assert cheap.choose_edge_path(*args) == "compacted"
        assert dear.choose_edge_path(*args) == "masked"

    def test_resolve_pinned_paths_bypass_model(self):
        for path in ("masked", "compacted"):
            cfg = PagerankConfig(edge_path=path)
            assert resolve_edge_path(cfg, 100, 1, 10) == path

    def test_resolve_auto_uses_hint(self):
        cfg = PagerankConfig(edge_path="auto", max_iterations=500)
        # half active: hint=1 cannot repay the pack; large hint -> compacts
        assert resolve_edge_path(cfg, 10_000, 5_000, 100, 1) == "masked"
        assert (
            resolve_edge_path(cfg, 10_000, 5_000, 100, 100) == "compacted"
        )

    def test_resolve_auto_caps_hint_by_budget(self):
        cfg = PagerankConfig(edge_path="auto", max_iterations=1)
        assert resolve_edge_path(cfg, 10_000, 5_000, 100, 400) == "masked"

    def test_pack_is_priced_per_packed_edge(self):
        # 5% active: the pack gathers 500 edges, not 10,000 stored events,
        # so even a single iteration repays it
        assert choose_edge_path(10_000, 500, 100, 1) == "compacted"

    def test_nonpositive_hint_falls_back_to_default_audibly(
        self, monkeypatch, caplog
    ):
        import logging

        from repro.pagerank import compaction

        monkeypatch.setattr(compaction, "_NONPOSITIVE_HINT_NOTED", False)
        cfg = PagerankConfig(edge_path="auto", max_iterations=500)
        with caplog.at_level(
            logging.DEBUG, logger="repro.pagerank.compaction"
        ):
            # hint=0 (a previous empty window) behaves exactly like "no
            # hint": the conservative default, not "zero iterations"
            assert resolve_edge_path(cfg, 10_000, 500, 100, 0) \
                == resolve_edge_path(cfg, 10_000, 500, 100, None)
            notes = [
                r for r in caplog.records
                if "iteration_hint=0" in r.getMessage()
            ]
            assert len(notes) == 1
            assert "DEFAULT_EXPECTED_ITERATIONS" in notes[0].getMessage()
            # the note is a one-shot latch, not per-call noise
            resolve_edge_path(cfg, 10_000, 500, 100, 0)
            assert len(
                [
                    r for r in caplog.records
                    if "iteration_hint" in r.getMessage()
                ]
            ) == 1

    def test_nonpositive_hint_crossover_boundary(self):
        # at the 10_000/5_000 structure the default (20 expected
        # iterations) amortizes the pack but a true hint of 1 does not:
        # hint=0 must land on the default's side of the crossover
        cfg = PagerankConfig(edge_path="auto", max_iterations=500)
        assert resolve_edge_path(cfg, 10_000, 5_000, 100, 0) == "compacted"
        assert resolve_edge_path(cfg, 10_000, 5_000, 100, 1) == "masked"

    def test_default_expected_iterations_positive(self):
        assert DEFAULT_EXPECTED_ITERATIONS > 0

    def test_config_rejects_bad_edge_path(self):
        with pytest.raises(ValidationError):
            PagerankConfig(edge_path="fastest")


# ---------------------------------------------------------------------------
# driver / CLI threading
# ---------------------------------------------------------------------------
class TestDriverThreading:
    def _run(self, edge_path, kernel="spmv"):
        events = random_events(seed=37, n_events=300)
        spec = WindowSpec.covering(events, delta=3_000, sw=1_500)
        cfg = replace(CFG, edge_path=edge_path)
        driver = PostmortemDriver(
            events, spec, cfg,
            PostmortemOptions(n_multiwindows=2, kernel=kernel),
        )
        return driver.run()

    @pytest.mark.parametrize("kernel", ["spmv", "spmm"])
    def test_driver_paths_agree(self, kernel):
        runs = {
            p: self._run(p, kernel) for p in ("masked", "compacted", "auto")
        }
        base = runs["masked"]
        for p in ("compacted", "auto"):
            for w_base, w in zip(base.windows, runs[p].windows):
                assert np.array_equal(w_base.values, w.values)
                assert w_base.iterations == w.iterations

    def test_compacted_does_less_edge_work(self):
        masked = self._run("masked")
        comp = self._run("compacted")
        assert (
            comp.work.edge_traversals < masked.work.edge_traversals
        )

    def test_multiwindow_views_forward_workspace(self):
        events = random_events(seed=41)
        spec = WindowSpec.covering(events, delta=3_000, sw=1_000)
        part = LazyMultiWindowPartition(events, spec, 2)
        ws = Workspace()
        view = part.window_view(0, workspace=ws)
        packed = view.compact_pull()
        assert packed.n_edges == view.n_active_edges


def test_cli_run_accepts_edge_path(tmp_path, capsys):
    import io

    from repro.cli import main
    from repro.events import save_events_npz

    events = random_events(seed=43, n_events=200)
    path = tmp_path / "ev.npz"
    save_events_npz(events, str(path))
    outs = {}
    for edge_path in ("masked", "compacted"):
        buf = io.StringIO()
        rc = main(
            [
                "run", str(path), "--delta-days", "0.03", "--sw", "1000",
                "--kernel", "spmv", "--edge-path", edge_path,
            ],
            out=buf,
        )
        assert rc == 0
        outs[edge_path] = buf.getvalue()
    # same solve, different execution strategy: identical tables
    table = {
        k: "\n".join(
            line for line in v.splitlines() if not line.startswith("total")
        )
        for k, v in outs.items()
    }
    assert table["masked"] == table["compacted"]
