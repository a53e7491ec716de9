"""Active-edge compaction: the packed structure, and bitwise parity of
every single-window solve (SpMV, weighted, Katz) and of an SpMM batch on
the lockstep loop with the masked pass over all stored events that the
tests keep as the oracle (``tests/dense_mask_reference.py``)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.events import TemporalEventSet, Window, WindowSpec
from repro.graph import LazyMultiWindowPartition, TemporalAdjacency
from repro.models import PostmortemDriver, PostmortemOptions
from repro.pagerank import (
    PagerankConfig,
    Workspace,
    compact_pull,
    pagerank_window,
    pagerank_window_weighted,
    pagerank_windows_lockstep,
)
from repro.programs.katz import KatzConfig, KatzProgram
from tests.conftest import random_events
from tests.dense_mask_reference import (
    dense_mask_katz,
    dense_mask_pagerank,
    in_dedup,
    reference_chain,
)

CFG = PagerankConfig(tolerance=1e-12, max_iterations=300)
KATZ = KatzConfig(tolerance=1e-12, max_iterations=300)


def spmm_oracle(views, config):
    """A PageRank batch's columns, each solved by the masked oracle."""
    return [dense_mask_pagerank(v, config) for v in views]


def assert_batch_matches(got, want):
    """A lockstep batch's columns against per-window solves."""
    assert len(got.columns) == len(want)
    for column, single in zip(got.columns, want):
        assert_solve_matches(column, single)


def assert_solve_matches(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert np.float64(got.residual).tobytes() == \
        np.float64(want.residual).tobytes()


def make_view(seed=0, n_vertices=40, n_events=400, delta=3_000, sw=1_000,
              window=0):
    events = random_events(
        n_vertices=n_vertices, n_events=n_events, seed=seed
    )
    adj = TemporalAdjacency.from_events(events)
    spec = WindowSpec.covering(events, delta=delta, sw=sw)
    return adj.window_view(spec.window(window))


def _window_of_all(src, dst, n_vertices):
    """A window spanning every event of ``src -> dst`` (times 0, 1, ...)."""
    events = TemporalEventSet(
        src, dst, np.arange(len(src)), n_vertices=n_vertices
    )
    adj = TemporalAdjacency.from_events(events)
    return adj.window_view(Window(0, 0, len(src)))


# ---------------------------------------------------------------------------
# packed-structure correctness
# ---------------------------------------------------------------------------
class TestCompactStructure:
    def test_matches_boolean_compress(self):
        view = make_view(seed=7)
        in_csr = view.adjacency.in_csr
        packed = compact_pull(view)
        assert packed.n_edges == view.n_active_edges
        # the pack is window-local: active_idx maps it back
        assert np.array_equal(
            view.active_idx[packed.col], in_csr.col[in_dedup(view)]
        )
        # per-row edge counts reproduce the active in-degrees
        n = view.in_degrees.size
        assert np.array_equal(
            np.bincount(view.active_idx[packed.rows], minlength=n),
            view.in_degrees,
        )

    def test_empty_window(self):
        # a time range below every event: nothing is active
        adj = TemporalAdjacency.from_events(random_events(seed=5))
        view = adj.window_view(Window(0, -10, -5))
        packed = compact_pull(view)
        assert packed.n_edges == 0
        assert packed.rows.size == 0

    def test_parity_regimes_have_their_shapes(self):
        """Guards the parity inputs below: each regime is the window it
        is named after."""
        regimes = dict(_views_regimes())
        assert regimes["empty"].n_active_vertices == 0
        no_dup = regimes["no_dup"]
        assert no_dup.n_active_edges == no_dup.adjacency.nnz
        # a uniform start on a directed cycle is the fixed point
        fixed = regimes["fixed_point"]
        assert pagerank_window(fixed, CFG).iterations <= 1
        assert KatzProgram(config=KATZ).solve_window(fixed).iterations <= 1


# ---------------------------------------------------------------------------
# bitwise parity with the masked oracles
# ---------------------------------------------------------------------------
def _views_regimes():
    """(name, view) pairs: a sparse window, a fully active one with
    duplicate events, a fully active one without (every stored event is
    an active edge), a window whose start is its fixed point, an empty
    window and a dangling-heavy one."""
    regimes = []
    # sparse: one window of a long event stream
    regimes.append(("sparse", make_view(seed=23)))
    # fully active: window spans all of time
    events = random_events(seed=29)
    adj = TemporalAdjacency.from_events(events)
    regimes.append(("full", adj.window_view(Window(0, 0, 10_000))))
    # fully active, every (src, dst) pair once: |E_w| == nnz
    rng = np.random.default_rng(31)
    pairs = [(s, d) for s in range(20) for d in range(20) if s != d]
    picked = rng.permutation(len(pairs))[:90]
    src, dst = np.array([pairs[i] for i in picked]).T
    regimes.append(("no_dup", _window_of_all(src, dst, 20)))
    # a directed cycle: the uniform start is already the fixed point
    ring = np.arange(10)
    regimes.append(
        ("fixed_point", _window_of_all(ring, (ring + 1) % 10, 10))
    )
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
    def _assert_single_window_work(self, r, view):
        """The packed pass reads active edges only and has no setup."""
        assert r.work.edge_traversals == r.iterations * view.n_active_edges
        assert r.work.active_edge_traversals == r.work.edge_traversals
        assert r.work.binning_seconds == 0.0

    def test_spmv(self, name, view, use_workspace):
        ws = Workspace() if use_workspace else None
        got = pagerank_window(view, CFG, workspace=ws)
        assert_solve_matches(got, dense_mask_pagerank(view, CFG))
        self._assert_single_window_work(got, view)

    def test_weighted(self, name, view, use_workspace):
        ws = Workspace() if use_workspace else None
        got = pagerank_window_weighted(view, CFG, workspace=ws)
        assert_solve_matches(
            got, dense_mask_pagerank(view, CFG, weighted=True)
        )
        self._assert_single_window_work(got, view)

    def test_katz(self, name, view, use_workspace):
        ws = Workspace() if use_workspace else None
        got = KatzProgram(config=KATZ).solve_window(view, workspace=ws)
        assert_solve_matches(got, dense_mask_katz(view, KATZ))

    def test_spmm(self, name, view, use_workspace):
        views = [view] * 3
        ws = Workspace() if use_workspace else None
        r = pagerank_windows_lockstep(views, CFG, workspace=ws)
        assert_batch_matches(r, spmm_oracle(views, CFG))


def test_spmm_distinct_windows_parity():
    events = random_events(seed=31)
    adj = TemporalAdjacency.from_events(events)
    spec = WindowSpec.covering(events, delta=3_000, sw=1_000)
    views = [adj.window_view(spec.window(i)) for i in range(4)]
    r = pagerank_windows_lockstep(views, CFG)
    assert_batch_matches(r, spmm_oracle(views, CFG))


# ---------------------------------------------------------------------------
# driver level
# ---------------------------------------------------------------------------
class TestDriverThreading:
    """A postmortem run threads the packed edge path through every
    window: it reproduces the masked oracles' warm-start chain bitwise
    while reading active edges only."""

    def _inputs(self):
        events = random_events(seed=37, n_events=300)
        spec = WindowSpec.covering(events, delta=3_000, sw=1_500)
        return events, spec

    def _run(self, kernel="spmv"):
        events, spec = self._inputs()
        return PostmortemDriver(
            events, spec, CFG,
            PostmortemOptions(
                n_multiwindows=2, kernel=kernel, vector_length=4
            ),
        ).run()

    @pytest.mark.parametrize("kernel", ["spmv", "spmm"])
    def test_driver_paths_agree(self, kernel):
        events, spec = self._inputs()
        run = self._run(kernel)
        want = reference_chain(
            events, spec, CFG, 2, kernel=kernel, vector_length=4
        )
        np.testing.assert_array_equal(run.values_matrix(), want.values)
        assert [w.iterations for w in run.windows] == \
            want.iterations.tolist()

    def test_compacted_does_less_edge_work(self):
        """Every traversal is of an active edge, and there are fewer of
        them than the masked pass's ``iterations x nnz`` stored events."""
        events, spec = self._inputs()
        run = self._run()
        part = LazyMultiWindowPartition(events, spec, 2)
        masked = sum(
            w.iterations * part.window_view(w.window_index).adjacency.nnz
            for w in run.windows
        )
        assert run.work.edge_traversals == run.work.active_edge_traversals
        assert 0 < run.work.edge_traversals < masked


class TestEdgePathSelection:
    def test_config_rejects_bad_edge_path(self):
        """There is no edge path left to select: the config has no such
        field, so every value is rejected."""
        assert "edge_path" not in {f.name for f in fields(PagerankConfig)}
        for edge_path in ("masked", "compacted", "auto", "fastest"):
            with pytest.raises(TypeError):
                PagerankConfig(edge_path=edge_path)


def test_edge_path_knob_removed(tmp_path, capsys):
    """Compaction is the only traversal: ``run`` has no knob to pin."""
    from repro.cli import main
    from repro.events import save_events_tsv

    path = tmp_path / "ev.tsv"
    save_events_tsv(random_events(seed=43, n_events=200), str(path))
    with pytest.raises(SystemExit) as exc:
        main([
            "run", str(path), "--delta-days", "0.03", "--sw", "1000",
            "--edge-path", "masked",
        ])
    assert exc.value.code == 2
    assert "--edge-path" in capsys.readouterr().err
