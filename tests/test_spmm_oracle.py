"""SpMM region batches on the lockstep loop against the masked oracle.

A batch of the region schedule is one lockstep step over windows of one
multi-window graph.  Every case here requires each column to reproduce
the masked single-window oracle of ``tests/dense_mask_reference.py`` bit
for bit — values, iterations, residual and ``converged`` — across
staggered convergence (the live set shrinking several times), empty
columns, k = 1, Katz's unit weights and normalized residual, and a
caller-supplied :class:`Workspace`.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.pagerank import PagerankConfig, Workspace, pagerank_windows_lockstep
from repro.pagerank import spmv
from repro.pagerank.weighted import pagerank_windows_weighted
from repro.programs.katz import KatzConfig, KatzProgram
from tests.conftest import random_events
from tests.dense_mask_reference import dense_mask_katz, dense_mask_pagerank

CFG = PagerankConfig(tolerance=1e-12, max_iterations=300)


def assert_bitwise(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.iterations == want.iterations
    assert np.float64(got.residual).tobytes() == \
        np.float64(want.residual).tobytes()
    assert got.converged == want.converged


def solve_both(views, config=CFG, x0=None, workspace=None):
    """The batch on the lockstep loop, and each window by the oracle."""
    got = pagerank_windows_lockstep(views, config, x0, workspace).columns
    seeds = [None] * len(views) if x0 is None else x0
    want = [
        dense_mask_pagerank(v, config, x0=x) for v, x in zip(views, seeds)
    ]
    return got, want


def assert_all_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_bitwise(g, w)


@st.composite
def batches(draw):
    """Windows of one random adjacency: some overlapping, some empty (a
    window past the last event), so columns converge at different
    iterations."""
    n = draw(st.integers(min_value=2, max_value=18))
    m = draw(st.integers(min_value=1, max_value=120))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    t = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m))
    adj = TemporalAdjacency.from_events(
        TemporalEventSet(src, dst, t, n_vertices=n)
    )
    spans = draw(st.lists(
        st.tuples(st.integers(0, 130), st.integers(0, 60)),
        min_size=1, max_size=10,
    ))
    return [
        adj.window_view(Window(i, a, a + d))
        for i, (a, d) in enumerate(spans)
    ]


@given(
    batches(),
    st.sampled_from(["uniform", "drop"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([8, 20, 60, spmv.PASS_EDGES]),
)
@settings(max_examples=120, deadline=None)
def test_pagerank_batch_matches_masked_oracle(views, dangling, use_ws,
                                              warm, pass_edges):
    config = replace(CFG, dangling=dangling)
    x0 = None
    if warm:
        rng = np.random.default_rng(len(views))
        n = views[0].adjacency.n_vertices
        x0 = [rng.random(n) for _ in views]
    with mock.patch.object(spmv, "PASS_EDGES", pass_edges):
        got, want = solve_both(
            views, config, x0=x0, workspace=Workspace() if use_ws else None
        )
    assert_all_bitwise(got, want)


@given(batches(), st.floats(0.01, 0.3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_katz_flags_match_masked_oracle(views, attenuation, use_ws):
    """Katz's surface: unit source weights, per-column clamped scale,
    normalized residual and unit-mass output."""
    config = KatzConfig(attenuation=attenuation, tolerance=1e-12)
    program = KatzProgram(config=config)
    got = program.solve_batch(
        views, [None] * len(views),
        workspace=Workspace() if use_ws else None,
    ).columns
    assert_all_bitwise(got, [dense_mask_katz(v, config) for v in views])


@pytest.fixture(scope="module")
def staggered():
    """Nested windows over one stream: each converges at its own
    iteration, so the live set shrinks once per column."""
    events = random_events(n_vertices=50, n_events=1_200, seed=5)
    adj = TemporalAdjacency.from_events(events)
    spec = WindowSpec.covering(events, delta=1_500, sw=400)
    return [adj.window_view(w) for w in spec]


class TestCases:
    def test_staggered_convergence_shrinks_live_set(self, staggered):
        got, want = solve_both(staggered)
        assert_all_bitwise(got, want)
        # the live set shrinks at several distinct iterations
        assert len(staggered) > 8
        assert len({c.iterations for c in got}) >= 4

    def test_empty_columns(self, staggered):
        adj = staggered[0].adjacency
        empty = [adj.window_view(Window(90 + i, 10**9, 10**9 + 1))
                 for i in range(2)]
        views = [empty[0]] + staggered[:5] + [empty[1]]
        got, want = solve_both(views)
        assert_all_bitwise(got, want)
        for c in (got[0], got[-1]):
            assert c.converged and c.iterations == 0
            assert not c.values.any()

    def test_all_columns_empty(self, staggered):
        adj = staggered[0].adjacency
        views = [adj.window_view(Window(i, 10**9, 10**9 + 1))
                 for i in range(3)]
        got, want = solve_both(views)
        assert_all_bitwise(got, want)
        assert sum(c.work.iterations for c in got) == 0

    @pytest.mark.parametrize("j", [0, 3, 7])
    def test_single_column(self, staggered, j):
        got, want = solve_both([staggered[j]])
        assert_all_bitwise(got, want)

    @pytest.mark.parametrize("pass_edges", [1, 60, 250, 1_000])
    def test_passes_split_and_replan(self, staggered, monkeypatch,
                                     pass_edges):
        """Columns propagate in passes of whole columns; as columns
        finish, the passes are cut again over the survivors.  Neither
        moves a bit."""
        monkeypatch.setattr(spmv, "PASS_EDGES", pass_edges)
        edges = [v.n_active_edges for v in staggered]
        assert max(edges) < sum(edges) // 4  # several passes
        got, want = solve_both(staggered)
        assert_all_bitwise(got, want)
        got = pagerank_windows_weighted(staggered, CFG).columns
        assert_all_bitwise(got, [
            dense_mask_pagerank(v, CFG, weighted=True) for v in staggered
        ])
        katz = KatzConfig(tolerance=1e-12)
        got = KatzProgram(config=katz).solve_batch(staggered).columns
        assert_all_bitwise(got, [dense_mask_katz(v, katz) for v in staggered])

    def test_iteration_cap(self, staggered):
        config = replace(CFG, max_iterations=7)
        got, want = solve_both(staggered, config)
        assert_all_bitwise(got, want)
        assert not any(c.converged for c in got)

    def test_katz_program_batch(self, staggered):
        config = KatzConfig(tolerance=1e-12)
        program = KatzProgram(config=config)
        views = staggered[:6]
        x0 = [program.init_window(v) for v in views]
        got = program.solve_batch(views, x0).columns
        want = [dense_mask_katz(v, config, x0=x) for v, x in zip(views, x0)]
        assert_all_bitwise(got, want)

    def test_caller_workspace_across_widths(self, staggered):
        """One workspace serves batches of different widths and a chain
        of same-width batches; every solve matches the oracle."""
        ws = Workspace()
        for views in (staggered[:8], staggered[8:16], staggered[:3],
                      staggered[3:11]):
            got, want = solve_both(views, workspace=ws)
            assert_all_bitwise(got, want)


def test_workspace_holds_no_structure_sized_buffer():
    """A k=16 batch pools only vertex-sized buffers: nothing of the
    masked pass's (nnz, k) float64 workspace survives."""
    events = random_events(n_vertices=30, n_events=3_000, seed=11)
    adj = TemporalAdjacency.from_events(events)
    spec = WindowSpec.covering(events, delta=4_000, sw=300)
    views = [adj.window_view(spec.window(i)) for i in range(16)]
    k, nnz = len(views), adj.nnz
    ws = Workspace()
    pagerank_windows_lockstep(views, CFG, workspace=ws)
    assert 0 < ws.nbytes < nnz * k * 8
