"""The active-cell SpMM pass against the full-width masked oracle.

:mod:`tests.spmm_reference` keeps the masked ``(nnz, k)`` batch loop the
active-cell kernel replaced.  Every case here requires the kernel to
reproduce it bit for bit — values, per-column iterations, residuals and
``converged`` — across staggered convergence (the live set shrinking
several times), empty columns, k = 1, Katz's unit weights and normalized
residual, and a caller-supplied :class:`Workspace`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.pagerank import PagerankConfig, Workspace
from repro.pagerank.spmm import (
    COLUMN_GROUP,
    ActiveCells,
    _power_iterate_batch,
    pagerank_windows_spmm,
)
from repro.programs.katz import (
    KatzConfig,
    KatzProgram,
    _effective_attenuation,
)
from tests.conftest import random_events
from tests.spmm_reference import (
    masked_propagate_batch,
    reference_power_iterate_batch,
)

CFG = PagerankConfig(tolerance=1e-12, max_iterations=300)


def assert_bitwise(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(
        got.iterations_per_window, want.iterations_per_window
    )
    assert np.array_equal(got.residuals, want.residuals)
    assert np.array_equal(got.converged, want.converged)
    assert got.window_indices == want.window_indices


def solve_both(views, config=CFG, x0=None, workspace=None, scale=None,
               base=None, normalized=False, unit_weights=False):
    k = len(views)
    scale = (
        np.full(k, config.damping, dtype=np.float64)
        if scale is None else scale
    )
    base = config.alpha if base is None else base
    got = _power_iterate_batch(
        views, config, x0, workspace, scale, base,
        normalized=normalized, unit_weights=unit_weights,
    )
    want = reference_power_iterate_batch(
        views, config, x0, scale, base,
        normalized=normalized, unit_weights=unit_weights,
    )
    return got, want


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
)
@settings(max_examples=120, deadline=None)
def test_pagerank_batch_matches_masked_oracle(views, dangling, use_ws,
                                              warm):
    config = replace(CFG, dangling=dangling)
    x0 = None
    if warm:
        rng = np.random.default_rng(len(views))
        x0 = rng.random((views[0].adjacency.n_vertices, len(views)))
    got, want = solve_both(
        views, config, x0=x0, workspace=Workspace() if use_ws else None
    )
    assert_bitwise(got, want)


@given(batches(), st.floats(0.01, 0.3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_katz_flags_match_masked_oracle(views, attenuation, use_ws):
    """Katz's surface: unit source weights, per-column scale, normalized
    residual and unit-mass output."""
    k = len(views)
    scale = attenuation * np.linspace(0.5, 1.0, k)
    got, want = solve_both(
        views, scale=scale, base=1.0, normalized=True, unit_weights=True,
        workspace=Workspace() if use_ws else None,
    )
    assert_bitwise(got, want)


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
        assert_bitwise(got, want)
        # the live set shrinks at several distinct iterations, across
        # more than one column group
        assert len(staggered) > 2 * COLUMN_GROUP
        assert np.unique(got.iterations_per_window).size >= 4

    def test_empty_columns(self, staggered):
        adj = staggered[0].adjacency
        empty = [adj.window_view(Window(90 + i, 10**9, 10**9 + 1))
                 for i in range(2)]
        views = [empty[0]] + staggered[:5] + [empty[1]]
        got, want = solve_both(views)
        assert_bitwise(got, want)
        assert got.converged[0] and got.converged[-1]
        assert got.iterations_per_window[0] == 0
        assert np.all(got.values[:, [0, -1]] == 0.0)

    def test_all_columns_empty(self, staggered):
        adj = staggered[0].adjacency
        views = [adj.window_view(Window(i, 10**9, 10**9 + 1))
                 for i in range(3)]
        got, want = solve_both(views)
        assert_bitwise(got, want)
        assert got.work.iterations == 0

    @pytest.mark.parametrize("j", [0, 3, 7])
    def test_single_column(self, staggered, j):
        got, want = solve_both([staggered[j]])
        assert_bitwise(got, want)

    def test_iteration_cap(self, staggered):
        config = replace(CFG, max_iterations=7)
        got, want = solve_both(staggered, config)
        assert_bitwise(got, want)
        assert not got.converged.any()

    def test_katz_program_batch(self, staggered):
        program = KatzProgram(config=KatzConfig(tolerance=1e-12))
        views = staggered[:6]
        x0 = np.stack([program.init_window(v) for v in views], axis=1)
        got = program.solve_batch(views, x0)
        scale = np.array(
            [_effective_attenuation(program.config, v.in_degrees,
                                    v.out_degrees) for v in views],
            dtype=np.float64,
        )
        want = reference_power_iterate_batch(
            views, program._solver(), x0, scale, program.config.base,
            normalized=True, unit_weights=True,
        )
        assert_bitwise(got, want)

    def test_caller_workspace_across_widths(self, staggered):
        """One workspace serves batches of different widths and a chain
        of same-width batches; every solve matches the oracle."""
        ws = Workspace()
        for views in (staggered[:8], staggered[8:16], staggered[:3],
                      staggered[3:11]):
            got, want = solve_both(views, workspace=ws)
            assert_bitwise(got, want)


class TestActiveCells:
    """The propagation step alone, against the masked gather/reduce."""

    def _check(self, views, cells, live, rng):
        adj = views[0].adjacency
        n = adj.n_vertices
        in_csr = adj.in_csr
        dedup = np.stack([views[j].in_dedup for j in live], axis=1)
        shares = rng.random((live.size, n))
        out = np.empty((n, live.size))
        want = masked_propagate_batch(
            np.ascontiguousarray(shares.T), in_csr.col, in_csr.row_ids(),
            dedup, n,
        )
        assert np.array_equal(cells.propagate(shares, out), want)
        assert cells.n_cells == sum(views[j].n_active_edges for j in live)

    def test_propagate_matches_flat_reference(self, staggered):
        rng = np.random.default_rng(7)
        views = staggered[:10]
        cells = ActiveCells(views[0].adjacency, views)
        live = np.arange(len(views))
        self._check(views, cells, live, rng)
        # drop columns across and within groups, then down to one
        for survive in (
            np.array([1, 0, 1, 1, 0, 1, 1, 1, 1, 0], dtype=bool),
            np.array([0, 1, 1, 0, 1, 1, 1], dtype=bool),
            np.array([0, 0, 0, 1, 0], dtype=bool),
        ):
            cells.keep(survive)
            live = live[survive]
            self._check(views, cells, live, rng)


def test_workspace_holds_no_structure_sized_buffer():
    """A k=16 batch pools only vertex-sized buffers: nothing of the
    masked pass's (nnz, k) float64 workspace survives."""
    events = random_events(n_vertices=30, n_events=3_000, seed=11)
    adj = TemporalAdjacency.from_events(events)
    spec = WindowSpec.covering(events, delta=4_000, sw=300)
    views = [adj.window_view(spec.window(i)) for i in range(16)]
    k, nnz = len(views), adj.nnz
    ws = Workspace()
    pagerank_windows_spmm(views, CFG, workspace=ws)
    assert ws.nbytes < nnz * k * 8
