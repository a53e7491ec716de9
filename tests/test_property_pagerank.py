"""Property-based tests for the PageRank kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window
from repro.graph import TemporalAdjacency
from repro.pagerank import (
    PagerankConfig,
    full_initialization,
    pagerank_window,
    pagerank_window_weighted,
    pagerank_windows_lockstep,
    partial_initialization,
)


@st.composite
def window_instances(draw):
    n = draw(st.integers(min_value=2, max_value=15))
    m = draw(st.integers(min_value=1, max_value=60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    t = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m))
    events = TemporalEventSet(src, dst, t, n_vertices=n)
    adj = TemporalAdjacency.from_events(events)
    a = draw(st.integers(0, 100))
    b = draw(st.integers(0, 100))
    view = adj.window_view(Window(0, min(a, b), max(a, b)))
    return view


CFG = PagerankConfig(tolerance=1e-12, max_iterations=500)


@given(window_instances())
@settings(max_examples=120, deadline=None)
def test_mass_conservation(view):
    r = pagerank_window(view, CFG)
    if view.n_active_vertices:
        assert np.isclose(r.values.sum(), 1.0, atol=1e-8)
    else:
        assert r.values.sum() == 0.0


@given(window_instances())
@settings(max_examples=100, deadline=None)
def test_values_nonnegative_and_inactive_zero(view):
    r = pagerank_window(view, CFG)
    assert np.all(r.values >= 0)
    assert np.all(r.values[~view.active_vertices_mask] == 0)
    if view.n_active_vertices:
        # every active vertex keeps at least its teleport share
        floor = CFG.alpha / view.n_active_vertices
        active_vals = r.values[view.active_vertices_mask]
        assert np.all(active_vals >= floor * (1 - 1e-9))


@given(window_instances())
@settings(max_examples=75, deadline=None)
def test_fixed_point(view):
    """One more iteration from the converged vector moves < tolerance."""
    r = pagerank_window(view, CFG)
    if not r.converged or view.n_active_vertices == 0:
        return
    step = pagerank_window(
        view, PagerankConfig(tolerance=1e-15, max_iterations=1), x0=r.values
    )
    assert np.abs(step.values - r.values).sum() < 10 * CFG.tolerance


@given(window_instances())
@settings(max_examples=75, deadline=None)
def test_init_vectors_are_distributions(view):
    x = full_initialization(view)
    if view.n_active_vertices:
        assert np.isclose(x.sum(), 1.0)
        assert np.all(x >= 0)
    r = pagerank_window(view, CFG)
    warm = partial_initialization(view, view, r.values)
    if view.n_active_vertices:
        assert np.isclose(warm.sum(), 1.0, atol=1e-8)


@given(window_instances())
@settings(max_examples=50, deadline=None)
def test_self_partial_init_is_near_fixed_point(view):
    """Warm-starting a window from its own solution converges immediately
    (within a few iterations)."""
    r = pagerank_window(view, CFG)
    if not r.converged or view.n_active_vertices == 0:
        return
    warm = partial_initialization(view, view, r.values)
    again = pagerank_window(view, CFG, x0=warm)
    assert again.iterations <= max(3, r.iterations // 2)


@given(window_instances(), st.integers(2, 5))
@settings(max_examples=50, deadline=None)
def test_spmm_columns_equal_spmv(view, k):
    views = [view] * k
    batch = pagerank_windows_lockstep(views, CFG)
    single = pagerank_window(view, CFG)
    for column in batch.columns:
        assert np.array_equal(column.values, single.values)
        assert column.iterations == single.iterations


@given(window_instances(), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_backend_never_changes_values(view, use_workspace, weighted):
    """The one propagation step reproduces the masked oracle bit for
    bit, weighted or not, with owned and workspace-pooled buffers
    alike."""
    from repro.pagerank import Workspace
    from tests.dense_mask_reference import dense_mask_pagerank

    solver = pagerank_window_weighted if weighted else pagerank_window
    ws = Workspace() if use_workspace else None
    want = dense_mask_pagerank(view, CFG, weighted=weighted)
    for _ in range(2):  # a second solve reuses the pooled scratch
        r = solver(view, CFG, workspace=ws)
        assert np.array_equal(r.values, want.values)
        assert r.iterations == want.iterations
        assert r.converged == want.converged


@given(window_instances())
@settings(max_examples=100, deadline=None)
def test_edge_path_never_changes_values(view):
    """Iterating the packed active edges is an execution strategy, not a
    different computation: the kernel's one edge path reproduces the
    masked pass over every stored event (``tests/dense_mask_reference.py``)
    bit for bit."""
    from tests.dense_mask_reference import dense_mask_pagerank

    got = pagerank_window(view, CFG)
    want = dense_mask_pagerank(view, CFG)
    assert np.array_equal(got.values, want.values)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.residual == want.residual
