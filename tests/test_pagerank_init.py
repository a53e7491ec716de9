"""Unit tests for full/partial initialization (paper eq. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.events import TemporalEventSet, Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.pagerank import (
    PagerankConfig,
    full_initialization,
    pagerank_window,
    partial_initialization,
)
from repro.pagerank.init import (
    local_full_initialization,
    local_partial_initialization,
    mask_partial_initialization,
)
from tests.conftest import random_events


@pytest.fixture
def overlapping():
    """Events with heavily overlapping consecutive windows."""
    events = random_events(n_vertices=50, n_events=2_000, t_max=50_000, seed=51)
    spec = WindowSpec.covering(events, delta=20_000, sw=1_000)
    adj = TemporalAdjacency.from_events(events)
    return events, spec, adj


class TestFullInitialization:
    def test_uniform_over_active(self, adjacency, spec):
        view = adjacency.window_view(spec.window(0))
        x = full_initialization(view)
        active = view.active_vertices_mask
        assert np.allclose(x[active], 1.0 / view.n_active_vertices)
        assert np.all(x[~active] == 0)
        assert x.sum() == pytest.approx(1.0)

    def test_empty_window(self, adjacency):
        from repro.events import Window

        view = adjacency.window_view(Window(0, 10**9, 10**9 + 5))
        assert np.all(full_initialization(view) == 0)


class TestPartialInitialization:
    def test_sums_to_one(self, overlapping):
        _, spec, adj = overlapping
        v0 = adj.window_view(spec.window(0))
        v1 = adj.window_view(spec.window(1))
        prev = pagerank_window(v0)
        x = partial_initialization(v1, v0, prev.values)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_eq4_proportionality(self, overlapping):
        """Shared vertices get values proportional to the previous window's
        PageRank with the eq. 4 normalization."""
        _, spec, adj = overlapping
        v0 = adj.window_view(spec.window(0))
        v1 = adj.window_view(spec.window(1))
        prev = pagerank_window(v0)
        x = partial_initialization(v1, v0, prev.values)

        shared = v0.active_vertices_mask & v1.active_vertices_mask
        n_shared = int(shared.sum())
        n_cur = v1.n_active_vertices
        shared_mass = prev.values[shared].sum()
        expected = prev.values[shared] * (n_shared / n_cur) / shared_mass
        assert np.allclose(x[shared], expected)

    def test_new_vertices_uniform(self, overlapping):
        _, spec, adj = overlapping
        v0 = adj.window_view(spec.window(0))
        v5 = adj.window_view(spec.window(5))
        prev = pagerank_window(v0)
        x = partial_initialization(v5, v0, prev.values)
        new = v5.active_vertices_mask & ~v0.active_vertices_mask
        if new.any():
            assert np.allclose(x[new], 1.0 / v5.n_active_vertices)

    def test_closer_than_cold_start(self, overlapping):
        """The warm start must be closer to the fixed point than uniform —
        the entire premise of Section 4.2."""
        _, spec, adj = overlapping
        cfg = PagerankConfig(tolerance=1e-12, max_iterations=500)
        v0 = adj.window_view(spec.window(3))
        v1 = adj.window_view(spec.window(4))
        prev = pagerank_window(v0, cfg)
        exact = pagerank_window(v1, cfg)
        warm = partial_initialization(v1, v0, prev.values)
        cold = full_initialization(v1)
        d_warm = np.abs(warm - exact.values).sum()
        d_cold = np.abs(cold - exact.values).sum()
        assert d_warm < d_cold

    def test_same_fixed_point(self, overlapping):
        _, spec, adj = overlapping
        cfg = PagerankConfig(tolerance=1e-12, max_iterations=500)
        v0 = adj.window_view(spec.window(0))
        v1 = adj.window_view(spec.window(1))
        prev = pagerank_window(v0, cfg)
        warm = pagerank_window(
            v1, cfg, x0=partial_initialization(v1, v0, prev.values)
        )
        cold = pagerank_window(v1, cfg)
        assert np.allclose(warm.values, cold.values, atol=1e-9)

    def test_disjoint_vertex_sets_fall_back_to_full(self):
        # early window touches vertices 0..3 only, late window 4..7 only:
        # no shared vertices -> eq. 4 degenerates to full initialization
        from repro.events import TemporalEventSet

        events = TemporalEventSet(
            [0, 1, 2, 4, 5, 6],
            [1, 2, 3, 5, 6, 7],
            [10, 20, 30, 1_010, 1_020, 1_030],
        )
        adj = TemporalAdjacency.from_events(events)
        spec = WindowSpec(t0=0, delta=100, sw=1_000, n_windows=2)
        v0 = adj.window_view(spec.window(0))
        v1 = adj.window_view(spec.window(1))
        prev = pagerank_window(v0)
        x = partial_initialization(v1, v0, prev.values)
        assert np.allclose(x, full_initialization(v1))

    def test_rejects_wrong_shape(self, overlapping):
        _, spec, adj = overlapping
        v0 = adj.window_view(spec.window(0))
        v1 = adj.window_view(spec.window(1))
        with pytest.raises(ValidationError):
            partial_initialization(v1, v0, np.ones(3))


# ---------------------------------------------------------------------------
# window-local eq. 4 against the whole-space mask transfer
# ---------------------------------------------------------------------------
def bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def assert_local_eq4_matches_masks(view, prev_view, prev_values):
    """The window-local seed, and its scatter into the vertex space, have
    the bits of ``mask_partial_initialization`` over the two windows'
    vertex masks."""
    want = mask_partial_initialization(
        view.active_vertices_mask, prev_values,
        prev_view.active_vertices_mask,
    )
    local = local_partial_initialization(view, prev_view, prev_values)
    assert local.shape == (view.n_active_vertices,)
    assert bits(local) == bits(want[view.active_idx])
    assert bits(partial_initialization(view, prev_view, prev_values)) == (
        bits(want)
    )


@st.composite
def eq4_cases(draw):
    """An event set, two windows of it and a previous vector: values
    drawn per vertex with zeros common (on active vertices too), or the
    previous window's own PageRank."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 30))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    time = draw(st.lists(st.integers(0, 40), min_size=m, max_size=m))
    adj = TemporalAdjacency.from_events(
        TemporalEventSet(src, dst, time, n_vertices=n)
    )
    windows = []
    for i in range(2):
        lo = draw(st.integers(-5, 45))
        windows.append(Window(i, lo, lo + draw(st.integers(0, 20))))
    prev_view, view = (adj.window_view(w) for w in windows)
    if draw(st.booleans()):
        prev_values = pagerank_window(prev_view).values
    else:
        prev_values = np.array(draw(st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, 1.0, allow_subnormal=False),
            ),
            min_size=n, max_size=n,
        )))
    return view, prev_view, prev_values


@given(eq4_cases())
@settings(max_examples=300, deadline=None)
def test_local_eq4_bitwise_equals_mask_transfer(case):
    assert_local_eq4_matches_masks(*case)


@pytest.mark.parametrize(
    "case",
    ["no-shared", "zero-shared-mass", "empty", "single-vertex",
     "zeros-on-active"],
)
def test_local_eq4_edge_cases(case):
    # previous window [0, 10], current window [20, 30]
    src, dst, time, n = {
        "no-shared": ([0, 1, 2, 3], [1, 0, 3, 2], [1, 2, 21, 22], 4),
        "zero-shared-mass": ([0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 21, 22], 3),
        "empty": ([0, 1], [1, 0], [1, 2], 2),
        "single-vertex": ([0, 0], [0, 0], [1, 21], 1),
        "zeros-on-active": ([0, 1, 2, 1, 2], [1, 2, 0, 2, 3],
                            [1, 2, 3, 21, 22], 4),
    }[case]
    adj = TemporalAdjacency.from_events(
        TemporalEventSet(src, dst, time, n_vertices=n)
    )
    prev_view = adj.window_view(Window(0, 0, 10))
    view = adj.window_view(Window(1, 20, 30))
    prev_values = pagerank_window(prev_view).values
    if case == "zero-shared-mass":
        prev_values[1] = 0.0
    elif case == "zeros-on-active":
        prev_values[1] = 0.0
    assert_local_eq4_matches_masks(view, prev_view, prev_values)
    local = local_partial_initialization(view, prev_view, prev_values)
    if case == "empty":
        assert local.size == 0
    elif case in ("no-shared", "zero-shared-mass"):
        # the uniform fallback
        assert bits(local) == bits(local_full_initialization(view))
