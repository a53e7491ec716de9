"""Property-based tests for CSR building and the temporal CSR window masks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet
from repro.graph import LazyMultiWindowPartition, TemporalAdjacency, build_csr_from_edges
from repro.events.windows import WindowSpec


@st.composite
def edge_lists(draw, max_vertices=12, max_edges=60):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


@st.composite
def event_sets(draw, max_vertices=10, max_events=50, max_time=200):
    n, src, dst = draw(edge_lists(max_vertices, max_events))
    t = draw(
        st.lists(
            st.integers(0, max_time), min_size=src.size, max_size=src.size
        )
    )
    return TemporalEventSet(src, dst, np.array(t, dtype=np.int64), n_vertices=n)


@given(edge_lists())
@settings(max_examples=150, deadline=None)
def test_csr_dedup_equals_set_semantics(data):
    n, src, dst = data
    g = build_csr_from_edges(src, dst, n)
    expected = set(zip(src.tolist(), dst.tolist()))
    s, d = g.edges()
    assert set(zip(s.tolist(), d.tolist())) == expected
    assert g.n_edges == len(expected)


@given(edge_lists())
@settings(max_examples=100, deadline=None)
def test_csr_transpose_involution(data):
    n, src, dst = data
    g = build_csr_from_edges(src, dst, n)
    assert g.transpose().transpose() == g


@given(event_sets(), st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=150, deadline=None)
def test_window_masks_match_bruteforce(events, a, b):
    t0, t1 = min(a, b), max(a, b)
    adj = TemporalAdjacency.from_events(events)
    dedup = adj.in_csr.dedup_mask(t0, t1)
    dst = adj.in_csr.row_ids()[dedup]
    src = adj.in_csr.col[dedup]
    got = set(zip(src.tolist(), dst.tolist()))
    mask = (events.time >= t0) & (events.time <= t1)
    expected = set(zip(events.src[mask].tolist(), events.dst[mask].tolist()))
    assert got == expected


@given(event_sets(), st.integers(1, 8))
@settings(max_examples=75, deadline=None)
def test_multiwindow_views_equal_full_views(events, n_mw):
    if len(events) == 0:
        return
    span = max(events.span, 10)
    spec = WindowSpec.covering(events, delta=max(span // 3, 1),
                               sw=max(span // 7, 1))
    full = TemporalAdjacency.from_events(events)
    part = LazyMultiWindowPartition(events, spec, n_mw)
    for w in spec:
        local = part.window_view(w.index)
        ref = full.window_view(w)
        assert local.n_active_edges == ref.n_active_edges
        assert local.n_active_vertices == ref.n_active_vertices
