"""Window views read off the group index equal views built from scratch.

A :class:`~repro.graph.temporal_csr.WindowView` counts its window's
events per (row, neighbor) group through the adjacency's
:class:`~repro.graph.temporal_csr.GroupIndex`.  Whatever windows came
before it, every view must equal the Θ(nnz) definition: the
in-orientation's ``dedup_mask``, its per-row ``segment_count`` and, with
row and column swapped, the out-degrees and out-edges.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window
from repro.graph import TemporalAdjacency, build_csr_from_edges
from repro.pagerank import compact_pull
from repro.programs.kcore import undirected_simple_csr, undirected_window_csr
from tests.dense_mask_reference import pair_multiplicities

MAX_TIME = 60


@st.composite
def event_sets(draw):
    """Few vertices and a short horizon: repeated (u, v) events and
    duplicate timestamps are the common case, not the exception."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 40))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    time = draw(st.lists(st.integers(0, MAX_TIME), min_size=m, max_size=m))
    return TemporalEventSet(src, dst, time, n_vertices=n)


@st.composite
def window_sequences(draw):
    """Windows in the orders a chain or a batch meets them: forward
    overlapping slides, strides of at least the window length, backward
    jumps, the same window twice, and windows empty or past the
    horizon."""
    t_start = draw(st.integers(-10, MAX_TIME + 10))
    length = draw(st.integers(0, 25))
    windows = [(t_start, t_start + length)]
    for _ in range(draw(st.integers(1, 12))):
        move = draw(st.sampled_from(["slide", "stride", "jump", "repeat"]))
        lo, hi = windows[-1]
        if move == "slide":
            lo += draw(st.integers(0, max(hi - lo, 0)))
            hi += draw(st.integers(0, 10))
            hi = max(hi, lo)
        elif move == "stride":
            lo, hi = hi + 1 + draw(st.integers(0, 10)), hi + 1 + length
            hi = max(hi, lo)
        elif move == "jump":
            lo = draw(st.integers(-10, MAX_TIME + 10))
            hi = lo + draw(st.integers(0, 25))
        windows.append((lo, hi))
    return windows


def assert_view_matches_oracle(view):
    adj = view.adjacency
    in_csr, n = adj.in_csr, adj.n_vertices
    ts, te = view.window.t_start, view.window.t_end
    dedup = in_csr.dedup_mask(ts, te)
    # the in-orientation stores (destination, source): swap for out-edges
    src, dst = in_csr.col[dedup], in_csr.row_ids()[dedup]

    np.testing.assert_array_equal(view.in_dedup, dedup)
    np.testing.assert_array_equal(view.in_degrees, in_csr.degrees(ts, te))
    np.testing.assert_array_equal(
        view.out_degrees, np.bincount(src, minlength=n)
    )
    np.testing.assert_array_equal(
        view.active_vertices_mask,
        (view.in_degrees > 0) | (view.out_degrees > 0),
    )
    assert view.n_active_vertices == int(view.active_vertices_mask.sum())
    assert view.n_active_edges == int(dedup.sum())

    rows, cols, counts = pair_multiplicities(in_csr, ts, te)
    np.testing.assert_array_equal(view.multiplicities, counts)
    groups = adj.groups
    np.testing.assert_array_equal(groups.row[view.active_groups], rows)
    np.testing.assert_array_equal(groups.col[view.active_groups], cols)

    for got, want in (
        (view.compact_graph(), build_csr_from_edges(src, dst, n, dedup=False)),
        (undirected_window_csr(view), undirected_simple_csr(src, dst, n)),
    ):
        assert got == want
        assert got.indptr.dtype == want.indptr.dtype
        assert got.col.dtype == want.col.dtype

    packed = compact_pull(view)
    np.testing.assert_array_equal(packed.col, in_csr.col[dedup])
    np.testing.assert_array_equal(packed.rows, in_csr.row_ids()[dedup])
    np.testing.assert_array_equal(
        np.bincount(packed.rows, minlength=n), in_csr.degrees(ts, te)
    )


def snapshot(view):
    return (
        view.group_mask.copy(), view.in_degrees.copy(),
        view.out_degrees.copy(), view.active_vertices_mask.copy(),
    )


@given(event_sets(), window_sequences())
@settings(max_examples=200, deadline=None)
def test_views_equal_from_scratch_oracle(events, windows):
    built = TemporalAdjacency.from_events(events)
    # the same structure without its build permutation: the group index
    # then orders events by an argsort, as for a mapped artifact
    bare = TemporalAdjacency(built.in_csr)
    for adj in (built, bare):
        views = []
        for i, (ts, te) in enumerate(windows):
            view = adj.window_view(Window(i, ts, te))
            assert_view_matches_oracle(view)
            views.append((view, snapshot(view)))
        for view, before in views:
            # later views leave earlier ones untouched...
            for got, want in zip(snapshot(view), before):
                np.testing.assert_array_equal(got, want)
            # ...and a view does not depend on the views built before it
            fresh = TemporalAdjacency(built.in_csr)
            alone = fresh.window_view(view.window)
            for got, want in zip(snapshot(alone), before):
                np.testing.assert_array_equal(got, want)


def test_unsorted_input_times_use_the_argsort_order():
    adj = TemporalAdjacency.from_arrays(
        [0, 1, 2, 0, 1], [1, 2, 0, 1, 0], [30, 10, 20, 5, 25], 3
    )
    for ts, te in ((0, 12), (5, 25), (20, 40), (0, 40)):
        assert_view_matches_oracle(adj.window_view(Window(0, ts, te)))


def test_time_ordered_input_times_are_held_not_copied():
    time = np.array([5, 10, 20, 25, 30], dtype=np.int64)
    adj = TemporalAdjacency.from_arrays(
        [0, 1, 2, 0, 1], [1, 2, 0, 1, 0], time, 3
    )
    groups = adj.groups
    assert groups.time is time
    assert groups.group.dtype == np.int32
    assert groups.row.dtype == groups.col.dtype == np.int32
    for ts, te in ((0, 12), (5, 25), (20, 40), (0, 40)):
        assert_view_matches_oracle(adj.window_view(Window(0, ts, te)))
