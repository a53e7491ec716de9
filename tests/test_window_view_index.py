"""Window views read off the group index equal views built from scratch.

A :class:`~repro.graph.temporal_csr.WindowView` marks its window's
active (row, neighbor) groups through the adjacency's
:class:`~repro.graph.temporal_csr.GroupIndex` and builds its vertex set,
local-id map, local out-degrees and relabelled edges from one gather of
those groups.  Whatever windows came before it, every view must equal
the Θ(nnz) definition: the in-orientation's ``dedup_mask``, its per-row
``segment_count`` and, with row and column swapped, the out-degrees and
out-edges — each window-local array mapped back through ``active_idx``
to its recomputation from the length-``n`` masks.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window
from repro.graph import TemporalAdjacency, build_csr_from_edges
from repro.pagerank import compact_pull
from repro.pagerank.spmv import _Column
from repro.programs.kcore import undirected_simple_csr, undirected_window_csr
from tests.dense_mask_reference import in_dedup, pair_multiplicities

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
    in_deg = in_csr.degrees(ts, te)
    out_deg = np.bincount(src, minlength=n)
    mask = (in_deg > 0) | (out_deg > 0)

    np.testing.assert_array_equal(in_dedup(view), dedup)
    np.testing.assert_array_equal(view.in_degrees, in_deg)
    np.testing.assert_array_equal(view.out_degrees, out_deg)
    np.testing.assert_array_equal(view.active_vertices_mask, mask)
    assert view.n_active_vertices == int(mask.sum())
    assert view.n_active_edges == int(dedup.sum())

    # the window-local arrays, mapped back through active_idx
    active = view.active_idx
    k = active.size
    np.testing.assert_array_equal(active, np.flatnonzero(mask))
    assert active.dtype == np.int64
    local_id = np.full(n, -1, dtype=np.int64)
    local_id[mask] = np.arange(k)
    np.testing.assert_array_equal(view.local_id, local_id)
    np.testing.assert_array_equal(view.local_out_degrees, out_deg[mask])
    column = _Column(view, None, view.local_out_degrees, 1.0, None, True)
    if k:
        np.testing.assert_array_equal(
            active[column.dangling], np.flatnonzero(mask & (out_deg == 0))
        )
        inv = np.zeros(n)
        inv[out_deg > 0] = 1.0 / out_deg[out_deg > 0]
        np.testing.assert_array_equal(column.inv, inv[mask])

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

    # the pack the view built, handed over once; a second take gathers
    # the same edges again
    for _ in range(2):
        packed = compact_pull(view)
        assert packed.col.dtype == packed.rows.dtype == np.int64
        np.testing.assert_array_equal(active[packed.col], src)
        np.testing.assert_array_equal(active[packed.rows], dst)
        np.testing.assert_array_equal(
            np.bincount(packed.rows, minlength=k), in_deg[mask]
        )


def snapshot(view):
    return (
        view.active_groups.copy(), view.active_idx.copy(),
        view.local_id.copy(), view.local_out_degrees.copy(),
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


def test_view_of_a_small_window_allocates_less_than_a_word_per_group():
    """A view over ten events of a graph with 50k+ groups allocates well
    under 8 B per group: its group mark is 1 B per group, and nothing
    else it builds is group-sized."""
    rng = np.random.default_rng(3)
    n, m = 1_000, 60_000
    adj = TemporalAdjacency.from_arrays(
        rng.integers(0, n, m), rng.integers(0, n, m), np.arange(m), n
    )
    n_groups = adj.groups.n_groups
    assert n_groups >= 50_000
    tracemalloc.start()
    try:
        view = adj.window_view(Window(0, 30_000, 30_009))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.n_active_edges == 10
    assert peak < 8 * n_groups, (peak, n_groups)
