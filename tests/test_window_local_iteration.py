"""Differential test of the window-local power iteration.

The SpMV and weighted kernels solve each window in ``[0, |V_w|)`` after a
monotone relabelling of its packed active edges.  The oracle is the dense
whole-vertex-space loop they replaced (``tests/dense_mask_reference.py``):
on adversarial windows — empty, a lone self-loop, all destinations
dangling, active vertices interleaved with inactive ones, inactive rows
before and after the active block — and across weighting, dangling
policies, iteration caps and warm starts, values, iteration counts and residuals must
agree bit for bit, and every inactive entry must be ``+0.0``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window
from repro.graph import TemporalAdjacency
from repro.pagerank import (
    PagerankConfig,
    Workspace,
    pagerank_window,
    pagerank_window_weighted,
    partial_initialization,
)
from tests.dense_mask_reference import dense_mask_pagerank

#: the solved window and the overlapping one its warm start comes from
#: (inclusive ends); events outside both keep inactive rows stored
WINDOW = Window(1, 10, 19)
PREV_WINDOW = Window(0, 5, 14)

SHAPES = ("random", "empty", "self_loop", "sinks", "interleaved", "padded")


@st.composite
def adversarial_windows(draw):
    """A temporal adjacency whose ``WINDOW`` has one of ``SHAPES``."""
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(min_value=4, max_value=24))
    vertex = st.integers(0, n - 1)

    if shape == "random":
        src_pool = dst_pool = list(range(n))
    elif shape == "empty":
        src_pool = dst_pool = []
    elif shape == "self_loop":
        v = draw(vertex)
        src_pool = dst_pool = [v]
    elif shape == "sinks":
        # every active destination has no active out-edge
        cut = draw(st.integers(1, n - 1))
        src_pool, dst_pool = list(range(cut)), list(range(cut, n))
    elif shape == "interleaved":
        src_pool = dst_pool = list(range(0, n, 2))
    else:  # padded: inactive rows before and after the active block
        lo = draw(st.integers(1, n - 3))
        hi = draw(st.integers(lo + 2, n - 1))
        src_pool = dst_pool = list(range(lo, hi))

    inside = []
    if src_pool:
        m = draw(st.integers(1, 40))
        for _ in range(m):
            s = draw(st.sampled_from(src_pool))
            d = s if shape == "self_loop" else draw(st.sampled_from(dst_pool))
            inside.append((s, d, draw(st.integers(10, 19))))
    outside = draw(st.lists(
        st.tuples(vertex, vertex, st.sampled_from([0, 3, 7, 22, 25, 29])),
        min_size=1, max_size=40,
    ))
    src, dst, t = zip(*(inside + outside))
    events = TemporalEventSet(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        np.asarray(t, dtype=np.int64), n_vertices=n,
    )
    return TemporalAdjacency.from_events(events)


@given(
    adjacency=adversarial_windows(),
    weighted=st.booleans(),
    warm=st.booleans(),
    use_workspace=st.booleans(),
    dangling=st.sampled_from(["uniform", "drop"]),
    max_iterations=st.sampled_from([3, 300]),
)
@settings(max_examples=300, deadline=None)
def test_matches_dense_mask_loop(
    adjacency, weighted, warm, use_workspace, dangling, max_iterations,
):
    cfg = PagerankConfig(
        tolerance=1e-12, max_iterations=max_iterations, dangling=dangling,
    )
    view = adjacency.window_view(WINDOW)
    x0 = None
    if warm:
        prev_view = adjacency.window_view(PREV_WINDOW)
        prev = dense_mask_pagerank(prev_view, cfg, weighted=weighted)
        x0 = partial_initialization(view, prev_view, prev.values)

    ref = dense_mask_pagerank(view, cfg, x0=x0, weighted=weighted)
    solver = pagerank_window_weighted if weighted else pagerank_window
    ws = Workspace() if use_workspace else None
    for _ in range(2):  # a second solve reuses the pooled scratch
        got = solver(view, cfg, x0=x0, workspace=ws)
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        assert np.float64(got.residual).tobytes() == \
            np.float64(ref.residual).tobytes()
        inactive = got.values[~view.active_vertices_mask]
        assert not inactive.any() and not np.signbit(inactive).any()
