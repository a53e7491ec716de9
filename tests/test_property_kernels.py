"""Property-based tests for the non-PageRank vertex programs' math."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import TemporalEventSet, Window, WindowSpec
from repro.graph import TemporalAdjacency
from repro.programs.components import ComponentsProgram
from repro.programs.kcore import core_numbers, undirected_window_csr
from repro.runtime import MODELS, make_driver
from tests.dense_mask_reference import katz_window


@st.composite
def window_views(draw, max_vertices=14, max_events=60):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_events))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    t = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m))
    events = TemporalEventSet(src, dst, t, n_vertices=n)
    adj = TemporalAdjacency.from_events(events)
    return adj.window_view(Window(0, 0, 100))


@st.composite
def windowed_events(draw, max_vertices=10, max_events=30):
    """Events plus one window that may be empty; some vertices may carry
    only self-loops, and the graph may have a single vertex."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_events))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    loops = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    other = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = [s if loop else d for s, d, loop in zip(src, other, loops)]
    t = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m))
    t_start = draw(st.integers(0, 110))
    t_end = draw(st.integers(t_start, 120))
    events = TemporalEventSet(src, dst, t, n_vertices=n)
    return events, Window(0, t_start, t_end)


def networkx_component_sizes(events, window):
    """Independent reference: component sizes over the window's events,
    0 for vertices with no event in the window."""
    inside = window.contains(events.time)
    g = nx.Graph()
    g.add_edges_from(
        zip(events.src[inside].tolist(), events.dst[inside].tolist())
    )
    sizes = np.zeros(events.n_vertices, dtype=np.float64)
    for component in nx.connected_components(g):
        sizes[list(component)] = len(component)
    return sizes


@given(window_views())
@settings(max_examples=80, deadline=None)
def test_core_number_at_most_degree(view):
    """A vertex's core number never exceeds its undirected degree."""
    cores = core_numbers(view)
    degree = undirected_window_csr(view).out_degrees()
    assert np.all(cores <= degree)
    assert np.all(cores >= 0)


@given(window_views())
@settings(max_examples=80, deadline=None)
def test_kcore_subgraph_property(view):
    """Inside the k-core (vertices with core >= k), every vertex has >= k
    neighbors that are also in the k-core — the defining property."""
    cores = core_numbers(view)
    k = int(cores.max())
    if k == 0:
        return
    g = undirected_window_csr(view)
    members = np.flatnonzero(cores >= k)
    member_set = set(members.tolist())
    for v in members:
        nbrs = g.neighbors(int(v))
        inside = sum(1 for u in nbrs if int(u) in member_set)
        assert inside >= k, (v, k)


@given(window_views())
@settings(max_examples=80, deadline=None)
def test_components_are_equivalence_classes(view):
    sizes = ComponentsProgram().solve_window(view).values
    # every active edge's endpoints sit in one component
    compact = view.compact_graph()
    src, dst = compact.edges()
    assert np.all(sizes[src] == sizes[dst])
    # each component of size s contributes s vertices valued s; inactive
    # vertices are 0
    active = view.active_vertices_mask
    values, counts = np.unique(sizes[active], return_counts=True)
    assert np.all(values >= 1)
    assert np.all(counts % values == 0)
    assert np.all(sizes[~active] == 0)


@given(windowed_events())
@settings(max_examples=120, deadline=None)
def test_components_match_networkx(case):
    events, window = case
    adj = TemporalAdjacency.from_events(events)
    got = ComponentsProgram().solve_window(adj.window_view(window)).values
    np.testing.assert_array_equal(
        got, networkx_component_sizes(events, window)
    )


@given(windowed_events())
@settings(max_examples=25, deadline=None)
def test_components_bitwise_across_models(case):
    events, _ = case
    spec = WindowSpec(t0=0, delta=30, sw=20, n_windows=5)
    runs = [
        make_driver(model, events, spec, program="components")
        .run()
        .values_matrix()
        for model in MODELS
    ]
    for got in runs[1:]:
        np.testing.assert_array_equal(got, runs[0])
    for w in spec:
        np.testing.assert_array_equal(
            runs[0][w.index], networkx_component_sizes(events, w)
        )


@given(window_views())
@settings(max_examples=40, deadline=None)
def test_katz_is_distribution(view):
    r = katz_window(view)
    if view.n_active_vertices:
        assert np.isclose(r.values.sum(), 1.0, atol=1e-8)
        assert np.all(r.values >= 0)
