"""The window-local materialized loop against the whole-vertex-space oracle.

:mod:`tests.materialized_reference` keeps the ``_power_iterate_graph``
loop that ran every vector op over all ``n`` vertices.  Every case here
requires the window-local loop to reproduce it bit for bit — values,
iterations, residual and ``converged`` — for PageRank under both dangling
policies, Katz's normalized unit-weight surface, cold and warm starts
(with and without ``prev_active``), empty, single-vertex and all-dangling
windows, active sets that cover a small fraction of ``n``, and masks that
leave some edge endpoints inactive.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError
from repro.graph.csr import build_csr_from_edges
from repro.pagerank import PagerankConfig
from repro.pagerank.incremental import _power_iterate_graph
from tests.materialized_reference import reference_power_iterate_graph

CFG = PagerankConfig(tolerance=1e-12, max_iterations=300)


def solve_both(graph, mask, config=CFG, cold_mass=1.0, prev_values=None,
               prev_active=None, katz=None):
    """Run both loops on one solve: PageRank's constants, or Katz's
    ``(scale, base)`` with unit out-weights and the normalized residual."""
    if katz is None:
        args = (graph.out_degrees(), config.damping, config.alpha)
        normalized = False
    else:
        args = (np.ones(graph.n_vertices, dtype=np.float64),) + katz
        normalized = True
    common = (graph, config, mask, cold_mass, prev_values, prev_active)
    got = _power_iterate_graph(*common, *args, normalized=normalized)
    want = reference_power_iterate_graph(
        *common, *args, normalized=normalized
    )
    return got, want


def assert_bitwise(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(np.signbit(got.values), np.signbit(want.values))
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert np.array_equal(got.residual, want.residual)
    assert got.work.edge_traversals == want.work.edge_traversals
    assert got.work.vertex_ops == want.work.vertex_ops


@st.composite
def solves(draw):
    """A simple graph whose edges touch only a random subset of a larger
    vertex space, its active mask (endpoints, sometimes plus isolated
    vertices or minus some endpoints) and an optional previous window."""
    n = draw(st.integers(min_value=1, max_value=60))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                         unique=True))
    m = draw(st.integers(min_value=0, max_value=150))
    pick = st.sampled_from(pool)
    src = draw(st.lists(pick, min_size=m, max_size=m))
    dst = draw(st.lists(pick, min_size=m, max_size=m))
    graph = build_csr_from_edges(src, dst, n)
    mask = np.zeros(n, dtype=bool)
    mask[src] = True
    mask[dst] = True
    extra = draw(st.lists(st.integers(0, n - 1), max_size=4))
    mask[extra] = True
    drop = draw(st.lists(st.integers(0, n - 1), max_size=2))
    mask[drop] = False
    prev_values = prev_active = None
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        prev_values = rng.random(n) * (rng.random(n) < 0.7)
        if draw(st.booleans()):
            prev_active = rng.random(n) < 0.6
    return graph, mask, prev_values, prev_active


@given(solves(), st.sampled_from(["uniform", "drop"]))
@settings(max_examples=200, deadline=None)
def test_pagerank_matches_whole_space_oracle(case, dangling):
    graph, mask, prev_values, prev_active = case
    got, want = solve_both(
        graph, mask, replace(CFG, dangling=dangling),
        prev_values=prev_values, prev_active=prev_active,
    )
    assert_bitwise(got, want)


@given(solves(), st.floats(0.01, 0.3), st.floats(0.5, 2.0))
@settings(max_examples=120, deadline=None)
def test_katz_matches_whole_space_oracle(case, scale, base):
    graph, mask, prev_values, prev_active = case
    got, want = solve_both(
        graph, mask, cold_mass=base, prev_values=prev_values,
        prev_active=prev_active, katz=(scale, base),
    )
    assert_bitwise(got, want)


def star(n, hub, leaves):
    return build_csr_from_edges(
        np.array(leaves), np.full(len(leaves), hub), n
    )


def mask_of(n, vertices):
    mask = np.zeros(n, dtype=bool)
    mask[list(vertices)] = True
    return mask


class TestCases:
    def test_empty_window(self):
        graph = build_csr_from_edges([], [], 7)
        got, want = solve_both(graph, np.zeros(7, dtype=bool))
        assert_bitwise(got, want)
        assert got.iterations == 0 and got.converged

    def test_single_vertex_window(self):
        graph = build_csr_from_edges([], [], 9)
        got, want = solve_both(graph, mask_of(9, [4]))
        assert_bitwise(got, want)
        assert got.values[4] > 0 and np.count_nonzero(got.values) == 1

    @pytest.mark.parametrize("dangling", ["uniform", "drop"])
    def test_all_dangling_window(self, dangling):
        graph = build_csr_from_edges([], [], 12)
        config = replace(CFG, dangling=dangling)
        got, want = solve_both(graph, mask_of(12, [1, 5, 6, 11]), config)
        assert_bitwise(got, want)

    @pytest.mark.parametrize("katz", [None, (0.1, 1.0)])
    def test_small_active_fraction(self, katz):
        """A window of 6 active vertices in a 5,000-vertex space: the
        residual still sums the same n terms."""
        n = 5_000
        leaves = [17, 900, 2_501, 3_333, 4_998]
        graph = star(n, 1_234, leaves)
        got, want = solve_both(graph, mask_of(n, leaves + [1_234]),
                               katz=katz)
        assert_bitwise(got, want)
        assert np.count_nonzero(got.values) == 6

    @pytest.mark.parametrize("katz", [None, (0.1, 1.0)])
    @pytest.mark.parametrize("cap", [1, 3])
    def test_scattered_window_early_residual(self, katz, cap):
        """Stopped after a few steps, when |y - x| is far from exact, the
        residual of 300 active vertices scattered over 2,000 is the
        zero-padded pairwise sum of the whole vertex space."""
        rng = np.random.default_rng(11)
        verts = rng.choice(2_000, 300, replace=False)
        graph = build_csr_from_edges(
            rng.choice(verts, 1_500), rng.choice(verts, 1_500), 2_000
        )
        mask = mask_of(2_000, graph.active_vertices())
        config = replace(CFG, max_iterations=cap)
        got, want = solve_both(graph, mask, config, katz=katz)
        assert_bitwise(got, want)
        assert got.iterations == cap

    @pytest.mark.parametrize("with_prev_active", [False, True])
    def test_warm_start_chain(self, with_prev_active):
        """Three windows of a sliding edge set, each warm-started from
        the previous window's oracle answer."""
        rng = np.random.default_rng(3)
        n = 400
        src = rng.integers(0, 80, 600)
        dst = rng.integers(0, 80, 600)
        prev_values = prev_active = None
        for lo in (0, 150, 300):
            graph = build_csr_from_edges(src[lo:lo + 300],
                                         dst[lo:lo + 300], n)
            mask = mask_of(n, graph.active_vertices())
            got, want = solve_both(
                graph, mask, prev_values=prev_values,
                prev_active=prev_active if with_prev_active else None,
            )
            assert_bitwise(got, want)
            prev_values, prev_active = want.values, mask

    def test_iteration_cap_strict_raises(self):
        graph = star(30, 0, [3, 7, 9, 12])
        mask = mask_of(30, [0, 3, 7, 9, 12])
        config = replace(CFG, max_iterations=2)
        got, want = solve_both(graph, mask, config)
        assert_bitwise(got, want)
        assert not got.converged and got.iterations == 2
        strict = replace(config, strict=True)
        for loop in (_power_iterate_graph, reference_power_iterate_graph):
            with pytest.raises(ConvergenceError):
                loop(graph, strict, mask, 1.0, None, None,
                     graph.out_degrees(), strict.damping, strict.alpha)
