"""Unit tests for the static CSR graph."""

import numpy as np
import pytest

from repro.errors import GraphBuildError
from repro.graph import CSRGraph, build_csr_from_edges


class TestBuild:
    def test_basic(self):
        g = build_csr_from_edges([0, 0, 1], [1, 2, 2], 3)
        assert g.n_vertices == 3
        assert g.n_edges == 3
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(1).tolist() == [2]
        assert g.neighbors(2).tolist() == []

    def test_dedup(self):
        g = build_csr_from_edges([0, 0, 0], [1, 1, 2], 3)
        assert g.n_edges == 2
        assert g.neighbors(0).tolist() == [1, 2]

    def test_no_dedup(self):
        g = build_csr_from_edges([0, 0], [1, 1], 2, dedup=False)
        assert g.n_edges == 2

    def test_adjacency_sorted(self):
        g = build_csr_from_edges([0, 0, 0], [5, 1, 3], 6)
        assert g.neighbors(0).tolist() == [1, 3, 5]

    def test_empty(self):
        g = build_csr_from_edges([], [], 4)
        assert g.n_edges == 0
        assert g.out_degrees().tolist() == [0, 0, 0, 0]

    def test_default_n_vertices(self):
        g = build_csr_from_edges([0, 7], [2, 3])
        assert g.n_vertices == 8

    def test_out_of_range(self):
        with pytest.raises(GraphBuildError):
            build_csr_from_edges([0, 5], [1, 1], 3)

    def test_rejects_vertex_count_past_fused_key(self):
        # the (src, dst) sort key src * n + dst overflows int64 past 2**31
        # vertices; rejected before the (n + 1)-entry indptr is allocated
        with pytest.raises(GraphBuildError, match="2147483648"):
            build_csr_from_edges([0], [1], 2**31 + 1)

    def test_fused_key_order_matches_lexsort(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 50, 400)
        dst = rng.integers(0, 50, 400)
        g = build_csr_from_edges(src, dst, 50, dedup=False)
        order = np.lexsort((dst, src))
        assert g.col.tolist() == dst[order].tolist()

    def test_invalid_indptr(self):
        with pytest.raises(GraphBuildError):
            CSRGraph(np.array([0, 1]), np.array([0]), 3)
        with pytest.raises(GraphBuildError):
            CSRGraph(np.array([0, 2]), np.array([0]), 1)


class TestQueries:
    def test_degrees(self):
        g = build_csr_from_edges([0, 0, 2], [1, 2, 0], 3)
        assert g.out_degrees().tolist() == [2, 0, 1]

    def test_has_edge(self):
        g = build_csr_from_edges([0, 1], [1, 2], 3)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert not g.has_edge(2, 2)

    def test_edges_roundtrip(self):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 20, 100)
        dst = rng.integers(0, 20, 100)
        g = build_csr_from_edges(src, dst, 20)
        s2, d2 = g.edges()
        g2 = build_csr_from_edges(s2, d2, 20)
        assert g == g2

    def test_transpose_inverts(self):
        g = build_csr_from_edges([0, 1, 2], [1, 2, 0], 3)
        tr = g.transpose()
        assert tr.neighbors(1).tolist() == [0]
        assert tr.neighbors(0).tolist() == [2]
        assert g.transpose().transpose() == g

    def test_transpose_preserves_in_neighbors(self):
        rng = np.random.default_rng(4)
        src = rng.integers(0, 15, 80)
        dst = rng.integers(0, 15, 80)
        g = build_csr_from_edges(src, dst, 15)
        tr = g.transpose()
        for v in range(15):
            s, d = g.edges()
            expected = sorted(set(s[d == v].tolist()))
            assert tr.neighbors(v).tolist() == expected

    def test_active_vertices(self):
        g = build_csr_from_edges([0, 3], [3, 5], 8)
        assert g.active_vertices().tolist() == [0, 3, 5]

    def test_to_scipy(self):
        g = build_csr_from_edges([0, 1], [1, 0], 2)
        m = g.to_scipy()
        assert m.shape == (2, 2)
        assert m[0, 1] == 1.0 and m[1, 0] == 1.0

    def test_not_hashable(self):
        g = build_csr_from_edges([0], [1], 2)
        with pytest.raises(TypeError):
            hash(g)
