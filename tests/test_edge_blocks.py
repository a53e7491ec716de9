"""Unit tests for the STINGER-like edge-block structure, and a
differential test of the block pool against the per-vertex-list oracle
(``tests/edge_block_reference.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.streaming.edge_blocks import EdgeBlockAdjacency
from tests.edge_block_reference import BlockListAdjacency


class TestEdgeBlock:
    """One block's append, overflow and compaction, read off the pool's
    rows (``_tail``, ``_fill``, ``_nbr``, ``_time``)."""

    def test_append_fills(self):
        adj = EdgeBlockAdjacency(2, block_size=4)
        adj.insert_batch(
            np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([10, 20, 30])
        )
        tail = adj._tail[0]
        assert adj.blocks_allocated == 1
        assert adj._fill[tail] == 3
        assert adj.block_size - adj._fill[tail] == 1  # space left
        assert adj._tail[1] == -1
        # the next entry tops up the same tail block
        adj.insert_batch(np.array([0]), np.array([1]), np.array([40]))
        assert adj._tail[0] == tail
        assert adj._fill[tail] == 4
        assert adj.blocks_allocated == 1
        adj.check_invariants()

    def test_append_overflow(self):
        adj = EdgeBlockAdjacency(2, block_size=2)
        adj.insert_batch(
            np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([1, 2, 3])
        )
        assert adj.blocks_allocated == 2
        rows = np.flatnonzero(adj._owner == 0)
        first = rows[np.argmin(adj._seq[rows])]
        assert adj._fill[first] == 2  # full: no space left
        assert adj._fill[adj._tail[0]] == 1
        assert adj._time[first].tolist() == [1, 2]
        adj.check_invariants()

    def test_compact_keep(self):
        # expiry compacts a block in place and keeps insertion order
        adj = EdgeBlockAdjacency(4, block_size=4)
        adj.insert_batch(
            np.array([0, 0, 0, 0]), np.array([1, 2, 3, 1]),
            np.array([10, 5, 30, 7]),
        )
        assert adj.expire_before(8) == 2
        tail = adj._tail[0]
        assert adj._fill[tail] == 2
        assert adj._nbr[tail, :2].tolist() == [1, 3]
        assert adj._time[tail, :2].tolist() == [10, 30]
        nbrs, times = adj.vertex_entries(0)
        assert nbrs.tolist() == [1, 3]
        assert times.tolist() == [10, 30]
        adj.check_invariants()


class TestAdjacency:
    def test_insert_and_degree(self):
        adj = EdgeBlockAdjacency(5, block_size=2)
        adj.insert_batch(
            np.array([0, 0, 0]), np.array([1, 2, 1]), np.array([1, 2, 3])
        )
        assert adj.n_entries == 3
        assert adj.out_degree(0) == 2  # distinct neighbors 1, 2
        assert adj.out_degree(1) == 0

    def test_blocks_allocated_on_overflow(self):
        adj = EdgeBlockAdjacency(2, block_size=2)
        adj.insert_batch(
            np.zeros(5, dtype=np.int64),
            np.ones(5, dtype=np.int64),
            np.arange(5),
        )
        assert adj.blocks_allocated == 3
        assert adj.capacity >= 3
        adj.check_invariants()

    def test_expire_before(self):
        adj = EdgeBlockAdjacency(3)
        adj.insert_batch(
            np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([5, 15, 25])
        )
        removed = adj.expire_before(10)
        assert removed == 1
        assert adj.n_entries == 2
        nbrs, times = adj.vertex_entries(0)
        assert times.tolist() == [15]
        adj.check_invariants()

    def test_expire_updates_min_time(self):
        adj = EdgeBlockAdjacency(2)
        adj.insert_batch(
            np.array([0, 0]), np.array([1, 1]), np.array([5, 50])
        )
        adj.expire_before(10)
        # expiring again with a cut below the new minimum touches nothing
        assert adj.expire_before(20) == 0 or adj.n_entries == 1
        adj.check_invariants()

    def test_expire_everything(self):
        adj = EdgeBlockAdjacency(2)
        adj.insert_batch(np.array([0]), np.array([1]), np.array([5]))
        assert adj.expire_before(100) == 1
        assert adj.n_entries == 0
        adj.check_invariants()

    def test_snapshot_dedups(self):
        adj = EdgeBlockAdjacency(4)
        adj.insert_batch(
            np.array([0, 0, 2]), np.array([1, 1, 3]), np.array([1, 2, 3])
        )
        g = adj.snapshot_csr()
        assert g.n_edges == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(2, 3)

    def test_snapshot_empty(self):
        adj = EdgeBlockAdjacency(3)
        g = adj.snapshot_csr()
        assert g.n_edges == 0

    def test_rejects_bad_batches(self):
        adj = EdgeBlockAdjacency(3)
        with pytest.raises(ValidationError):
            adj.insert_batch(np.array([0]), np.array([1, 2]), np.array([1]))
        with pytest.raises(ValidationError):
            adj.insert_batch(np.array([5]), np.array([1]), np.array([1]))
        with pytest.raises(ValidationError):
            adj.insert_batch(np.array([0]), np.array([9]), np.array([1]))

    def test_counters(self):
        adj = EdgeBlockAdjacency(3)
        adj.insert_batch(np.array([0, 1]), np.array([1, 2]), np.array([1, 2]))
        adj.expire_before(2)
        assert adj.entries_inserted == 2
        assert adj.entries_expired == 1

    def test_matches_reference_under_random_ops(self):
        """The structure's live entry multiset always equals a brute-force
        reference after arbitrary insert/expire interleavings."""
        rng = np.random.default_rng(71)
        adj = EdgeBlockAdjacency(10, block_size=3)
        reference = []  # list of (src, dst, t)
        t_clock = 0
        for step in range(30):
            n = int(rng.integers(1, 8))
            src = rng.integers(0, 10, n)
            dst = rng.integers(0, 10, n)
            t = t_clock + np.sort(rng.integers(0, 5, n))
            adj.insert_batch(src, dst, t)
            reference.extend(zip(src.tolist(), dst.tolist(), t.tolist()))
            t_clock += int(rng.integers(0, 4))
            if rng.random() < 0.5:
                cut = t_clock - int(rng.integers(0, 6))
                adj.expire_before(cut)
                reference = [e for e in reference if e[2] >= cut]
            adj.check_invariants()
            assert adj.n_entries == len(reference)

        got = []
        for u in range(10):
            nbrs, times = adj.vertex_entries(u)
            got.extend(zip([u] * nbrs.size, nbrs.tolist(), times.tolist()))
        assert sorted(got) == sorted(reference)

    def test_emptied_blocks_are_reused(self):
        adj = EdgeBlockAdjacency(3, block_size=2)
        adj.insert_batch(np.array([0, 0, 1]), np.array([1, 2, 2]),
                         np.array([1, 2, 3]))
        capacity = adj.capacity
        adj.expire_before(10)
        assert adj.n_entries == 0
        assert (adj._tail == -1).all()
        adj.insert_batch(np.array([2, 2]), np.array([0, 1]),
                         np.array([11, 12]))
        assert adj.capacity == capacity
        assert adj.blocks_allocated == 3
        assert adj.vertex_entries(2)[0].tolist() == [0, 1]
        adj.check_invariants()


N_VERTICES = 6


@st.composite
def operations(draw):
    """A random sequence of insert batches (unsorted times, repeated
    sources) and expiry cuts (backwards, to zero, past everything)."""
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            m = draw(st.integers(0, 12))
            entry = st.integers(0, N_VERTICES - 1)
            ops.append((
                "insert",
                draw(st.lists(entry, min_size=m, max_size=m)),
                draw(st.lists(entry, min_size=m, max_size=m)),
                draw(st.lists(st.integers(0, 60), min_size=m, max_size=m)),
            ))
        else:
            ops.append(("expire", draw(st.sampled_from(
                [0, 100, draw(st.integers(-5, 65))]
            ))))
    return ops


def _assert_same_state(pool, oracle):
    for u in range(N_VERTICES):
        got, want = pool.vertex_entries(u), oracle.vertex_entries(u)
        assert got[0].tolist() == want[0].tolist(), u
        assert got[1].tolist() == want[1].tolist(), u
    assert pool.n_entries == oracle.n_entries
    assert pool.entries_inserted == oracle.entries_inserted
    assert pool.entries_expired == oracle.entries_expired
    assert pool.blocks_allocated == oracle.blocks_allocated
    assert pool._min_time.tolist() == oracle._min_time.tolist()
    got_src, got_dst = pool.snapshot_arrays()
    want_src, want_dst = oracle.snapshot_arrays()
    assert got_src.tolist() == want_src.tolist()
    assert got_dst.tolist() == want_dst.tolist()
    assert pool.snapshot_csr() == oracle.snapshot_csr()


@given(operations(), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_pool_matches_block_list_oracle(ops, block_size):
    """After every operation the pool holds the oracle's entries in the
    oracle's order, with the oracle's counters and ageing cache."""
    pool = EdgeBlockAdjacency(N_VERTICES, block_size=block_size)
    oracle = BlockListAdjacency(N_VERTICES, block_size=block_size)
    for op in ops:
        if op[0] == "insert":
            batch = [np.array(a, dtype=np.int64) for a in op[1:]]
            pool.insert_batch(*batch)
            oracle.insert_batch(*batch)
        else:
            assert pool.expire_before(op[1]) == oracle.expire_before(op[1])
        pool.check_invariants()
        _assert_same_state(pool, oracle)
