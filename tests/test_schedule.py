"""Unit tests for the SpMM region schedule (Section 4.4)."""

import pytest

from repro.errors import ValidationError
from repro.models.schedule import SpmmBatch, regions, spmm_region_schedule


def all_windows(batches):
    out = []
    for b in batches:
        out.extend(b.windows)
    return out


class TestSequential:
    def test_order_and_predecessors(self):
        """One region is the whole graph: the sequential (SpMV) order."""
        assert regions(10, 4, 1) == [(10, 4)]
        batches = spmm_region_schedule(10, 4, 1)
        assert [b.windows for b in batches] == [[10], [11], [12], [13]]
        assert [b.predecessors for b in batches] == [
            [None], [10], [11], [12]
        ]


class TestRegionSchedule:
    def test_paper_example_pattern(self):
        """80 windows, vector length 8 -> first batch picks each region's
        head: G0, G10, G20, ... G70 (the paper's example)."""
        batches = spmm_region_schedule(0, 80, 8)
        assert batches[0].windows == [0, 10, 20, 30, 40, 50, 60, 70]
        assert batches[0].predecessors == [None] * 8
        assert batches[1].windows == [1, 11, 21, 31, 41, 51, 61, 71]
        assert batches[1].predecessors == [0, 10, 20, 30, 40, 50, 60, 70]

    def test_every_window_exactly_once(self):
        for n, L in [(8, 4), (10, 3), (7, 16), (1, 1), (100, 16)]:
            batches = spmm_region_schedule(5, n, L)
            assert sorted(all_windows(batches)) == list(range(5, 5 + n))

    def test_only_first_batch_cold(self):
        batches = spmm_region_schedule(0, 64, 8)
        assert all(p is None for p in batches[0].predecessors)
        for b in batches[1:]:
            assert all(p is not None for p in b.predecessors)

    def test_predecessor_solved_in_earlier_batch(self):
        batches = spmm_region_schedule(0, 50, 8)
        solved = set()
        for b in batches:
            for w, p in zip(b.windows, b.predecessors):
                if p is not None:
                    assert p in solved, (w, p)
            solved.update(b.windows)

    def test_uneven_regions(self):
        # 10 windows into 3 regions -> sizes 4, 3, 3
        assert regions(0, 10, 3) == [(0, 4), (4, 3), (7, 3)]
        batches = spmm_region_schedule(0, 10, 3)
        assert batches[0].windows == [0, 4, 7]
        assert batches[-1].width >= 1
        assert sorted(all_windows(batches)) == list(range(10))

    def test_vector_length_larger_than_windows(self):
        batches = spmm_region_schedule(0, 3, 16)
        assert len(batches) == 1
        assert batches[0].windows == [0, 1, 2]

    def test_rejects_bad_vector_length(self):
        with pytest.raises(ValidationError):
            spmm_region_schedule(0, 4, 0)

    def test_batch_width(self):
        b = SpmmBatch(windows=[1, 2], predecessors=[None, 1])
        assert b.width == 2
