"""Unit tests for PagerankConfig and result containers."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.pagerank import PagerankConfig, PagerankResult, WorkStats
from repro.pagerank.result import LockstepResult


class TestConfig:
    def test_defaults(self):
        cfg = PagerankConfig()
        assert 0 < cfg.alpha < 1
        assert cfg.damping == pytest.approx(1 - cfg.alpha)
        assert cfg.dangling == "uniform"

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValidationError):
                PagerankConfig(alpha=alpha)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValidationError):
            PagerankConfig(tolerance=0)

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValidationError):
            PagerankConfig(max_iterations=0)

    def test_rejects_bad_dangling(self):
        with pytest.raises(ValidationError):
            PagerankConfig(dangling="teleport")

    def test_frozen(self):
        cfg = PagerankConfig()
        with pytest.raises(Exception):
            cfg.alpha = 0.5


class TestWorkStats:
    def test_merge(self):
        a = WorkStats(iterations=2, edge_traversals=10, vertex_ops=5)
        b = WorkStats(iterations=3, edge_traversals=20, vertex_ops=7)
        a.merge(b)
        assert a.iterations == 5
        assert a.edge_traversals == 30
        assert a.vertex_ops == 12

    def test_accumulate(self):
        total = WorkStats.accumulate(
            [WorkStats(iterations=1), WorkStats(iterations=4)]
        )
        assert total.iterations == 5


class TestResults:
    def test_total_mass(self):
        r = PagerankResult(
            values=np.array([0.25, 0.75]),
            iterations=3,
            converged=True,
            residual=0.0,
        )
        assert r.total_mass == pytest.approx(1.0)

    def test_batch_column_extraction(self):
        """A lockstep batch keeps one result per column, in input order,
        and merges the columns' work."""
        columns = [
            PagerankResult(np.array([0.1, 0.9]), 3, True, 1e-12,
                           WorkStats(iterations=3, edge_traversals=6)),
            PagerankResult(np.array([0.2, 0.8]), 5, False, 1e-3,
                           WorkStats(iterations=5, edge_traversals=20)),
        ]
        batch = LockstepResult(columns)
        col = batch.columns[1]
        assert col.values.tolist() == [0.2, 0.8]
        assert col.iterations == 5
        assert col.converged is False
        assert batch.work.iterations == 8
        assert batch.work.edge_traversals == 26
