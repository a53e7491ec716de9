"""The one propagation step that replaced the kernel-backend registry.

Every solve (SpMV, weighted, Katz, and an SpMM batch stepped through the
lockstep loop) runs one flat gather→reduce per power iteration over its
windows' packed active edges.  These tests
check that the kernels run back to back, or share a pooled workspace,
without disturbing one another, that the work statistics are recorded,
and that the removed ``backend``/``cache_budget`` knobs are rejected on
every surface.  Parity of each kernel with its masked oracle is
``tests/test_edge_compaction.py::TestBitwiseParity``.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.errors import ValidationError
from repro.pagerank import (
    PagerankConfig,
    WorkStats,
    Workspace,
    pagerank_window,
    pagerank_window_weighted,
    pagerank_windows_lockstep,
)
from tests.dense_mask_reference import dense_mask_pagerank
from tests.test_edge_compaction import (
    CFG,
    _views_regimes,
    assert_batch_matches,
    assert_solve_matches,
    make_view,
)


# ---------------------------------------------------------------------------
# the configuration surface
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_names(self):
        assert [f.name for f in fields(PagerankConfig)] == [
            "alpha", "tolerance", "max_iterations", "dangling", "strict",
        ]

    def test_config_validates(self):
        """The remaining fields are validated; the removed strategy
        knobs are not fields, so any value is a ``TypeError``."""
        with pytest.raises(ValidationError):
            PagerankConfig(alpha=1.0)
        with pytest.raises(ValidationError):
            PagerankConfig(dangling="spread")
        for kwargs in (
            {"backend": "numpy"}, {"backend": "auto"},
            {"cache_budget": 262_144},
        ):
            with pytest.raises(TypeError):
                PagerankConfig(**kwargs)

    def test_removed_pcpm_name_rejected_naming_legal_set(self, capsys):
        """``run`` has no strategy flags, and the ``backends`` subcommand
        is gone: argparse rejects it and names the legal subcommands."""
        from repro.cli import build_parser

        parser = build_parser()
        for flags in (["--backend", "pcpm"], ["--cache-budget", "4096"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(
                    ["run", "x.tsv", "--delta-days", "1", "--sw", "1"]
                    + flags
                )
            assert exc.value.code == 2
            assert flags[0] in capsys.readouterr().err
        with pytest.raises(SystemExit):
            parser.parse_args(["backends"])
        err = capsys.readouterr().err
        assert "'backends'" in err
        assert all(f"'{name}'" in err for name in ("run", "lint", "serve"))


# ---------------------------------------------------------------------------
# bitwise parity of the one step with the masked oracles
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("use_workspace", [False, True], ids=["owned", "ws"])
@pytest.mark.parametrize(
    "name,view", _views_regimes(), ids=[n for n, _ in _views_regimes()]
)
class TestBackendParity:
    def test_composes_with_edge_path(self, name, view, use_workspace):
        """The unweighted and weighted passes over the packed edges run
        back to back (through one workspace in the ``ws`` case) and each
        reproduces the masked pass over every stored event."""
        ws = Workspace() if use_workspace else None
        for weighted, kernel in (
            (False, pagerank_window), (True, pagerank_window_weighted),
            (False, pagerank_window),
        ):
            r = kernel(view, CFG, workspace=ws)
            want = dense_mask_pagerank(view, CFG, weighted=weighted)
            assert_solve_matches(r, want)


def test_backends_share_one_workspace():
    """SpMV, weighted and SpMM solves keyed into the same workspace must
    not corrupt one another's pooled buffers."""
    view = make_view(seed=47)
    views = [view] * 3
    spmv = pagerank_window(view, CFG)
    weighted = pagerank_window_weighted(view, CFG)
    batch = pagerank_windows_lockstep(views, CFG)
    ws = Workspace()
    for _ in range(2):
        assert_solve_matches(pagerank_window(view, CFG, workspace=ws), spmv)
        assert_batch_matches(
            pagerank_windows_lockstep(views, CFG, workspace=ws),
            batch.columns,
        )
        assert_solve_matches(
            pagerank_window_weighted(view, CFG, workspace=ws), weighted
        )


# ---------------------------------------------------------------------------
# work attribution
# ---------------------------------------------------------------------------
class TestWorkStats:
    def test_kernels_record_phase_seconds(self):
        """Every kernel times its propagation, a batch included; none has
        an edge-setup phase to time, so ``binning_seconds`` reads 0."""
        view = make_view(seed=59)
        for kernel in (pagerank_window, pagerank_window_weighted):
            r = kernel(view, CFG)
            assert r.work.binning_seconds == 0.0
            assert r.work.propagate_seconds > 0.0
        b = pagerank_windows_lockstep([view] * 2, CFG)
        assert b.work.binning_seconds == 0.0
        assert b.work.propagate_seconds > 0.0

    def test_merge_accumulates(self):
        a = WorkStats(binning_seconds=0.25, propagate_seconds=1.0)
        b = WorkStats(binning_seconds=0.5, propagate_seconds=0.5)
        a.merge(b)
        assert a.binning_seconds == 0.75
        assert a.propagate_seconds == 1.5
