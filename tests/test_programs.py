"""The vertex-program layer (repro.programs).

Covers the registry, the first-class programs, and the bitwise contract:
PageRank routed through the engine is *bitwise-identical* to the historic
postmortem loop across kernels (spmv / spmm) × weighted — asserted against hand-rolled reference chains that replay the
pre-engine driver's solve sequence, once with the library kernels and
once with the masked oracles (``tests/dense_mask_reference.py``).
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.events import WindowSpec
from repro.graph import TemporalAdjacency
from repro.graph.csr import build_csr_from_edges
from repro.models.postmortem import PostmortemDriver, PostmortemOptions
from repro.pagerank import PagerankConfig
from repro.programs import (
    PROGRAMS,
    VertexProgram,
    make_program,
    resolve_program,
    validate_program_name,
)
from repro.programs.components import ComponentsProgram
from repro.programs.katz import KatzConfig, KatzProgram
from repro.programs.kcore import KCoreProgram
from repro.runtime import make_driver
from tests.conftest import random_events
from tests.dense_mask_reference import katz_window
from tests.dense_mask_reference import reference_chain as _reference_chain

VECTOR_LENGTH = 4
N_MULTIWINDOWS = 3


@pytest.fixture(scope="module")
def setup():
    events = random_events(n_vertices=50, n_events=900, seed=977)
    spec = WindowSpec.covering(events, delta=1_800, sw=750)
    return events, spec


class TestRegistry:
    def test_registered_names(self):
        assert PROGRAMS == ("pagerank", "katz", "kcore", "components")
        for name in PROGRAMS:
            assert validate_program_name(name) == name
            assert make_program(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            validate_program_name("betweenness")
        with pytest.raises(ValidationError):
            make_program("betweenness")

    def test_make_driver_validates_program(self):
        events = random_events(seed=3, n_events=60)
        spec = WindowSpec.covering(events, delta=2_000, sw=1_000)
        for model in ("offline", "streaming", "postmortem"):
            assert make_driver(
                model, events, spec, program="katz"
            ).program.name == "katz"
            with pytest.raises(ValidationError):
                make_driver(model, events, spec, program="betweenness")

    def test_weighted_only_for_pagerank(self):
        assert make_program("pagerank", weighted=True).weighted
        with pytest.raises(ValidationError):
            make_program("katz", weighted=True)
        with pytest.raises(ValidationError):
            resolve_program(KCoreProgram(), weighted=True)

    def test_resolve_normalizes(self):
        assert resolve_program(None).name == "pagerank"
        assert resolve_program("kcore").name == "kcore"
        program = KatzProgram()
        assert resolve_program(program) is program
        with pytest.raises(ValidationError):
            resolve_program(42)

    def test_programs_are_picklable(self):
        import pickle

        for name in PROGRAMS:
            program = make_program(name)
            clone = pickle.loads(pickle.dumps(program))
            assert clone.name == name

    def test_base_class_contract(self):
        base = VertexProgram()
        view = None
        with pytest.raises(NotImplementedError):
            base.init_window(view)
        with pytest.raises(NotImplementedError):
            base.solve_window(view)
        with pytest.raises(NotImplementedError):
            base.solve_batch([view], None)
        with pytest.raises(NotImplementedError):
            base.solve_graph(None, None)


def reference_chain(events, spec, cfg, reference="compacted", **kw):
    """The hand-rolled chain over this module's partition: ``"masked"``
    solves with the masked oracles, ``"compacted"`` with the library
    kernels (which iterate each window's packed active edges)."""
    return _reference_chain(
        events, spec, cfg, N_MULTIWINDOWS, vector_length=VECTOR_LENGTH,
        masked=reference == "masked", **kw,
    ).values


class TestEngineBitwiseGrid:
    """The tentpole acceptance criterion: PageRank through the engine is
    bitwise-identical to the historic driver loop and to the masked
    oracles, across kernels × weighted."""

    @pytest.mark.parametrize("kernel", ["spmv", "spmm"])
    @pytest.mark.parametrize("reference", ["masked", "compacted"])
    def test_engine_matches_reference(self, setup, kernel, reference):
        events, spec = setup
        cfg = PagerankConfig(tolerance=1e-10, max_iterations=300)
        run = PostmortemDriver(
            events,
            spec,
            cfg,
            PostmortemOptions(
                n_multiwindows=N_MULTIWINDOWS,
                kernel=kernel,
                vector_length=VECTOR_LENGTH,
            ),
        ).run()
        expected = reference_chain(
            events, spec, cfg, reference, kernel=kernel
        )
        np.testing.assert_array_equal(run.values_matrix(), expected)

    @pytest.mark.parametrize("reference", ["masked", "compacted"])
    def test_weighted_engine_matches_reference(self, setup, reference):
        events, spec = setup
        cfg = PagerankConfig(tolerance=1e-10, max_iterations=300)
        run = PostmortemDriver(
            events,
            spec,
            cfg,
            PostmortemOptions(
                n_multiwindows=N_MULTIWINDOWS, weighted=True
            ),
        ).run()
        expected = reference_chain(
            events, spec, cfg, reference, weighted=True
        )
        np.testing.assert_array_equal(run.values_matrix(), expected)

    def test_cold_chain_matches_reference(self, setup):
        events, spec = setup
        cfg = PagerankConfig(tolerance=1e-10, max_iterations=300)
        run = PostmortemDriver(
            events,
            spec,
            cfg,
            PostmortemOptions(
                n_multiwindows=N_MULTIWINDOWS, partial_init=False
            ),
        ).run()
        expected = reference_chain(
            events, spec, cfg, partial_init=False
        )
        np.testing.assert_array_equal(run.values_matrix(), expected)


class TestKatzProgram:
    def test_backend_kernel_matches_segment_sum(self, setup):
        """The program's solve (PageRank's window-local loop) and the
        reference reduceat kernel agree on the normalized fixed point
        (different summation orders)."""
        events, spec = setup
        adj = TemporalAdjacency.from_events(events)
        cfg = KatzConfig(tolerance=1e-12, max_iterations=500)
        for i in range(min(spec.n_windows, 4)):
            view = adj.window_view(spec.window(i))
            ours = KatzProgram(config=cfg).solve_window(view)
            legacy = katz_window(view, cfg)
            assert np.allclose(
                ours.values, legacy.values, atol=1e-9
            ), i

    def test_warm_start_converges_no_slower(self, setup):
        events, spec = setup
        adj = TemporalAdjacency.from_events(events)
        program = KatzProgram(config=KatzConfig(tolerance=1e-11))
        v0 = adj.window_view(spec.window(0))
        v1 = adj.window_view(spec.window(1))
        prev = program.solve_window(v0, program.init_window(v0))
        warm = program.solve_window(
            v1, program.warm_start(v1, v0, prev.values)
        )
        cold = program.solve_window(v1, program.init_window(v1))
        assert np.allclose(warm.values, cold.values, atol=1e-8)
        assert warm.iterations <= cold.iterations + 1

    def test_spmm_falls_back_for_weighted_like_programs(self, setup):
        """kcore has no batched kernel: kernel='spmm' must fall back to
        the sequential schedule, not crash, and match the spmv run."""
        events, spec = setup
        cfg = PagerankConfig()
        runs = {}
        for kernel in ("spmv", "spmm"):
            runs[kernel] = PostmortemDriver(
                events,
                spec,
                cfg,
                PostmortemOptions(
                    n_multiwindows=N_MULTIWINDOWS,
                    kernel=kernel,
                    vector_length=VECTOR_LENGTH,
                ),
                program="kcore",
            ).run()
        assert np.array_equal(
            runs["spmv"].values_matrix(), runs["spmm"].values_matrix()
        )


class TestKCoreProgram:
    def test_known_clique(self):
        # K4: every vertex has core number 3
        src, dst = [], []
        for i in range(4):
            for j in range(4):
                if i != j:
                    src.append(i)
                    dst.append(j)
        graph = build_csr_from_edges(
            np.array(src), np.array(dst), 4, dedup=True
        )
        program = KCoreProgram()
        active = np.ones(4, dtype=bool)
        pr = program.solve_graph(graph, active)
        assert pr.values.tolist() == [3.0, 3.0, 3.0, 3.0]
        assert pr.converged and pr.iterations == 0

    def test_not_iterative(self):
        program = KCoreProgram()
        # not iterative: the engine keeps it off the SpMM region schedule
        assert not program.iterative


class TestComponentsProgram:
    def test_two_components_and_self_loop(self):
        # a triangle 0-1-2, an edge 3-4, a self-loop on 5, 6 inactive
        graph = build_csr_from_edges(
            np.array([0, 1, 2, 3, 5]), np.array([1, 2, 0, 4, 5]), 7,
            dedup=True,
        )
        active = np.array([True] * 6 + [False])
        pr = ComponentsProgram().solve_graph(graph, active)
        assert pr.values.tolist() == [3.0, 3.0, 3.0, 2.0, 2.0, 1.0, 0.0]
        assert pr.converged and pr.iterations == 0


class TestWeightedValidation:
    def test_weighted_rejects_non_pagerank_program(self, setup):
        events, spec = setup
        with pytest.raises(ValidationError):
            PostmortemDriver(
                events,
                spec,
                PagerankConfig(),
                PostmortemOptions(weighted=True),
                program="katz",
            )
