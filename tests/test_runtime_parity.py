"""Cross-model parity through the unified runtime (ISSUE satellite).

Every model is driven through the same ``make_driver`` seam the CLI
uses, and the suite asserts the runtime-level guarantees:

* identical window geometry across offline / streaming / postmortem,
* rank vectors agree within tolerance across models,
* ``store_values=True`` and sink-only (``store_values=False``) runs emit
  identical vectors for every model,
* offline's parallel executors are bitwise-identical to serial,
* every model's rank store is queryable by the PR-1 ``QueryEngine``.

Since the vertex-program engine, every guarantee is per *program* too:
the ``--program`` dimension (pagerank / katz / kcore / components) runs
through the same drivers, so the suite asserts cross-model agreement
(exact for the integer k-core and component-size fixpoints, tolerance for
the float fixed points), bitwise cross-executor parity per program, a
Hypothesis property that selecting ``--program pagerank`` never changes
PageRank output versus a hand-rolled pre-engine chain, and that
non-PageRank stores are served unchanged by both the ``QueryEngine`` and
the sharded cluster.

The suite runs under ``REPRO_SANITIZE=1`` in CI (see the sanitize job);
locally the conftest session fixture honors the same variable.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.events import WindowSpec
from repro.models.postmortem import PostmortemOptions
from repro.pagerank import PagerankConfig
from repro.runtime import MODELS, PROGRAMS, make_driver
from repro.service.cluster import ShardCluster
from repro.service.engine import QueryEngine
from repro.service.store import RankStore, RankStoreWriter
from tests.conftest import random_events
from tests.dense_mask_reference import reference_chain

TOL = 1e-7

#: cross-model agreement per float program: PageRank's three models share
#: one fixed point to solver tolerance; Katz additionally crosses the
#: ordered segment-sum (temporal) vs reduceat (materialized) reduce
#: orders, so its bound is looser
PROGRAM_TOL = {"pagerank": 1e-7, "katz": 5e-6}


@pytest.fixture(scope="module")
def setup():
    events = random_events(n_vertices=60, n_events=1_200, seed=211)
    spec = WindowSpec.covering(events, delta=2_000, sw=800)
    cfg = PagerankConfig(tolerance=1e-11, max_iterations=400)
    return events, spec, cfg


@pytest.fixture(scope="module")
def runs(setup):
    events, spec, cfg = setup
    return {
        model: make_driver(model, events, spec, cfg).run(store_values=True)
        for model in MODELS
    }


class TestCrossModelParity:
    def test_identical_window_geometry(self, setup, runs):
        _, spec, _ = setup
        for model, run in runs.items():
            assert run.n_windows == spec.n_windows, model
            assert [w.window_index for w in run.windows] == list(
                range(spec.n_windows)
            ), model

    def test_values_agree_within_tolerance(self, runs):
        ref = runs["postmortem"]
        for model in ("offline", "streaming"):
            assert runs[model].max_difference(ref) < TOL, model

    def test_uniform_runtime_metadata(self, setup, runs):
        _, spec, _ = setup
        for model, run in runs.items():
            assert run.metadata["executor"] == "serial", model
            assert run.metadata["n_workers"] == 1, model
            assert run.metadata["n_windows"] == spec.n_windows, model

    @pytest.mark.parametrize("model", MODELS)
    def test_sink_only_matches_stored(self, setup, runs, model):
        """store_values=False + sink emits exactly the stored vectors."""
        events, spec, cfg = setup
        collected = {}

        def sink(w, values, meta):
            collected[w] = np.array(values, copy=True)

        run = make_driver(model, events, spec, cfg).run(
            store_values=False, value_sink=sink
        )
        assert sorted(collected) == list(range(spec.n_windows))
        for w in run.windows:
            assert w.values is None
        stored = runs[model].values_matrix()
        emitted = np.stack([collected[i] for i in range(spec.n_windows)])
        np.testing.assert_array_equal(emitted, stored)


class TestOfflineExecutorParity:
    @pytest.mark.parametrize("executor", ["shared"])
    def test_bitwise_identical_to_serial(self, setup, runs, executor):
        events, spec, cfg = setup
        run = make_driver(
            "offline", events, spec, cfg, executor=executor, n_workers=3
        ).run()
        serial = runs["offline"]
        assert run.metadata["executor"] == executor
        assert np.array_equal(run.values_matrix(), serial.values_matrix())

    def test_shared_sink_sees_every_window_once(self, setup, runs):
        events, spec, cfg = setup
        counter = {}
        collected = {}

        def sink(w, values, meta):
            counter[w] = counter.get(w, 0) + 1
            collected[w] = np.array(values, copy=True)

        make_driver(
            "offline", events, spec, cfg, executor="shared", n_workers=3
        ).run(store_values=False, value_sink=sink)
        assert counter == {i: 1 for i in range(spec.n_windows)}
        emitted = np.stack([collected[i] for i in range(spec.n_windows)])
        np.testing.assert_array_equal(emitted, runs["offline"].values_matrix())


class TestRankStoreParity:
    @pytest.mark.parametrize("model", MODELS)
    def test_store_queryable_per_model(self, setup, runs, model, tmp_path):
        """`--store` works for every model: sink-only run → QueryEngine."""
        events, spec, cfg = setup
        path = tmp_path / f"{model}.rankstore"
        writer = RankStoreWriter(
            path,
            n_windows=spec.n_windows,
            n_vertices=events.n_vertices,
            model=model,
            spec=spec,
            dtype=np.float64,
        )
        make_driver(model, events, spec, cfg).run(
            store_values=False, value_sink=writer.write_window
        )
        writer.close()

        store = RankStore(path)
        try:
            engine = QueryEngine(store)
            matrix = runs[model].values_matrix()
            # float64 store round-trips bitwise
            for w in range(spec.n_windows):
                np.testing.assert_array_equal(store.row(w), matrix[w])
            top = engine.top_k(0, k=5)
            expected = runs[model].window(0).top_vertices(5)
            assert [v for v, _ in top] == [v for v, _ in expected]
        finally:
            store.close()

    def test_offline_shared_store_matches_serial_store(
        self, setup, runs, tmp_path
    ):
        """offline --executor shared --store writes the serial store."""
        events, spec, cfg = setup
        path = tmp_path / "offline-shared.rankstore"
        writer = RankStoreWriter(
            path,
            n_windows=spec.n_windows,
            n_vertices=events.n_vertices,
            model="offline",
            spec=spec,
            dtype=np.float64,
        )
        make_driver(
            "offline", events, spec, cfg, executor="shared", n_workers=3
        ).run(store_values=False, value_sink=writer.write_window)
        writer.close()

        store = RankStore(path)
        try:
            read = np.stack(
                [np.array(store.row(w)) for w in range(spec.n_windows)]
            )
            np.testing.assert_array_equal(
                read, runs["offline"].values_matrix()
            )
        finally:
            store.close()


@pytest.fixture(scope="module")
def program_runs(setup):
    """Serial reference runs: every program under every model."""
    events, spec, cfg = setup
    return {
        program: {
            model: make_driver(
                model, events, spec, cfg, program=program
            ).run(store_values=True)
            for model in MODELS
        }
        for program in PROGRAMS
    }


class TestProgramCrossModelParity:
    """Every model agrees on every program, not just PageRank."""

    @pytest.mark.parametrize("program", PROGRAMS)
    def test_metadata_records_program(self, program_runs, program):
        for model, run in program_runs[program].items():
            assert run.metadata["program"] == program, model

    @pytest.mark.parametrize("program", PROGRAMS)
    def test_identical_window_geometry(self, setup, program_runs, program):
        _, spec, _ = setup
        for model, run in program_runs[program].items():
            assert [w.window_index for w in run.windows] == list(
                range(spec.n_windows)
            ), (program, model)

    @pytest.mark.parametrize("program", ["pagerank", "katz"])
    def test_float_programs_agree_within_tolerance(
        self, program_runs, program
    ):
        ref = program_runs[program]["postmortem"]
        for model in ("offline", "streaming"):
            diff = program_runs[program][model].max_difference(ref)
            assert diff < PROGRAM_TOL[program], (program, model, diff)

    @pytest.mark.parametrize("program", ["kcore", "components"])
    def test_integer_programs_exact_across_models(
        self, program_runs, program
    ):
        """Core numbers and component sizes are integers computed from
        identical undirected simple window graphs, and neither depends on
        vertex ids — cross-model parity is *exact*."""
        ref = program_runs[program]["postmortem"].values_matrix()
        for model in ("offline", "streaming"):
            got = program_runs[program][model].values_matrix()
            assert np.array_equal(got, ref), model


class TestProgramExecutorParity:
    """Executors shuffle whole chains across workers but never change a
    chain's solve sequence — so every program is bitwise-identical to its
    serial run under every executor, on both chained (postmortem) and
    independent-window (offline) models."""

    @pytest.mark.parametrize("program", PROGRAMS)
    @pytest.mark.parametrize("executor", ["shared"])
    def test_postmortem_bitwise(
        self, setup, program_runs, program, executor
    ):
        events, spec, cfg = setup
        # executor authority for the postmortem model sits in its options
        run = make_driver(
            "postmortem",
            events,
            spec,
            cfg,
            program=program,
            postmortem_options=PostmortemOptions(
                executor=executor, n_threads=3
            ),
        ).run()
        assert run.metadata["executor"] == executor
        assert np.array_equal(
            run.values_matrix(),
            program_runs[program]["postmortem"].values_matrix(),
        )

    @pytest.mark.parametrize("program", PROGRAMS)
    @pytest.mark.parametrize("executor", ["shared"])
    def test_offline_bitwise(self, setup, program_runs, program, executor):
        events, spec, cfg = setup
        run = make_driver(
            "offline", events, spec, cfg, executor=executor, n_workers=3,
            program=program,
        ).run()
        assert np.array_equal(
            run.values_matrix(),
            program_runs[program]["offline"].values_matrix(),
        )


class TestProgramFlagPreservesPagerank:
    """The acceptance property: threading ``--program`` through the stack
    must not perturb PageRank — the engine's solve sequence is
    call-for-call the pre-engine driver loop, so output is *bitwise*
    identical to a hand-rolled partial-initialization chain."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_multiwindows=st.integers(min_value=1, max_value=4),
        partial=st.booleans(),
    )
    def test_engine_bitwise_vs_prerefactor_chain(
        self, seed, n_multiwindows, partial
    ):
        events = random_events(n_vertices=30, n_events=300, seed=seed)
        spec = WindowSpec.covering(events, delta=1_500, sw=700)
        n_multiwindows = min(n_multiwindows, spec.n_windows)
        cfg = PagerankConfig(tolerance=1e-10, max_iterations=200)
        run = make_driver(
            "postmortem",
            events,
            spec,
            cfg,
            program="pagerank",
            postmortem_options=PostmortemOptions(
                n_multiwindows=n_multiwindows, partial_init=partial
            ),
        ).run()

        # the historic postmortem loop, hand-rolled: one pooled workspace
        # per multi-window graph, eq. 4 warm starts along the chain
        expected = reference_chain(
            events, spec, cfg, n_multiwindows, partial_init=partial,
            masked=False,
        ).values

        np.testing.assert_array_equal(run.values_matrix(), expected)


class TestProgramStoreServing:
    """The acceptance scenario for the non-PageRank programs: ``run
    --program katz/kcore/components --store`` produces a store the query
    tier serves unchanged — single-process ``QueryEngine`` and the sharded
    cluster alike."""

    @pytest.mark.parametrize("program", ["katz", "kcore", "components"])
    def test_store_served_by_engine_and_cluster(
        self, setup, program_runs, program, tmp_path
    ):
        events, spec, cfg = setup
        path = tmp_path / f"{program}.rankstore"
        writer = RankStoreWriter(
            path,
            n_windows=spec.n_windows,
            n_vertices=events.n_vertices,
            model="postmortem",
            spec=spec,
            dtype=np.float64,
            program=program,
        )
        make_driver("postmortem", events, spec, cfg, program=program).run(
            store_values=False, value_sink=writer.write_window
        )
        writer.close()

        store = RankStore(path)
        try:
            assert store.program == program
            assert store.info()["program"] == program
            matrix = program_runs[program]["postmortem"].values_matrix()
            for w in range(spec.n_windows):
                np.testing.assert_array_equal(store.row(w), matrix[w])

            engine = QueryEngine(store)
            expected = {
                w: engine.top_k(w, 5) for w in range(spec.n_windows)
            }
            with ShardCluster(str(path), n_shards=2, replicas=1) as cluster:
                assert cluster.info()["program"] == program
                for w in range(spec.n_windows):
                    resp = cluster.top_k(w, 5)
                    assert resp["ok"], resp
                    got = json.loads(json.dumps(resp["result"]))
                    assert got == json.loads(json.dumps(expected[w]))
        finally:
            store.close()
