"""repro.lint: per-rule fixtures, suppression, reporters, CLI, meta-lint.

Each rule gets at least one positive fixture (the violation fires) and one
negative fixture (the compliant variant stays silent).  Fixture paths are
chosen to hit each rule's scope (e.g. ``service/``); the meta-test at the
bottom asserts the real source tree lints clean, which is what keeps the
CI gate honest.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.lint import (
    ALL_RULES,
    JSON_SCHEMA_VERSION,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_descriptions,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def rules_of(source: str, path: str, **kw):
    return [f.rule for f in lint_source(textwrap.dedent(source), path, **kw)]


# ----------------------------------------------------------------------
# rule 1: mmap-escape
# ----------------------------------------------------------------------
class TestMmapEscape:
    def test_returning_mmap_slice_fires(self):
        src = """
            import numpy as np

            class Store:
                def __init__(self, path):
                    self.matrix = np.memmap(path, mode="r", shape=(4, 4))

                def row(self, i):
                    return self.matrix[i]
        """
        assert rules_of(src, "service/fixture.py") == ["mmap-escape"]

    def test_returning_module_level_mmap_fires(self):
        src = """
            import numpy as np
            mm = np.memmap("x.bin", mode="r")

            def head():
                return mm[:10]
        """
        assert rules_of(src, "utils/fixture.py") == ["mmap-escape"]

    def test_unsafe_wrapper_call_fires(self):
        src = """
            import numpy as np

            def publish(freeze):
                mm = np.memmap("x.bin", mode="r")
                return freeze(mm[0])
        """
        assert rules_of(src, "service/fixture.py") == ["mmap-escape"]

    def test_copy_is_clean(self):
        src = """
            import numpy as np

            class Store:
                def __init__(self, path):
                    self.matrix = np.memmap(path, mode="r", shape=(4, 4))

                def row(self, i):
                    return np.array(self.matrix[i], copy=True)

                def row2(self, i):
                    return self.matrix[i].copy()
        """
        assert rules_of(src, "service/fixture.py") == []

    def test_out_of_scope_path_skipped(self):
        src = """
            import numpy as np
            mm = np.memmap("x.bin", mode="r")

            def head():
                return mm[:10]
        """
        assert rules_of(src, "programs/fixture.py") == []

    def test_shared_view_escape_fires(self):
        src = """
            def structure(arena):
                col = arena.shared_view("in_col")
                return col
        """
        assert rules_of(src, "parallel/fixture.py") == ["mmap-escape"]

    def test_direct_shared_view_return_fires(self):
        src = """
            def structure(arena):
                return arena.shared_view("in_col")
        """
        assert rules_of(src, "parallel/fixture.py") == ["mmap-escape"]

    def test_shared_view_slice_escape_fires(self):
        src = """
            def head(arena):
                col = arena.shared_view("in_col")
                return col[:10]
        """
        assert rules_of(src, "service/fixture.py") == ["mmap-escape"]

    def test_shared_view_copy_is_clean(self):
        src = """
            import numpy as np

            def structure(arena):
                col = arena.shared_view("in_col")
                return np.array(col, copy=True)
        """
        assert rules_of(src, "parallel/fixture.py") == []


# ----------------------------------------------------------------------
# rule 2: lock-discipline
# ----------------------------------------------------------------------
LOCK_MIXED = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def increment(self):
            with self._lock:
                self.count += 1

        def reset(self):
            self.count = 0
"""


class TestLockDiscipline:
    def test_mixed_writes_fire(self):
        findings = lint_source(textwrap.dedent(LOCK_MIXED), "service/f.py")
        assert [f.rule for f in findings] == ["lock-discipline"]
        assert "self.count" in findings[0].message

    def test_consistent_locking_is_clean(self):
        src = """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def increment(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    with self._lock:
                        self.count = 0
        """
        assert rules_of(src, "service/f.py") == []

    def test_init_writes_do_not_count_as_unlocked(self):
        src = """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = "new"

                def update(self):
                    with self._lock:
                        self.state = "running"
        """
        assert rules_of(src, "service/f.py") == []

    def test_module_without_threading_skipped(self):
        src = LOCK_MIXED.replace("import threading", "import os")
        assert rules_of(src, "service/f.py") == []

    def test_sanitize_make_lock_module_is_checked(self):
        src = LOCK_MIXED.replace(
            "import threading",
            "from repro.sanitize import make_lock",
        )
        assert rules_of(src, "service/f.py") == ["lock-discipline"]


# ----------------------------------------------------------------------
# rule 3: lock-blocking-call
# ----------------------------------------------------------------------
class TestLockBlockingCall:
    def test_join_under_lock_fires(self):
        src = """
            import threading

            def stop(lock, worker):
                with lock:
                    worker.join()
        """
        assert rules_of(src, "service/f.py") == ["lock-blocking-call"]

    def test_future_result_under_lock_fires(self):
        src = """
            import threading

            def wait(self_lock, future):
                with self_lock:
                    return future.result(timeout=5)
        """
        assert rules_of(src, "service/f.py") == ["lock-blocking-call"]

    def test_join_after_release_is_clean(self):
        src = """
            import threading

            def stop(lock, worker):
                with lock:
                    stopped = True
                worker.join()
        """
        assert rules_of(src, "service/f.py") == []

    def test_non_lock_context_is_clean(self):
        src = """
            import threading

            def read(path, worker):
                with open(path) as f:
                    worker.join()
                    return f.read()
        """
        assert rules_of(src, "service/f.py") == []


# ----------------------------------------------------------------------
# rule 4: unseeded-rng
# ----------------------------------------------------------------------
class TestUnseededRng:
    def test_legacy_global_rng_fires(self):
        src = """
            import numpy as np
            values = np.random.rand(10)
        """
        assert rules_of(src, "benchmarks/bench_f.py") == ["unseeded-rng"]

    def test_seedless_default_rng_fires(self):
        src = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert rules_of(src, "programs/f.py") == ["unseeded-rng"]

    def test_none_seed_fires(self):
        src = """
            import numpy as np
            rng = np.random.default_rng(None)
        """
        assert rules_of(src, "pagerank/f.py") == ["unseeded-rng"]

    def test_seeded_generator_is_clean(self):
        src = """
            import numpy as np
            rng = np.random.default_rng(42)
            other = np.random.default_rng(seed_param)
        """
        assert rules_of(src, "benchmarks/bench_f.py") == []

    def test_out_of_scope_path_skipped(self):
        src = """
            import numpy as np
            values = np.random.rand(10)
        """
        assert rules_of(src, "analysis/f.py") == []


# ----------------------------------------------------------------------
# rule 5: missing-dtype
# ----------------------------------------------------------------------
class TestMissingDtype:
    def test_zeros_without_dtype_fires(self):
        src = """
            import numpy as np
            x = np.zeros(100)
        """
        assert rules_of(src, "pagerank/spmv.py") == ["missing-dtype"]

    def test_full_without_dtype_fires(self):
        src = """
            import numpy as np
            x = np.full(8, np.inf)
        """
        assert rules_of(src, "programs/katz.py") == ["missing-dtype"]

    def test_keyword_and_positional_dtype_are_clean(self):
        src = """
            import numpy as np
            a = np.zeros(100, dtype=np.float64)
            b = np.zeros(100, np.float64)
            c = np.full(8, np.inf, dtype=np.float64)
            d = np.zeros_like(a)
        """
        assert rules_of(src, "pagerank/spmv.py") == []

    def test_out_of_scope_path_skipped(self):
        src = """
            import numpy as np
            x = np.zeros(100)
        """
        assert rules_of(src, "service/f.py") == []


# ----------------------------------------------------------------------
# rule 6: csr-python-loop
# ----------------------------------------------------------------------
class TestCsrPythonLoop:
    def test_range_over_len_fires(self):
        src = """
            def total_degree(rowA):
                total = 0
                for i in range(len(rowA)):
                    total += rowA[i]
                return total
        """
        assert rules_of(src, "programs/f.py") == ["csr-python-loop"]

    def test_range_over_size_fires(self):
        src = """
            def scan(indptr):
                for i in range(indptr.size):
                    yield indptr[i]
        """
        assert rules_of(src, "pagerank/f.py") == ["csr-python-loop"]

    def test_direct_iteration_fires(self):
        src = """
            def walk(graph):
                for c in graph.col:
                    print(c)
        """
        assert rules_of(src, "graph/f.py") == ["csr-python-loop"]

    def test_vectorized_and_non_csr_loops_are_clean(self):
        src = """
            import numpy as np

            def vectorized(rowA):
                return np.add.reduceat(rowA, [0])

            def window_loop(windows):
                for w in range(len(windows)):
                    yield windows[w]
        """
        assert rules_of(src, "programs/f.py") == []


# ----------------------------------------------------------------------
# rule 7: silent-except
# ----------------------------------------------------------------------
class TestSilentExcept:
    def test_swallowed_exception_fires(self):
        src = """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
        """
        assert rules_of(src, "streaming/driver.py") == ["silent-except"]

    def test_bare_except_fires(self):
        src = """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
        """
        assert rules_of(src, "anywhere.py") == ["silent-except"]

    def test_handled_exception_is_clean(self):
        src = """
            import logging

            def load(path):
                try:
                    return open(path).read()
                except OSError as exc:
                    logging.warning("load failed: %s", exc)
                    return None
        """
        assert rules_of(src, "streaming/driver.py") == []


# ----------------------------------------------------------------------
# rule 8: mutable-default
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_mutable_default_argument_fires(self):
        src = """
            def collect(item, acc=[]):
                acc.append(item)
                return acc
        """
        assert rules_of(src, "anywhere.py") == ["mutable-default"]

    def test_module_level_lowercase_mutable_fires(self):
        src = """
            registry = {}
        """
        assert rules_of(src, "anywhere.py") == ["mutable-default"]

    def test_constants_and_none_defaults_are_clean(self):
        src = """
            REGISTRY = {}
            __all__ = ["collect"]

            def collect(item, acc=None):
                acc = [] if acc is None else acc
                acc.append(item)
                return acc
        """
        assert rules_of(src, "anywhere.py") == []


# ----------------------------------------------------------------------
# engine behaviour: suppression, selection, parse errors
# ----------------------------------------------------------------------
class TestSuppression:
    SRC = """
        def collect(item, acc=[]):  # lint: disable=mutable-default
            return acc

        def collect2(item, acc=[]):
            return acc
    """

    def test_same_line_disable_suppresses_only_that_line(self):
        findings = lint_source(textwrap.dedent(self.SRC), "f.py")
        assert [f.rule for f in findings] == ["mutable-default"]
        assert findings[0].line == 5

    def test_line_above_disable(self):
        src = """
            # lint: disable=mutable-default — fixture accumulator
            def collect(item, acc=[]):
                return acc
        """
        assert rules_of(src, "f.py") == []

    def test_disable_all(self):
        src = """
            registry = {}  # lint: disable=all
        """
        assert rules_of(src, "f.py") == []

    def test_disabling_other_rule_does_not_suppress(self):
        src = """
            registry = {}  # lint: disable=silent-except
        """
        assert rules_of(src, "f.py") == ["mutable-default"]


class TestSelection:
    SRC = """
        import numpy as np
        registry = {}
        x = np.zeros(4)
    """

    def test_select(self):
        got = rules_of(self.SRC, "pagerank/f.py", select=["missing-dtype"])
        assert got == ["missing-dtype"]

    def test_ignore(self):
        got = rules_of(self.SRC, "pagerank/f.py", ignore=["missing-dtype"])
        assert got == ["mutable-default"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValidationError, match="unknown lint rule"):
            lint_source("x = 1", "f.py", select=["nope"])


class TestParseError:
    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n    pass", "f.py")
        assert [f.rule for f in findings] == ["parse-error"]
        assert findings[0].line >= 1


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
class TestReporters:
    def _report(self, tmp_path, source):
        f = tmp_path / "service" / "fixture.py"
        f.parent.mkdir()
        f.write_text(textwrap.dedent(source))
        return lint_paths([tmp_path])

    def test_json_schema(self, tmp_path):
        report = self._report(
            tmp_path,
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def locked(self):
                    with self._lock:
                        self.n += 1

                def racy(self):
                    self.n = 0
            """,
        )
        doc = json.loads(render_json(report))
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert doc["clean"] is False
        assert doc["files_checked"] == 1
        assert set(doc["rules"]) == {r.name for r in ALL_RULES}
        assert doc["summary"] == {"lock-discipline": 1}
        (finding,) = doc["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "lock-discipline"
        assert finding["path"].endswith("service/fixture.py")

    def test_text_report_names_rule_and_location(self, tmp_path):
        report = self._report(tmp_path, "registry = {}\n")
        text = render_text(report)
        assert "[mutable-default]" in text
        assert "fixture.py:1:0" in text

    def test_clean_report(self, tmp_path):
        report = self._report(tmp_path, "X = 1\n")
        assert report.clean
        assert "clean: 1 files checked" in render_text(report)
        assert json.loads(render_json(report))["clean"] is True


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_seeded_violation_exits_nonzero_and_names_site(self, tmp_path):
        bad = tmp_path / "pagerank" / "kernel.py"
        bad.parent.mkdir()
        bad.write_text("import numpy as np\nx = np.zeros(3)\n")
        out = io.StringIO()
        assert main(["lint", str(tmp_path)], out=out) == 1
        text = out.getvalue()
        assert "missing-dtype" in text
        assert "kernel.py:2:4" in text

    def test_clean_tree_exits_zero(self, tmp_path):
        good = tmp_path / "mod.py"
        good.write_text("VALUE = 1\n")
        out = io.StringIO()
        assert main(["lint", str(tmp_path)], out=out) == 0
        assert "clean" in out.getvalue()

    def test_json_format(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("registry = {}\n")
        out = io.StringIO()
        assert main(["lint", str(tmp_path), "--format", "json"], out=out) == 1
        doc = json.loads(out.getvalue())
        assert doc["summary"] == {"mutable-default": 1}

    def test_select_filters(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("registry = {}\n")
        out = io.StringIO()
        code = main(
            ["lint", str(tmp_path), "--select", "silent-except"], out=out
        )
        assert code == 0

    def test_missing_path_is_an_error(self, tmp_path):
        out = io.StringIO()
        assert main(["lint", str(tmp_path / "nope")], out=out) == 1

    def test_list_rules(self):
        out = io.StringIO()
        assert main(["lint", "--list-rules"], out=out) == 0
        text = out.getvalue()
        for rule in ALL_RULES:
            assert rule.name in text


# ----------------------------------------------------------------------
# the gate: this repository lints clean
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_rule_catalog_is_complete(self):
        assert len(ALL_RULES) == 8
        descriptions = rule_descriptions()
        assert set(descriptions) == {r.name for r in ALL_RULES}
        assert all(descriptions.values())

    def test_src_and_benchmarks_lint_clean(self):
        report = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]
        )
        assert report.files_checked > 80
        assert report.clean, "\n" + render_text(report)

    def test_scopes_cover_the_serving_federation(self):
        # scopes are path fragments, so service/ covers service/cluster/;
        # the shard workers hold shared_view matrices, which is exactly
        # the dangling-view shape mmap-escape exists for
        cluster_path = "src/repro/service/cluster/worker.py"
        applicable = {
            r.name for r in ALL_RULES if r.applies_to(cluster_path)
        }
        assert {"mmap-escape", "lock-discipline", "lock-blocking-call",
                "silent-except", "mutable-default"} <= applicable

    def test_scopes_cover_the_kernel_backends(self):
        # the lockstep propagation step and the engine that feeds it
        # hold the hottest allocation and loop sites in the tree, so the
        # dtype and CSR-loop rules must reach them, and the bench that
        # times the packed edge pass; the paths must exist, so a moved
        # kernel cannot silently drop out of scope
        for path in (
            "src/repro/pagerank/spmv.py",
            "src/repro/programs/engine.py",
            "benchmarks/bench_edge_compaction.py",
        ):
            assert (REPO_ROOT / path).is_file(), path
            applicable = {
                r.name for r in ALL_RULES if r.applies_to(path)
            }
            assert {"missing-dtype", "csr-python-loop"} <= applicable, path

    def test_scopes_cover_the_out_of_core_artifact(self):
        # graph/io hands out raw np.memmap views (the zero-copy contract
        # mmap-escape polices) and allocates the builder's scratch arrays
        # in the hottest construction passes (dtype drift there doubles
        # spill traffic), so both rules must reach it — and csr-python-loop
        # already covers it via graph/
        path = "src/repro/graph/io.py"
        applicable = {r.name for r in ALL_RULES if r.applies_to(path)}
        assert {"mmap-escape", "missing-dtype",
                "csr-python-loop"} <= applicable

    def test_scopes_cover_the_program_layer(self):
        # the vertex programs drive the hottest solve chains in the
        # tree (katz propagation, kcore peeling, component labelling) and
        # own their math, so the dtype, CSR-loop and RNG rules must reach
        # programs/ just like pagerank/
        for path in (
            "src/repro/programs/katz.py",
            "src/repro/programs/kcore.py",
            "src/repro/programs/components.py",
            "src/repro/programs/engine.py",
        ):
            applicable = {
                r.name for r in ALL_RULES if r.applies_to(path)
            }
            assert {
                "missing-dtype", "csr-python-loop", "unseeded-rng"
            } <= applicable, path
