"""Lint infrastructure: suppression spans, scoping, --explain, doc drift.

These are the edge cases of the *engine*, as opposed to the rules and
analyses themselves — a ``# lint: disable=`` above a decorator must reach
the ``def`` it decorates, a disable on the last line of a five-line call
must reach the call, nested packages must inherit a scope from any
ancestor path fragment, and the ``--explain`` text must stay identical
to the docs table so neither can drift.
"""

from __future__ import annotations

import ast
import io
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import ALL_RULES, lint_source, statement_spans
from repro.lint.analyses import ALL_ANALYSES
from repro.lint.core import Finding, filter_suppressed
from repro.lint.rules import MmapEscapeRule, UnseededRngRule

REPO_ROOT = Path(__file__).resolve().parents[1]


def spans_for(source: str):
    return statement_spans(ast.parse(textwrap.dedent(source)))


# ----------------------------------------------------------------------
# statement spans
# ----------------------------------------------------------------------
class TestStatementSpans:
    def test_multiline_simple_statement_spans_all_lines(self):
        spans = spans_for("""\
            value = compute(
                a,
                b,
            )
            """)
        assert (1, 4) in spans

    def test_decorated_def_span_starts_at_decorator(self):
        spans = spans_for("""\
            @retry
            @timeout(30)
            def fetch(
                url,
            ):
                return url
            """)
        # decorator line 1 through the multi-line header, stopping
        # before the body (line 6)
        assert (1, 5) in spans

    def test_compound_statement_spans_header_only(self):
        spans = spans_for("""\
            if condition:
                a = 1
                b = 2
            """)
        assert (1, 1) in spans
        assert not any(s == (1, 3) for s in spans)

    def test_nested_statements_each_get_a_span(self):
        spans = spans_for("""\
            class C:
                def m(self):
                    x = call(
                        1,
                    )
            """)
        assert (1, 1) in spans  # class header
        assert (2, 2) in spans  # def header
        assert (3, 5) in spans  # the multiline assign


# ----------------------------------------------------------------------
# suppression across spans
# ----------------------------------------------------------------------
class TestSuppressionSpans:
    def test_disable_on_last_line_of_multiline_statement(self):
        source = textwrap.dedent("""\
            def f():
                return np.random.rand(
                    10,
                )  # lint: disable=unseeded-rng — fixture noise
            """)
        assert lint_source(source, path="programs/fx.py") == []

    def test_disable_above_decorator_reaches_the_def(self):
        # mutable-default reports at the def line; the disable sits two
        # lines above it, on the line before the decorator
        source = textwrap.dedent("""\
            # lint: disable=mutable-default — sentinel list, never mutated
            @staticmethod
            def f(acc=[]):
                return acc
            """)
        assert lint_source(source, path="any/fx.py") == []

    def test_disable_on_decorator_line_reaches_the_def(self):
        source = textwrap.dedent("""\
            @staticmethod  # lint: disable=mutable-default — sentinel
            def f(acc=[]):
                return acc
            """)
        assert lint_source(source, path="any/fx.py") == []

    def test_disable_inside_body_does_not_blanket_the_header(self):
        # a disable on a body line must not reach a finding on the
        # compound statement's header
        source = textwrap.dedent("""\
            def f(acc=[]):
                x = 1  # lint: disable=mutable-default — wrong place
                return acc
            """)
        findings = lint_source(source, path="any/fx.py")
        assert [f.rule for f in findings] == ["mutable-default"]

    def test_disable_other_rule_does_not_suppress(self):
        source = textwrap.dedent("""\
            def f(acc=[]):  # lint: disable=unseeded-rng
                return acc
            """)
        findings = lint_source(source, path="any/fx.py")
        assert [f.rule for f in findings] == ["mutable-default"]

    def test_filter_suppressed_without_tree_is_line_based_only(self):
        # the disable covers its own line and the line below, no more
        source = "x = 1  # lint: disable=some-rule\ny = 2\nz = 3\n"
        f1 = Finding(path="p", line=1, col=0, rule="some-rule", message="m")
        f2 = Finding(path="p", line=2, col=0, rule="some-rule", message="m")
        f3 = Finding(path="p", line=3, col=0, rule="some-rule", message="m")
        kept = filter_suppressed([f1, f2, f3], source)
        assert kept == [f3]


# ----------------------------------------------------------------------
# scope inheritance
# ----------------------------------------------------------------------
class TestScopeInheritance:
    def test_scoped_rule_applies_to_nested_packages(self):
        # a scope fragment matches anywhere in the posix path, so new
        # sub-packages inherit their ancestors' rules automatically
        assert MmapEscapeRule.applies_to("src/repro/service/store.py")
        assert MmapEscapeRule.applies_to(
            "src/repro/service/cluster/deep/nested/shard.py"
        )
        assert not MmapEscapeRule.applies_to("src/repro/graphs/io.py")

    def test_scoped_rule_fires_in_nested_package_path(self):
        source = textwrap.dedent("""\
            import numpy as np


            def draw():
                return np.random.rand(4)
            """)
        nested = "src/repro/programs/experimental/sub/fx.py"
        outside = "src/repro/graphs/fx.py"
        assert [f.rule for f in lint_source(source, path=nested)] == [
            "unseeded-rng"
        ]
        assert lint_source(source, path=outside) == []
        assert UnseededRngRule.applies_to(nested)
        assert not UnseededRngRule.applies_to(outside)

    def test_unscoped_rules_apply_everywhere(self):
        unscoped = [r for r in ALL_RULES if not r.scopes]
        assert unscoped, "expected at least one unscoped rule"
        for rule in unscoped:
            assert rule.applies_to("anything/at/all.py")


# ----------------------------------------------------------------------
# --explain and the docs (anti-drift)
# ----------------------------------------------------------------------
def normalize(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


class TestExplain:
    def test_every_rule_and_analysis_has_motivation(self):
        for cls in list(ALL_RULES) + list(ALL_ANALYSES):
            assert cls.name, cls
            assert cls.description, cls.name
            assert cls.motivation, cls.name

    def test_explain_per_file_rule(self):
        out = io.StringIO()
        assert main(["lint", "--explain", "mutable-default"], out=out) == 0
        text = out.getvalue()
        assert text.startswith("mutable-default:")
        assert "Motivating bug:" in text
        assert "(whole-program" not in text

    def test_explain_analysis_mentions_deep(self):
        out = io.StringIO()
        assert main(["lint", "--explain", "lock-order"], out=out) == 0
        text = out.getvalue()
        assert "(whole-program, needs --deep)" in text
        assert "Motivating bug:" in text

    def test_explain_unknown_rule_fails(self, capsys):
        assert main(
            ["lint", "--explain", "no-such-rule"], out=io.StringIO()
        ) == 1
        assert "no-such-rule" in capsys.readouterr().err

    def test_explain_text_matches_docs_table(self):
        # the --explain text and the docs table render the same
        # motivation attribute, so neither can drift from the other
        docs = normalize(
            (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
        )
        for cls in list(ALL_RULES) + list(ALL_ANALYSES):
            assert normalize(cls.motivation) in docs, (
                f"motivation of {cls.name!r} not found in docs/linting.md"
            )

    def test_docs_name_every_rule_and_analysis(self):
        docs = (REPO_ROOT / "docs" / "linting.md").read_text(
            encoding="utf-8"
        )
        for cls in list(ALL_RULES) + list(ALL_ANALYSES):
            assert f"`{cls.name}`" in docs, cls.name


# ----------------------------------------------------------------------
# the CI typecheck gate, when mypy is available
# ----------------------------------------------------------------------
class TestTypecheck:
    def test_analysis_and_cluster_layers_are_mypy_clean(self):
        pytest.importorskip("mypy")
        from mypy import api as mypy_api

        stdout, stderr, status = mypy_api.run([
            str(REPO_ROOT / "src" / "repro" / "lint"),
            str(REPO_ROOT / "src" / "repro" / "service" / "cluster"),
        ])
        assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
