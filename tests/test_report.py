"""Tests for the report collator and its CLI surface."""

import io

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.reporting import generate_report
from repro.reporting.report import ARTIFACT_ORDER


@pytest.fixture
def artifacts(tmp_path):
    (tmp_path / "fig5_models.txt").write_text("FIG5 CONTENT")
    (tmp_path / "table1_graphs.txt").write_text("TABLE1 CONTENT")
    (tmp_path / "custom_study.txt").write_text("CUSTOM CONTENT")
    return tmp_path


class TestGenerateReport:
    def test_contains_all_artifacts(self, artifacts):
        text = generate_report(artifacts)
        assert "FIG5 CONTENT" in text
        assert "TABLE1 CONTENT" in text
        assert "CUSTOM CONTENT" in text

    def test_paper_order_respected(self, artifacts):
        text = generate_report(artifacts)
        assert text.index("TABLE1") < text.index("FIG5")
        # unknown artifacts go last
        assert text.index("CUSTOM") > text.index("FIG5")

    def test_writes_file(self, artifacts, tmp_path):
        out = tmp_path / "report.md"
        generate_report(artifacts, report_path=out)
        assert out.read_text().startswith("# Reproduction report")

    def test_rejects_missing_dir(self, tmp_path):
        with pytest.raises(ValidationError):
            generate_report(tmp_path / "nope")

    def test_rejects_empty_dir(self, tmp_path):
        with pytest.raises(ValidationError):
            generate_report(tmp_path)

    def test_order_table_is_consistent(self):
        assert ARTIFACT_ORDER[0] == "table1_graphs"
        assert len(set(ARTIFACT_ORDER)) == len(ARTIFACT_ORDER)


class TestCliReport:
    def test_report_to_stdout(self, artifacts):
        out = io.StringIO()
        rc = main(["report", "--output-dir", str(artifacts)], out=out)
        assert rc == 0
        assert "FIG5 CONTENT" in out.getvalue()

    def test_report_to_file(self, artifacts, tmp_path):
        dest = tmp_path / "r.md"
        out = io.StringIO()
        rc = main(
            ["report", "--output-dir", str(artifacts), "--out", str(dest)],
            out=out,
        )
        assert rc == 0
        assert dest.exists()

    def test_report_missing_dir_fails(self, tmp_path):
        rc = main(
            ["report", "--output-dir", str(tmp_path / "none")],
            out=io.StringIO(),
        )
        assert rc == 1


class TestCliProgram:
    def test_run_program_subcommand(self, tmp_path):
        from repro.programs import PROGRAMS
        from repro.service import RankStore

        path = tmp_path / "e.tsv"
        main(
            ["generate", "askubuntu", "--scale", "0.05", "--out", str(path)],
            out=io.StringIO(),
        )
        for name in PROGRAMS:
            store = tmp_path / f"{name}.rankstore"
            out = io.StringIO()
            rc = main(
                [
                    "run", str(path),
                    "--delta-days", "180",
                    "--sw", "5184000",
                    "--program", name,
                    "--max-windows", "4",
                    "--store", str(store),
                ],
                out=out,
            )
            assert rc == 0, name
            assert name in out.getvalue()
            with RankStore(store) as opened:
                assert opened.info()["program"] == name
            rc = main(
                ["query", str(store), "top-k", "--window", "0", "-k", "3"],
                out=io.StringIO(),
            )
            assert rc == 0, name
