"""Unit tests for event-set serialization."""

import pytest

from repro.errors import ValidationError
from repro.events import load_events_tsv, save_events_tsv
from tests.conftest import random_events


class TestTsv:
    def test_roundtrip(self, tmp_path):
        es = random_events(seed=11)
        path = tmp_path / "events.tsv"
        save_events_tsv(es, path)
        back = load_events_tsv(path, n_vertices=es.n_vertices)
        assert back == es

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "commented.tsv"
        path.write_text("# header\n0\t1\t5\n% other comment\n1\t0\t7\n")
        es = load_events_tsv(path)
        assert len(es) == 2
        assert es.time.tolist() == [5, 7]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing\n")
        es = load_events_tsv(path)
        assert len(es) == 0

    def test_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(ValidationError):
            load_events_tsv(path)
