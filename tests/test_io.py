"""Unit tests for persistence (JSON tables, domain tables, histories)."""

import json

import pytest

from repro import io
from repro.core import SchemaError
from repro.crawler import CrawlHistory
from repro.datasets import generate_ebay
from repro.domain import build_domain_table


class TestTableRoundtrip:
    def test_roundtrip_preserves_everything(self, books, tmp_path):
        path = tmp_path / "books.json"
        io.save_table(books, path)
        loaded = io.load_table(path)
        assert loaded.name == books.name
        assert len(loaded) == len(books)
        assert loaded.schema.names == books.schema.names
        assert loaded.schema.queriable == books.schema.queriable
        for record in books:
            twin = loaded.get(record.record_id)
            assert twin.fields == record.fields

    def test_gzip_roundtrip(self, books, tmp_path):
        path = tmp_path / "books.json.gz"
        io.save_table(books, path)
        assert io.load_table(path).record_ids() == books.record_ids()

    def test_indexes_rebuilt(self, books, tmp_path):
        path = tmp_path / "books.json"
        io.save_table(books, path)
        loaded = io.load_table(path)
        assert loaded.match_equality("publisher", "orbit") == books.match_equality(
            "publisher", "orbit"
        )
        assert loaded.match_keyword("knuth") == books.match_keyword("knuth")

    def test_generated_dataset_roundtrip(self, tmp_path):
        table = generate_ebay(150, seed=9)
        path = tmp_path / "ebay.json"
        io.save_table(table, path)
        loaded = io.load_table(path)
        assert loaded.num_distinct_values() == table.num_distinct_values()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(io.PersistenceError, match="expected format"):
            io.load_table(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(io.PersistenceError):
            io.load_table(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(io.PersistenceError):
            io.load_table(tmp_path / "nope.json")

    @pytest.mark.parametrize("drop", ["records", "id", "fields"])
    def test_missing_key_names_the_path(self, books, tmp_path, drop):
        payload = io.table_to_dict(books)
        if drop == "records":
            del payload["records"]
        else:
            del payload["records"][0][drop]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(io.PersistenceError, match=f"partial.json.*'{drop}'"):
            io.load_table(path)

    def test_several_values_on_single_valued_attribute_rejected(
        self, books, tmp_path
    ):
        payload = io.table_to_dict(books)
        payload["records"][0]["fields"]["title"] = ["one", "two"]
        path = tmp_path / "double.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="single-valued"):
            io.load_table(path)


class TestDomainTableRoundtrip:
    def test_roundtrip(self, books, tmp_path):
        table = build_domain_table(books, attributes=["publisher", "author"])
        path = tmp_path / "dt.json"
        io.save_domain_table(table, path)
        loaded = io.load_domain_table(path)
        assert loaded.size == table.size
        assert len(loaded) == len(table)
        for value in table.values():
            assert loaded.count(value) == table.count(value)
            assert loaded.postings(value) == table.postings(value)

    def test_format_check(self, books, tmp_path):
        table = build_domain_table(books)
        path = tmp_path / "dt.json"
        io.save_table(books, path)  # wrong artifact kind
        with pytest.raises(io.PersistenceError):
            io.load_domain_table(path)
        io.save_domain_table(table, path)
        with pytest.raises(io.PersistenceError):
            io.load_table(path)


class TestHistoryCsv:
    def test_roundtrip(self, tmp_path):
        history = CrawlHistory()
        history.append(0, 0)
        history.append(5, 12)
        history.append(9, 30)
        path = tmp_path / "history.csv"
        io.history_to_csv(history, path)
        loaded = io.history_from_csv(path)
        assert loaded.points == history.points

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(io.PersistenceError):
            io.history_from_csv(path)
