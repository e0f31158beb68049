"""Unit tests for the result extractor (harvest + decompose)."""

from repro.core import AttributeValue, Query, Record, Schema
from repro.crawler import LocalDatabase, ResultExtractor
from repro.server import QueryInterface, paginate, render_page

schema = Schema.of("title", "publisher", price={"queriable": False})


def make_page():
    matches = [
        Record.build(1, schema, title="a", publisher="orbit", price="9"),
        Record.build(2, schema, title="b", publisher="orbit", price="12"),
    ]
    return paginate(Query.equality("publisher", "orbit"), matches, 1, 10)


class TestDecompose:
    def test_only_queriable_values_survive(self):
        interface = QueryInterface(frozenset({"title", "publisher"}))
        extraction = ResultExtractor(interface, LocalDatabase().interner).extract(make_page())
        attributes = {value.attribute for value in extraction.candidate_values}
        assert attributes == {"title", "publisher"}

    def test_keyword_interface_keeps_everything(self):
        interface = QueryInterface.keyword_only()
        extraction = ResultExtractor(interface, LocalDatabase().interner).extract(make_page())
        attributes = {value.attribute for value in extraction.candidate_values}
        assert attributes == {"title", "publisher", "price"}

    def test_first_seen_order_no_duplicates(self):
        interface = QueryInterface(frozenset({"title", "publisher"}))
        extraction = ResultExtractor(interface, LocalDatabase().interner).extract(make_page())
        values = list(extraction.candidate_values)
        assert values == [
            AttributeValue("title", "a"),
            AttributeValue("publisher", "orbit"),
            AttributeValue("title", "b"),
        ]

    def test_records_passed_through(self):
        interface = QueryInterface(frozenset({"title"}))
        extraction = ResultExtractor(interface, LocalDatabase().interner).extract(make_page())
        assert [r.record_id for r in extraction.records] == [1, 2]


class TestXmlInput:
    def test_extracts_from_document(self):
        interface = QueryInterface(frozenset({"title", "publisher"}))
        document = render_page(make_page())
        extraction = ResultExtractor(interface, LocalDatabase().interner).extract(document)
        assert len(extraction.records) == 2
        assert AttributeValue("publisher", "orbit") in extraction.candidate_values

    def test_object_and_xml_paths_agree(self):
        interface = QueryInterface(frozenset({"title", "publisher"}))
        extractor = ResultExtractor(interface, LocalDatabase().interner)
        page = make_page()
        from_object = extractor.extract(page)
        from_xml = extractor.extract(render_page(page))
        assert from_object.candidate_values == from_xml.candidate_values
        assert [r.record_id for r in from_object.records] == [
            r.record_id for r in from_xml.records
        ]
