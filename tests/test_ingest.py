import json

import pytest

from conftest import make_collection, write_jsonl, write_qrels
from rewritebench.errors import IngestError
from rewritebench.ingest import ingest_collection
from rewritebench.retrieval import build_judgments


def scored_query_ids(col) -> list[str]:
    """The queries that NDCG scores against the collection's qrels."""
    judged = build_judgments([d.id for d in col.documents], col.qrels).queries
    return [q.id for q in col.queries if q.id in judged]


class TestHappyPath:
    def test_minimal_triple_counts(self, tmp_path):
        col = make_collection(
            tmp_path,
            docs=[{"_id": "d1", "text": "alpha"}, {"_id": "d2", "text": "beta"}],
            queries=[{"_id": "q1", "text": "alpha?"}],
            qrels=[("q1", "d1", 1)])
        assert (len(col.documents), len(col.queries), len(col.qrels)) == (2, 1, 1)
        assert col.report.warning_count == 0
        assert scored_query_ids(col) == ["q1"]

    def test_title_folded_once_with_newline(self, tmp_path):
        col = make_collection(
            tmp_path,
            docs=[{"_id": "d1", "text": "body text", "title": "Heading"}],
            queries=[{"_id": "q1", "text": "q"}],
            qrels=[("q1", "d1", 1)])
        assert col.documents[0].text == "Heading\nbody text"
        assert col.documents[0].title == "Heading"

    def test_header_line_autodetected(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [{"_id": "d1", "text": "x"}])
        queries = write_jsonl(tmp_path / "q.jsonl", [{"_id": "q1", "text": "y"}])
        qrels = write_qrels(tmp_path / "qr.tsv", [("q1", "d1", 2)], header=True)
        col = ingest_collection(corpus, queries, qrels)
        assert col.qrels == {"q1": {"d1": 2}}

    def test_order_preserving_and_deterministic(self, tmp_path):
        docs = [{"_id": f"d{i}", "text": f"text {i}"} for i in (3, 1, 2)]
        a = make_collection(tmp_path / "a", docs,
                            [{"_id": "q1", "text": "t"}], [("q1", "d3", 1)])
        b = make_collection(tmp_path / "b", docs,
                            [{"_id": "q1", "text": "t"}], [("q1", "d3", 1)])
        assert [d.id for d in a.documents] == ["d3", "d1", "d2"]
        assert a.documents == b.documents
        assert a.qrels == b.qrels


class TestFatalErrors:
    def test_duplicate_doc_id_names_offender(self, tmp_path):
        docs = [{"_id": "d1", "text": "a"}, {"_id": "d1", "text": "b"}]
        with pytest.raises(IngestError, match="'d1'"):
            make_collection(tmp_path, docs, [{"_id": "q1", "text": "t"}],
                            [("q1", "d1", 1)])

    def test_malformed_json_reports_line_and_offset(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"_id": "d1", "text": "ok"})
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        queries = write_jsonl(tmp_path / "q.jsonl", [{"_id": "q1", "text": "y"}])
        qrels = write_qrels(tmp_path / "qr.tsv", [("q1", "d1", 1)])
        with pytest.raises(IngestError) as err:
            ingest_collection(path, queries, qrels)
        assert err.value.line == 2
        assert err.value.offset == len(good) + 1

    @pytest.mark.parametrize("side, field", [("corpus", "_id"), ("corpus", "text"),
                                             ("corpus", "title"), ("queries", "_id"),
                                             ("queries", "text")])
    def test_a_string_that_does_not_encode_names_its_line(self, tmp_path, side, field):
        # the JSON escape "\ud800" decodes to a lone surrogate, which no
        # UTF-8 text can hold: it would crash the first hash of the text
        good = json.dumps({"_id": "x0", "text": "ok"})
        bad = {"_id": "x1", "text": "fine", field: "half \ud800 a pair"}
        files = {"corpus": tmp_path / "c.jsonl", "queries": tmp_path / "q.jsonl"}
        for name, path in files.items():
            rows = [good] + ([json.dumps(bad)] if name == side else [])
            path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        qrels = write_qrels(tmp_path / "qr.tsv", [("x0", "x0", 1)])
        with pytest.raises(IngestError, match=f"'{field}' does not encode as UTF-8") as err:
            ingest_collection(files["corpus"], files["queries"], qrels)
        assert (err.value.path, err.value.line, err.value.offset) == (
            str(files[side]), 2, len(good) + 1)

    def test_non_integer_grade_rejected(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [{"_id": "d1", "text": "x"}])
        queries = write_jsonl(tmp_path / "q.jsonl", [{"_id": "q1", "text": "y"}])
        qrels = tmp_path / "qr.tsv"
        qrels.write_text("q1\td1\t1.0\n", encoding="utf-8")
        with pytest.raises(IngestError, match="integer"):
            ingest_collection(corpus, queries, qrels)

    def test_negative_grade_rejected(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", [{"_id": "d1", "text": "x"}])
        queries = write_jsonl(tmp_path / "q.jsonl", [{"_id": "q1", "text": "y"}])
        qrels = write_qrels(tmp_path / "qr.tsv", [("q1", "d1", -1)])
        with pytest.raises(IngestError, match=">= 0"):
            ingest_collection(corpus, queries, qrels)


class TestWarnings:
    def test_dangling_qrels_kept_in_report_dropped_from_eval(self, tmp_path):
        col = make_collection(
            tmp_path,
            docs=[{"_id": "d1", "text": "a"}],
            queries=[{"_id": "q1", "text": "t"}],
            qrels=[("q1", "d1", 1), ("qX", "d1", 1)])
        assert col.report.dangling_qrels == [("qX", "d1")]
        assert col.report.warning_count == 1
        assert "qX" not in col.qrels
        assert scored_query_ids(col) == ["q1"]

    def test_empty_text_doc_dropped_with_warning(self, tmp_path):
        col = make_collection(
            tmp_path,
            docs=[{"_id": "d1", "text": "ok"}, {"_id": "d2", "text": "  "}],
            queries=[{"_id": "q1", "text": "t"}],
            qrels=[("q1", "d1", 1)])
        assert [d.id for d in col.documents] == ["d1"]
        assert col.report.empty_text_doc_ids == ["d2"]

    def test_query_without_positive_excluded_from_eval(self, tmp_path):
        col = make_collection(
            tmp_path,
            docs=[{"_id": "d1", "text": "a"}],
            queries=[{"_id": "q1", "text": "t"}, {"_id": "q2", "text": "u"}],
            qrels=[("q1", "d1", 1), ("q2", "d1", 0)])
        assert scored_query_ids(col) == ["q1"]
        assert col.report.queries_without_positives == ["q2"]

    def test_unknown_doc_ref_counted_but_kept(self, tmp_path):
        col = make_collection(
            tmp_path,
            docs=[{"_id": "d1", "text": "a"}],
            queries=[{"_id": "q1", "text": "t"}],
            qrels=[("q1", "d1", 1), ("q1", "dX", 2)])
        assert col.report.unknown_doc_refs == 1
        assert col.qrels["q1"] == {"d1": 1, "dX": 2}
