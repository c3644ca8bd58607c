import io
import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import pytest

from conftest import assert_calls_counted_under_threads
from rewritebench.errors import ConfigError, ContractError, DomainError, StoreError
from rewritebench.models import CellKey, Document, Query, Regime, Strategy, TaskFamily
from rewritebench.rewrite import (Answer, RewriteCache, RewriteRecord, RewriterClient,
                                  RewriterEndpoint, Rewritten, audit_sample,
                                  rewrite_jobs, side_job, source_hash,
                                  strip_code_fences, write_records)
from rewritebench.templates import identity_catalog


def client(url: str = "mock://identity", retries: int = 0) -> RewriterClient:
    return RewriterClient(RewriterEndpoint(rewriter_id="rw", url=url,
                                           retries=retries, backoff_s=0.0))


def nl_qc_plan(family=TaskFamily.CODE_TO_CODE, regime=Regime.QC,
               rewriter_id="rw") -> CellKey:
    return CellKey(encoder_id="enc", task_id="t", rewriter_id=rewriter_id,
                   strategy=Strategy.NL, regime=regime, task_family=family)


DOCS = [Document(id=f"d{i}", text=f"def fn_{i}(): return {i}") for i in range(4)]
QUERIES = [Query(id=f"q{i}", text=f"find function {i}") for i in range(2)]


def rewrite_side(side, items, rw, cache=None, plan=None) -> Rewritten:
    """One job of *items*, a collection's *side*, through :func:`rewrite_jobs`,
    its error raised."""
    job = side_job(items, plan or nl_qc_plan(), rw, identity_catalog(), side)
    (done,) = rewrite_jobs([job], cache)
    if isinstance(done, Exception):
        raise done
    return done


class TestStripCodeFences:
    def test_removes_one_fence_pair(self):
        assert strip_code_fences("```python\nx = 1\n```") == "x = 1"

    def test_keeps_inner_content_untouched(self):
        body = "line1\n\nline2"
        assert strip_code_fences(f"\n\n```\n{body}\n```\n") == body

    def test_plain_text_only_loses_outer_blank_lines(self):
        assert strip_code_fences("\n  \nhello\nworld\n\n") == "hello\nworld"


class TestRewriteCorpus:
    def test_identity_mock_reproduces_corpus(self):
        done = rewrite_side("documents", DOCS, client())
        records = done.records
        assert done.texts == [d.text for d in DOCS]
        assert [r.source_id for r in records] == [d.id for d in DOCS]
        assert len(records) == len(DOCS)
        assert all(not r.failed for r in records)
        assert all(r.source_hash == source_hash(d.text)
                   for r, d in zip(records, DOCS))

    def test_baseline_plan_rejected(self):
        for side, items in (("documents", DOCS), ("queries", QUERIES)):
            with pytest.raises(ContractError, match="Baseline arm never rewrites"):
                side_job(items, CellKey(encoder_id="enc", task_id="t"), client(),
                         identity_catalog(), side)

    def test_mismatched_rewriter_rejected(self):
        plan = nl_qc_plan(rewriter_id="other")
        for side, items in (("documents", DOCS), ("queries", QUERIES)):
            with pytest.raises(ConfigError, match="cell expects rewriter 'other' but client is 'rw'"):
                side_job(items, plan, client(), identity_catalog(), side)

    def test_cache_hit_skips_endpoint(self, closing, tmp_path):
        cache = closing(RewriteCache(tmp_path / "rw.jsonl"))
        warm = client()
        rewrite_side("documents", DOCS, warm, cache)
        assert warm.call_count == len(DOCS)
        cold = client()
        done = rewrite_side("documents", DOCS, cold, cache)
        assert cold.call_count == 0
        assert done.texts == [d.text for d in DOCS]
        assert len(done.records) == len(DOCS)

    def test_failure_falls_back_and_flags(self):
        # one document trips the flaky endpoint; the rest rewrite normally
        flaky = client("mock://flaky?needle=fn_2")
        done = rewrite_side("documents", DOCS, flaky)
        assert len(done.texts) == len(DOCS)
        flagged = [r for r in done.records if r.failed]
        assert len(flagged) == 1
        assert flagged[0].source_id == "d2"
        assert done.texts[2] == DOCS[2].text  # fallback keeps the original

    def test_table_mock_maps_texts(self, tmp_path):
        table = {DOCS[0].text: "mapped output zero"}
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(table), encoding="utf-8")
        mapped = client(f"mock://table?file={table_path}")
        texts = rewrite_side("documents", DOCS, mapped).texts
        assert texts[0] == "mapped output zero"
        assert texts[1] == DOCS[1].text  # unmapped -> identity

    def test_table_is_read_on_the_first_request(self, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text("{not json", encoding="utf-8")
        lazy = client(f"mock://table?file={table_path}")  # does not parse it
        table_path.write_text(json.dumps({"prompt": "mapped"}), encoding="utf-8")
        assert lazy.complete("", "prompt", 16) == ("mapped", False)
        table_path.write_text("{not json", encoding="utf-8")
        assert lazy.complete("", "prompt", 16) == ("mapped", False)  # read once

    def test_unknown_mock_kind_is_config_error_at_construction(self):
        with pytest.raises(ConfigError, match="unknown mock rewriter kind 'tabel'"):
            client("mock://tabel")

    def test_table_missing_file_is_config_error_at_construction(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            client(f"mock://table?file={tmp_path / 'none.json'}")

    @pytest.mark.parametrize("body", ["{not json", "[1, 2]", "\xff\xfe"])
    def test_table_that_does_not_parse_fails_each_request(self, tmp_path, body):
        table_path = tmp_path / "table.json"
        table_path.write_bytes(body.encode("latin-1"))
        bad = client(f"mock://table?file={table_path}")
        for _ in range(2):
            with pytest.raises(ConfigError, match=f"{table_path}.*does not parse"):
                bad.complete("", "prompt", 16)
        ok = RewriterClient(RewriterEndpoint(rewriter_id="ok", url="mock://identity"))
        ok_plan = nl_qc_plan(rewriter_id="ok")
        done = rewrite_jobs([side_job(DOCS, nl_qc_plan(), bad, identity_catalog(), "documents"),
                             side_job(DOCS, ok_plan, ok, identity_catalog(), "documents")])
        assert isinstance(done[0], ConfigError)
        assert isinstance(done[1], Rewritten)

    def test_id_multiset_preserved(self):
        records = rewrite_side("documents", DOCS, client()).records
        assert sorted(r.source_id for r in records) == sorted(d.id for d in DOCS)

    def test_frozen_cache_makes_rewrite_pure(self, closing, tmp_path):
        cache = closing(RewriteCache(tmp_path / "rw.jsonl"))
        rewrite_side("documents", DOCS, client(), cache)
        a = rewrite_side("documents", DOCS, client(), RewriteCache(tmp_path / "rw.jsonl"))
        b = rewrite_side("documents", DOCS, client(), RewriteCache(tmp_path / "rw.jsonl"))
        assert a.texts == b.texts
        assert a.records == b.records


class TestRewriteJobs:
    def test_each_distinct_prompt_requested_once(self, closing, tmp_path):
        # identity templates serve both sides, so a query equal to a document
        # is the same prompt; duplicates inside a job count once too
        docs = DOCS + [Document(id="dup", text=DOCS[0].text)]
        queries = [Query(id="qd", text=DOCS[1].text)] + QUERIES
        rw = client()
        cache = closing(RewriteCache(tmp_path / "rw.jsonl"))
        with ThreadPoolExecutor(max_workers=4) as pool:
            done = rewrite_jobs(
                [side_job(docs, nl_qc_plan(), rw, identity_catalog(), "documents"),
                 side_job(queries, nl_qc_plan(), rw, identity_catalog(), "queries")],
                cache, pool.map)
        assert rw.call_count == len(DOCS) + len(QUERIES)
        assert [d.texts for d in done] == [[d.text for d in docs],
                                           [q.text for q in queries]]
        assert [r.source_id for r in done[0].records] == [d.id for d in docs]
        assert [r.source_id for r in done[1].records] == [q.id for q in queries]
        assert len(cache.path.read_text().splitlines()) == rw.call_count

    def test_error_fails_only_its_job(self, tmp_path):
        # a table that is not JSON raises a ConfigError, not an endpoint
        # error, on the first request
        table = tmp_path / "table.json"
        table.write_text("{not json", encoding="utf-8")
        good = side_job(DOCS, nl_qc_plan(), client(), identity_catalog(), "documents")
        bad = side_job(DOCS[:1], nl_qc_plan(), client(f"mock://table?file={table}"),
                       identity_catalog(), "documents")
        done = rewrite_jobs([bad, good])
        assert isinstance(done[0], ConfigError)
        assert isinstance(done[1], Rewritten)

    def test_failures_are_not_cached(self, closing, tmp_path):
        cache = closing(RewriteCache(tmp_path / "rw.jsonl"))
        rewrite_side("documents", DOCS, client("mock://flaky?needle=fn_2"), cache)
        retry = client("mock://flaky?needle=fn_2")
        reopened = closing(RewriteCache(tmp_path / "rw.jsonl"))
        done = rewrite_side("documents", DOCS, retry, reopened)
        assert retry.call_count == 1  # the failed item is asked again, the rest hit
        assert [r.failed for r in done.records] == [False, False, True, False]

    def test_a_put_is_read_by_a_fresh_cache_before_close(self, tmp_path):
        cache = RewriteCache(tmp_path / "cache" / "rw.jsonl")  # makes its directory
        done = rewrite_side("documents", DOCS[:2], client(), cache)
        cold = client()
        again = rewrite_side("documents", DOCS[:2], cold,
                             RewriteCache(tmp_path / "cache" / "rw.jsonl"))
        assert cold.call_count == 0 and again.records == done.records
        cache.close()

    def test_failed_row_in_an_old_cache_reads_as_a_miss(self, closing, tmp_path):
        # rows an older version wrote: whole records, failed or not, and no key
        path = tmp_path / "rw.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_records([(fh, "NL-QC")], [RewriteRecord(
                source_id=d.id, arm="NL-QC", source_hash=source_hash(d.text),
                output_text="" if i == 0 else "stale", rewriter_id="rw",
                template_id="identity-nl-codetocode", timestamp="2026-01-01T00:00:00+00:00",
                failed=i == 0) for i, d in enumerate(DOCS)])
        rw = client()
        done = rewrite_side("documents", DOCS, rw, closing(RewriteCache(path)))
        assert rw.call_count == len(DOCS)
        assert done.texts == [d.text for d in DOCS]

    def test_key_covers_the_template_and_the_rewriter_url(self, closing, tmp_path):
        cache = closing(RewriteCache(tmp_path / "rw.jsonl"))
        rewrite_side("documents", DOCS, client(), cache)
        identity = identity_catalog().resolve(Strategy.NL, TaskFamily.CODE_TO_CODE,
                                              "documents")
        for template, url in [(replace(identity, max_output_tokens=64), "mock://identity"),
                              (replace(identity, system_text="Be brief."), "mock://identity"),
                              (identity, "mock://identity?v=2")]:
            rw = client(url)
            job = side_job(DOCS, nl_qc_plan(), rw, identity_catalog(), "documents")
            rewrite_jobs([replace(job, template=template)], cache)
            assert rw.call_count == len(DOCS)


class TestRewriteQueries:
    def test_regime_c_rejected(self):
        plan = nl_qc_plan(regime=Regime.C)
        with pytest.raises(ContractError, match="NL-C arm never rewrites queries"):
            side_job(QUERIES, plan, client(), identity_catalog(), "queries")

    def test_identity_qc_keeps_queries(self):
        done = rewrite_side("queries", QUERIES, client())
        assert done.texts == [q.text for q in QUERIES]
        assert len(done.records) == len(QUERIES)

    def test_text_to_code_query_uses_table_mapping(self, tmp_path):
        table = {QUERIES[0].text: "def generated(): pass"}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        done = rewrite_side("queries", QUERIES, client(f"mock://table?file={path}"),
                            plan=nl_qc_plan(TaskFamily.TEXT_TO_CODE))
        assert done.texts[0] == "def generated(): pass"
        assert done.records[0].arm == "NL-QC"


class TestRewriteRecord:
    def test_empty_output_requires_failed_flag(self):
        with pytest.raises(DomainError):
            RewriteRecord(source_id="d", arm="NL-QC", source_hash="x",
                          output_text="", rewriter_id="rw", template_id="t",
                          timestamp="2026-01-01T00:00:00+00:00")

    def test_dict_roundtrip(self):
        rec = RewriteRecord(source_id="d", arm="NL-QC", source_hash="abc",
                            output_text="out", rewriter_id="rw", template_id="t",
                            timestamp="2026-01-01T00:00:00+00:00", truncated=True)
        fh = io.StringIO()
        write_records([(fh, rec.arm)], [rec])
        assert RewriteRecord(**json.loads(fh.getvalue())) == rec


_CHARS = ['[', ']', ',', ':', '"', '\\', '\n', '\t', '\x00', '\x7f', ' ', 'a', '7',
          '\u00e9', '\u65e5', '\u2028', '\U0001f600']


def _random_record(rng: random.Random) -> RewriteRecord:
    def text(n: int) -> str:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(n)))
    failed = rng.random() < 0.3
    return RewriteRecord(
        source_id=text(8), arm=text(6), source_hash=text(8),
        output_text="" if failed and rng.random() < 0.5 else text(20) + "x",
        rewriter_id=text(6), template_id=text(6), timestamp=text(12),
        truncated=rng.random() < 0.3, failed=failed)


class TestRecordSerialiser:
    def test_write_records_equals_one_dumps_per_record(self):
        rng = random.Random(11)
        records = [_random_record(rng) for _ in range(3000)]
        files = {arm: io.StringIO() for arm in ("NL-QC", "NL-C", "\u00e9[,]\"")}
        write_records([(fh, arm) for arm, fh in files.items()], iter(records))
        for arm, fh in files.items():
            assert fh.getvalue() == "".join(
                json.dumps({**asdict(r), "arm": arm}, sort_keys=True,
                           ensure_ascii=False) + "\n" for r in records)

    def test_cache_line_is_the_key_and_its_answer(self, closing, tmp_path):
        rng = random.Random(3)
        answers = {f"k{i}": Answer(r.output_text, r.timestamp, r.truncated)
                   for i, r in enumerate(_random_record(rng) for _ in range(50))
                   if not r.failed}
        cache = closing(RewriteCache(tmp_path / "rw.jsonl"))
        for key, answer in answers.items():
            cache.put(key, answer)
        assert (tmp_path / "rw.jsonl").read_text(encoding="utf-8") == "".join(
            json.dumps({"key": key, "output_text": a.output_text, "timestamp": a.timestamp,
                        "truncated": a.truncated}, sort_keys=True, ensure_ascii=False) + "\n"
            for key, a in answers.items())
        reopened = RewriteCache(tmp_path / "rw.jsonl")
        assert {key: reopened.get(key) for key in answers} == answers


class TestAuditSample:
    def _records(self, n: int) -> list[RewriteRecord]:
        return [RewriteRecord(source_id=f"d{i:03d}", arm="NL-QC",
                              source_hash=f"h{i}", output_text=f"out {i}",
                              rewriter_id="rw", template_id="t",
                              timestamp="2026-01-01T00:00:00+00:00")
                for i in range(n)]

    def _sources(self, n: int) -> dict[str, str]:
        return {f"d{i:03d}": f"src {i}" for i in range(n)}

    def test_full_sample_ordered_by_id(self):
        records = self._records(5)
        out = audit_sample(records, self._sources(5), 5, seed=1)
        assert [i.source_id for i in out] == [f"d{i:03d}" for i in range(5)]
        assert out[0].source_text == "src 0"

    def test_same_seed_same_sample(self):
        records = self._records(100)
        a = audit_sample(records, self._sources(100), 10, seed=42)
        b = audit_sample(records, self._sources(100), 10, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        records = self._records(100)
        samples = {tuple(i.source_id for i in
                         audit_sample(records, self._sources(100), 10, seed=s))
                   for s in range(8)}
        assert len(samples) > 1

    def test_empty_records_rejected(self):
        with pytest.raises(DomainError):
            audit_sample([], {}, 0, seed=0)

    def test_oversized_sample_rejected(self):
        with pytest.raises(DomainError):
            audit_sample(self._records(3), self._sources(3), 4, seed=0)


class TestTornRewriteCache:
    def _warm(self, path):
        cache = RewriteCache(path)
        rewrite_side("documents", DOCS, client(), cache)
        cache.close()

    def test_torn_last_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "rewrites.jsonl"
        self._warm(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"arm": "NL-QC", "failed": false, "output_te')
        cache = RewriteCache(path)
        assert cache.torn_lines == 1
        cold = client()
        rewrite_side("documents", DOCS, cold, cache)
        assert cold.call_count == 0

    def test_append_after_torn_tail_keeps_file_readable(self, closing, tmp_path):
        path = tmp_path / "rewrites.jsonl"
        self._warm(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"arm": "NL')
        extra = [Document(id="d9", text="def fn_9(): return 9")]
        rewrite_side("documents", extra, client(), closing(RewriteCache(path)))
        reopened = RewriteCache(path)
        assert reopened.torn_lines == 0
        cold = client()
        rewrite_side("documents", DOCS + extra, cold, reopened)
        assert cold.call_count == 0

    def test_malformed_inner_line_still_raises(self, tmp_path):
        path = tmp_path / "rewrites.jsonl"
        self._warm(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0], lines[1][:12]] + lines[2:]) + "\n",
                        encoding="utf-8")
        with pytest.raises(StoreError, match="line 2"):
            RewriteCache(path)


def test_call_count_is_exact_under_threads():
    assert_calls_counted_under_threads(
        client(), lambda c, i: c.complete("", f"prompt {i}", 16))
