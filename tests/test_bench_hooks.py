"""The names the benchmark in ``perfbench/`` reaches into the program by.

Its hard checks fail when an endpoint client is not wrapped or when its
NDCG oracle cannot read a run's vectors back, so a refactor that renames
one of these would fail the benchmark without failing a test here."""

import importlib.util
import sys
from pathlib import Path

import rewritebench.pipeline
from rewritebench.embed import (EmbeddingCache, EncoderClient, EncoderEndpoint,
                                embed_texts, fetch_missing)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans(monkeypatch):
    """``perfbench/spans.py``, imported by path without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_endpoint_client_is_wrapped(monkeypatch):
    spans = _spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install(spans.ENDPOINTS)
    try:
        assert tracer.missing == []
        assert {f"{module}.{owner}.{attr}" for module, owner, attr, _, _ in spans.ENDPOINTS} == {
            "rewritebench.embed.EncoderClient.embed_batch",
            "rewritebench.rewrite.RewriterClient.complete"}
    finally:
        tracer.uninstall(spans.ENDPOINTS)
    assert not hasattr(EncoderClient.embed_batch, "__wrapped__")


def test_the_embed_layer_keeps_its_span(monkeypatch):
    spans = _spans(monkeypatch)
    assert ("rewritebench.pipeline", "", "embed_texts") in \
        {entry[:3] for entry in spans.STAGES}
    assert rewritebench.pipeline.embed_texts is embed_texts


def test_only_the_known_stage_hooks_are_missing(monkeypatch):
    # these nine name code that is gone (the two store appends' layers read
    # zero already: run-matrix writes its stores whole, and the two retrieval
    # layers read zero: a cell is scored from its top-k rows by
    # retrieval.score_queries); a tenth would zero another per-layer metric
    # without failing the benchmark
    spans = _spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install(spans.STAGES)
    try:
        assert sorted(tracer.missing) == [
            "rewritebench.embed.EmbeddingCache.get",
            "rewritebench.embed.EmbeddingCache.put",
            "rewritebench.matrix.run_arm",
            "rewritebench.pipeline.retrieve_topk",
            "rewritebench.pipeline.rewrite_corpus",
            "rewritebench.pipeline.rewrite_queries",
            "rewritebench.pipeline.score_ranked_lists",
            "rewritebench.stores.DiagnosticsStore.append",
            "rewritebench.stores.RunStore.append"]
    finally:
        tracer.uninstall(spans.STAGES)
    assert not hasattr(rewritebench.pipeline.embed_texts, "__wrapped__")


def test_the_oracle_reads_a_warm_cache_without_endpoint_calls(closing, tmp_path):
    # perfbench/worker.py check_ndcg: embed_texts(ids, texts, client, cache)
    endpoint = EncoderEndpoint(encoder_id="enc", url="mock://bow?dim=8")
    texts = ["def f(): pass", "return x", "def f(): pass"]
    cache = closing(EmbeddingCache(tmp_path))
    fetch_missing(texts, EncoderClient(endpoint), cache)
    client = EncoderClient(endpoint)
    matrix = embed_texts(["a", "b", "c"], texts, client, EmbeddingCache(tmp_path))
    assert matrix.n_rows == 3 and matrix.ids == ("a", "b", "c")
    assert client.call_count == 0
