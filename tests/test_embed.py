import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import assert_calls_counted_under_threads, open_failing_writes
from rewritebench.embed import (EmbeddingCache, EncoderClient, EncoderEndpoint,
                                content_key, embed_texts, fetch_missing)
from rewritebench.errors import (CacheMissError, ConfigError, ContractError, EndpointError,
                                 StoreError)
from rewritebench.geometry import EmbeddingMatrix, l2_normalize


def mock_client(url: str = "mock://hash?dim=16", batch_size: int = 32,
                retries: int = 1, backoff: float = 0.0) -> EncoderClient:
    return EncoderClient(EncoderEndpoint(encoder_id="mock-enc", url=url,
                                         batch_size=batch_size, retries=retries,
                                         backoff_s=backoff))


def key(text: str, url: str = "mock://hash?dim=16") -> str:
    """The cache key of *text*'s vector from ``mock_client(url)``."""
    return content_key(mock_client(url).fingerprint, text)


def fetch_and_gather(ids, texts, client, cache) -> EmbeddingMatrix:
    """The matrix of *texts* as a stage reads it: the fetch stage fills the
    cache, then the gather reads it."""
    fetch_missing(texts, client, cache)
    return embed_texts(ids, texts, client, cache)


class TestMockEncoders:
    def test_hash_encoder_deterministic(self):
        a = mock_client().embed_batch(["hello world"])
        b = mock_client().embed_batch(["hello world"])
        assert a == b

    def test_hash_encoder_distinguishes_texts(self):
        out = mock_client().embed_batch(["alpha", "beta"])
        assert out[0] != out[1]

    def test_bow_encoder_rewards_token_overlap(self):
        client = mock_client("mock://bow?dim=128")
        vecs = np.array(client.embed_batch([
            "shared tokens one two three",
            "shared tokens one two four",
            "totally different words here now",
        ]))
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        near = float(unit[0] @ unit[1])
        far = float(unit[0] @ unit[2])
        assert near > far

    @pytest.mark.parametrize("url", ["mock://bogus", "mock://bow?dim=abc", "mock://hash?dim=0",
                                     "mock://bow?dim=-4", "mock://hash?dim=2.5"])
    def test_bad_mock_url_is_rejected_when_the_client_is_built(self, url):
        with pytest.raises(ConfigError, match="mock encoder"):
            mock_client(url)

    def test_fail_encoder_raises_after_retries(self):
        client = mock_client("mock://fail", retries=2)
        with pytest.raises(EndpointError, match="after 3 attempts"):
            client.embed_batch(["x"])
        assert client.call_count == 3


class TestEmbedTexts:
    def test_rows_in_input_order(self, closing, tmp_path):
        client = mock_client(batch_size=2)
        cache = closing(EmbeddingCache(tmp_path))
        out = fetch_and_gather(["a", "b", "c"], ["ta", "tb", "tc"], client, cache)
        assert out.ids == ("a", "b", "c")
        assert out.n_rows == 3 and out.dim == 16
        assert client.call_count == 2  # 3 misses in batches of 2

    def test_fully_cached_costs_zero_calls(self, closing, tmp_path):
        cache = closing(EmbeddingCache(tmp_path))
        warm = mock_client()
        fetch_and_gather(["a", "b"], ["ta", "tb"], warm, cache)
        cold = mock_client()
        out = embed_texts(["a", "b"], ["ta", "tb"], cold, cache)
        assert cold.call_count == 0
        assert out.normalized

    def test_same_text_identical_rows(self, closing, tmp_path):
        client = mock_client()
        out = fetch_and_gather(["a", "b"], ["same text", "same text"], client,
                               closing(EmbeddingCache(tmp_path)))
        np.testing.assert_array_equal(out.vectors[0], out.vectors[1])
        assert client.call_count == 1

    def test_cache_stores_raw_vectors(self, closing, tmp_path):
        cache = closing(EmbeddingCache(tmp_path))
        client = mock_client("mock://bow?dim=8")
        fetch_missing(["word word word"], client, cache)
        (raw,) = cache.gather([content_key(client.fingerprint, "word word word")])
        # bow counts are unnormalized in the cache; normalization is at load
        assert np.abs(raw).max() == 3.0

    def test_cache_survives_reopen(self, closing, tmp_path):
        cache = closing(EmbeddingCache(tmp_path))
        client = mock_client()
        first = fetch_and_gather(["a"], ["text"], client, cache)
        reopened = EmbeddingCache(tmp_path)
        second = embed_texts(["a"], ["text"], mock_client(), reopened)
        np.testing.assert_array_equal(first.vectors, second.vectors)

    def test_a_miss_raises_and_calls_no_encoder(self, closing, tmp_path):
        cache = closing(EmbeddingCache(tmp_path))
        fetch_missing(["ta"], mock_client(), cache)
        reader = mock_client()
        with pytest.raises(CacheMissError, match="1 of 2 texts"):
            embed_texts(["a", "b"], ["ta", "tb"], reader, cache)
        assert reader.call_count == 0

    def test_id_text_length_mismatch(self, tmp_path):
        with pytest.raises(ContractError):
            embed_texts(["a"], ["x", "y"], mock_client(), EmbeddingCache(tmp_path))

    def test_endpoint_exhaustion_aborts(self, tmp_path):
        client = mock_client("mock://fail", retries=0)
        cache = EmbeddingCache(tmp_path)
        with pytest.raises(EndpointError, match="after 1 attempts"):
            fetch_missing(["x"], client, cache)
        with pytest.raises(CacheMissError):
            embed_texts(["a"], ["x"], client, cache)
        assert client.call_count == 1

    def test_normalization_contract(self, closing, tmp_path):
        cache = closing(EmbeddingCache(tmp_path))
        out = fetch_and_gather(["a", "b"], ["one two", "three four"],
                               mock_client("mock://bow?dim=32"), cache)
        np.testing.assert_allclose(np.linalg.norm(out.vectors, axis=1), 1.0,
                                   atol=1e-9)


class TestFetchMissing:
    def test_distinct_misses_fetched_once_in_batches(self, closing, tmp_path):
        cache = closing(EmbeddingCache(tmp_path))
        fetch_missing(["ta"], mock_client(), cache)
        client = mock_client(batch_size=2)
        texts = ["ta", "tb", "tc", "tb", "td", "te", "tc"]
        with ThreadPoolExecutor(max_workers=3) as pool:
            fetch_missing(texts, client, cache, pool.map)
        assert client.call_count == 2  # tb tc | td te
        keys = [key(t) for t in ["ta", "tb", "tc", "td", "te"]]
        manifest = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert [json.loads(line)["key"] for line in manifest] == keys
        cold = mock_client()
        embed_texts(list("abcde"), ["ta", "tb", "tc", "td", "te"], cold, cache)
        assert cold.call_count == 0

    def test_failed_batch_stops_fetching_and_is_raised(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        client = mock_client("mock://fail", batch_size=1, retries=0)
        with pytest.raises(EndpointError, match="failed after 1 attempts"):
            fetch_missing(["ta", "tb", "tc"], client, cache)
        assert client.call_count == 1
        assert not any(content_key(client.fingerprint, t) in cache for t in ["ta", "tb", "tc"])

    def test_failed_cache_write_stops_fetching_and_is_raised(self, closing, tmp_path,
                                                              monkeypatch):
        cache = closing(EmbeddingCache(tmp_path))
        put_many, writes = cache.put_many, []

        def second_write_fails(rows):
            writes.append(rows)
            if len(writes) == 2:
                raise StoreError("disk full")
            put_many(rows)

        monkeypatch.setattr(cache, "put_many", second_write_fails)
        client = mock_client(batch_size=1)
        with pytest.raises(StoreError, match="disk full"):
            fetch_missing(["ta", "tb", "tc"], client, cache)
        assert client.call_count == 2  # the batch after the failed write is not sent
        assert [key(t) in cache for t in ["ta", "tb", "tc"]] == \
            [True, False, False]


class TestTornManifest:
    def _warm(self, root):
        cache = EmbeddingCache(root)
        fetch_missing(["ta", "tb"], mock_client(), cache)
        cache.close()

    def test_torn_last_line_is_skipped_and_counted(self, tmp_path):
        self._warm(tmp_path)
        with open(tmp_path / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"dim": 16, "key": "abc')
        cache = EmbeddingCache(tmp_path)
        assert cache.torn_lines == 1
        client = mock_client()
        fetch_and_gather(["a", "b"], ["ta", "tb"], client, cache)
        assert client.call_count == 0

    def test_append_after_torn_tail_keeps_manifest_readable(self, closing, tmp_path):
        self._warm(tmp_path)
        with open(tmp_path / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"dim": 16, "enc')
        fetch_missing(["tc"], mock_client(), closing(EmbeddingCache(tmp_path)))
        reopened = EmbeddingCache(tmp_path)
        assert reopened.torn_lines == 0
        client = mock_client()
        fetch_and_gather(["a", "b", "c"], ["ta", "tb", "tc"], client, reopened)
        assert client.call_count == 0

    def test_intact_manifest_has_no_torn_lines(self, tmp_path):
        self._warm(tmp_path)
        assert EmbeddingCache(tmp_path).torn_lines == 0

    def test_malformed_inner_line_still_raises(self, tmp_path):
        self._warm(tmp_path)
        path = tmp_path / "manifest.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0][:10], lines[1]]) + "\n", encoding="utf-8")
        with pytest.raises(StoreError, match="line 1"):
            EmbeddingCache(tmp_path)


class TestPutMany:
    def _rows(self, n: int, dim: int = 6) -> list[tuple[str, np.ndarray]]:
        rng = np.random.default_rng(5)
        return [(key(f"t{i}"), rng.standard_normal(dim)) for i in range(n)]

    @staticmethod
    def _assert_equals_one_put_per_row(tmp_path, rows, batches):
        one, many = EmbeddingCache(tmp_path / "one"), EmbeddingCache(tmp_path / "many")
        for row in rows:
            one.put_many([row])
        for batch in batches:
            many.put_many(batch)
        for name in ("vectors.bin", "manifest.jsonl"):
            assert (tmp_path / "many" / name).read_bytes() == \
                (tmp_path / "one" / name).read_bytes()
        one.close()
        many.close()
        for line in (tmp_path / "many" / "manifest.jsonl").read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)
        reopened = EmbeddingCache(tmp_path / "many")
        for k, vec in rows:
            assert np.array_equal(reopened.gather([k])[0], vec)

    def test_equals_repeated_put_byte_for_byte(self, tmp_path):
        rows = self._rows(9)
        self._assert_equals_one_put_per_row(tmp_path, rows, [rows[:4], [], rows[4:]])
        reopened = EmbeddingCache(tmp_path / "many")
        got = reopened.gather([k for k, _ in rows])
        assert np.array_equal(got, np.stack([vec for _, vec in rows]))

    def test_a_batch_of_several_dims_equals_one_put_per_row(self, tmp_path):
        rows = self._rows(5)  # rows of other dims, one as a list
        rows[1] = (rows[1][0], rows[1][1][:4].tolist())
        rows[3] = (rows[3][0], np.ones(3))
        self._assert_equals_one_put_per_row(tmp_path, rows, [rows])

    def test_a_put_is_read_by_a_fresh_cache_before_close(self, tmp_path):
        rows = self._rows(3)
        cache = EmbeddingCache(tmp_path)
        cache.put_many(rows[:1])
        cache.put_many(rows[1:])
        got = EmbeddingCache(tmp_path).gather([k for k, _ in rows])
        assert np.array_equal(got, np.stack([vec for _, vec in rows]))
        cache.close()

    def test_a_failed_vectors_write_drops_the_handle(self, tmp_path, monkeypatch):
        rows = self._rows(3)
        cache = EmbeddingCache(tmp_path)
        opened = open_failing_writes(monkeypatch)
        cache.put_many(rows[:1])
        (vectors,) = [fh for fh in opened if fh.name == str(cache.vectors_path)]
        vectors.failing = True
        with pytest.raises(StoreError, match="cannot append"):
            cache.put_many(rows[1:2])
        assert vectors.closed and rows[1][0] not in cache
        cache.put_many(rows[1:])  # opens vectors.bin again
        keys = [k for k, _ in rows]
        assert np.array_equal(EmbeddingCache(tmp_path).gather(keys),
                              np.stack([vec for _, vec in rows]))
        cache.close()

    def test_manifest_failure_leaves_the_batch_missing(self, closing, tmp_path):
        rows = self._rows(5)
        closing(EmbeddingCache(tmp_path)).put_many(rows[:2])
        cache = closing(EmbeddingCache(tmp_path))  # no append handle open yet
        cache.manifest_path.unlink()
        cache.manifest_path.mkdir()  # opening it to append is an OSError
        with pytest.raises(StoreError, match="cannot append"):
            cache.put_many(rows[2:])
        keys = [k for k, _ in rows]
        assert [k in cache for k in keys] == [True, True, False, False, False]
        assert np.array_equal(cache.gather(keys[:2]), np.stack([rows[0][1], rows[1][1]]))
        assert cache.gather(keys) is None
        # the batch's vectors went first: orphan bytes past the indexed rows
        assert cache.vectors_path.stat().st_size == 5 * 6 * 8

    def test_fetch_missing_appends_once_per_batch(self, closing, tmp_path, monkeypatch):
        cache = closing(EmbeddingCache(tmp_path))
        batches = []
        put_many = cache.put_many
        monkeypatch.setattr(cache, "put_many",
                            lambda rows: batches.append(list(rows)) or put_many(batches[-1]))
        fetch_missing([f"t{i}" for i in range(10)], mock_client(batch_size=4), cache)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert all(key(f"t{i}") in cache for i in range(10))


def test_call_count_is_exact_under_threads():
    assert_calls_counted_under_threads(
        mock_client(), lambda c, i: c.embed_batch([f"text {i}"]))


def _per_row(ids, root, keys) -> EmbeddingMatrix:
    """The reference: each key's row read on its own from the cache's files,
    stacked, then normalized."""
    entries = {}
    for line in (root / "manifest.jsonl").read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        entries[entry["key"]] = entry
    data = (root / "vectors.bin").read_bytes()
    rows = [np.frombuffer(data, np.float64, entries[k]["dim"], entries[k]["offset"])
            for k in keys]
    return l2_normalize(EmbeddingMatrix(encoder_id="mock-enc", ids=tuple(ids),
                                        vectors=np.vstack(rows)))


class TestGetMany:
    """Per-key hits and misses of a damaged cache: one row at a time through
    ``gather``, and through ``in`` once the cache is opened again."""

    def _warm(self, tmp_path) -> tuple[EmbeddingCache, list[str]]:
        cache = EmbeddingCache(tmp_path)
        fetch_missing(["ta", "tb"], mock_client(), cache)
        cache.close()
        return cache, [key(t) for t in ("ta", "tb")]

    @pytest.mark.parametrize("damage", ["missing", "empty"])
    def test_missing_or_empty_vectors_file_is_all_misses(self, tmp_path, damage):
        cache, keys = self._warm(tmp_path)
        if damage == "missing":
            (tmp_path / "vectors.bin").unlink()
        else:
            (tmp_path / "vectors.bin").write_bytes(b"")
        assert [cache.gather([k]) for k in keys] == [None, None]
        assert [k in EmbeddingCache(tmp_path) for k in keys] == [False, False]

    def test_row_past_end_of_file_is_a_miss(self, tmp_path):
        cache, keys = self._warm(tmp_path)
        path = tmp_path / "vectors.bin"
        path.write_bytes(path.read_bytes()[:-8])
        first, second = (cache.gather([k]) for k in keys)
        assert first is not None and second is None
        assert [k in EmbeddingCache(tmp_path) for k in keys] == [True, False]


class TestGather:
    TEXTS = [f"text number {i} with words" for i in range(7)]
    URL = "mock://bow?dim=16"

    def _warm(self, tmp_path, batch_size=3):
        cache = EmbeddingCache(tmp_path)
        fetch_missing(self.TEXTS, mock_client(self.URL, batch_size=batch_size), cache)
        cache.close()
        return cache

    def _fresh(self, tmp_path, texts) -> EmbeddingMatrix:
        cache = EmbeddingCache(tmp_path / "fresh")
        out = fetch_and_gather(["x"] * len(texts), texts, mock_client(self.URL), cache)
        cache.close()
        return out

    def test_all_hits_equal_the_per_row_path_bit_for_bit(self, tmp_path):
        cache = self._warm(tmp_path)
        # out of file order, with a repeat: several separate reads
        texts = [self.TEXTS[i] for i in (4, 5, 6, 0, 1, 3, 3)]
        ids = [f"x{i}" for i in range(len(texts))]
        keys = [key(t, self.URL) for t in texts]
        gathered = cache.gather(keys)
        assert gathered.flags.c_contiguous and gathered.flags.owndata
        client = mock_client(self.URL)
        out = embed_texts(ids, texts, client, cache)
        assert client.call_count == 0
        want = _per_row(ids, tmp_path, keys)
        assert out.vectors.tobytes() == want.vectors.tobytes()
        assert out.normalized and out.ids == tuple(ids)

    def test_reopened_cache_reads_same_rows(self, tmp_path):
        cache = self._warm(tmp_path)
        keys = [key(t, self.URL) for t in self.TEXTS]
        assert EmbeddingCache(tmp_path).gather(keys).tobytes() == cache.gather(keys).tobytes()

    def test_partial_hit_falls_back(self, closing, tmp_path):
        cache = closing(self._warm(tmp_path))
        texts = [self.TEXTS[0], "a text never embedded", self.TEXTS[2]]
        assert cache.gather([key(t, self.URL) for t in texts]) is None
        client = mock_client(self.URL)
        out = fetch_and_gather(["x"] * 3, texts, client, cache)
        assert client.call_count == 1
        assert out.vectors.tobytes() == self._fresh(tmp_path, texts).vectors.tobytes()

    def _fetch_again(self, tmp_path) -> list[str]:
        """Reopen a damaged cache and fetch every text again: the texts the
        encoder is asked for, once the gather equals a fresh embed."""
        reopened = EmbeddingCache(tmp_path)
        client = mock_client(self.URL)
        asked, embed_batch = [], client.embed_batch
        client.embed_batch = lambda texts: asked.extend(texts) or embed_batch(texts)
        out = fetch_and_gather(["x"] * len(self.TEXTS), self.TEXTS, client, reopened)
        reopened.close()
        assert out.vectors.tobytes() == self._fresh(tmp_path, self.TEXTS).vectors.tobytes()
        return asked

    def test_torn_last_row_falls_back(self, tmp_path):
        cache = self._warm(tmp_path)
        path = tmp_path / "vectors.bin"
        path.write_bytes(path.read_bytes()[:-8])
        keys = [key(t, self.URL) for t in self.TEXTS]
        assert cache.gather(keys) is None
        assert cache.gather(keys[:-1]) is not None
        # only the torn row is asked for again
        assert self._fetch_again(tmp_path) == self.TEXTS[-1:]

    def test_missing_vectors_file_falls_back(self, tmp_path):
        cache = self._warm(tmp_path)
        (tmp_path / "vectors.bin").unlink()
        assert cache.gather([key(self.TEXTS[0], self.URL)]) is None
        assert self._fetch_again(tmp_path) == self.TEXTS

    def test_empty_vectors_file_falls_back(self, tmp_path):
        cache = self._warm(tmp_path)
        (tmp_path / "vectors.bin").write_bytes(b"")
        assert cache.gather([key(self.TEXTS[0], self.URL)]) is None
        assert self._fetch_again(tmp_path) == self.TEXTS

    def test_mixed_dimensions_fall_back(self, closing, tmp_path):
        cache = closing(EmbeddingCache(tmp_path))
        client = mock_client("mock://bow?dim=4")
        keys = [content_key(client.fingerprint, t) for t in ("ta", "tb")]
        cache.put_many([(keys[0], np.ones(4))])
        cache.put_many([(keys[1], np.ones(6))])
        assert cache.gather(keys) is None
        assert cache.gather(keys[1:]) is not None
        with pytest.raises(EndpointError, match="inconsistent dimensions"):
            embed_texts(["a", "b"], ["ta", "tb"], client, cache)
        assert client.call_count == 0

    def test_no_keys(self, tmp_path):
        assert EmbeddingCache(tmp_path).gather([]) is None
