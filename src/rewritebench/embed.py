"""Embedding acquisition: endpoint clients, the on-disk vector cache, the
fetch that fills it and the gather that turns cached texts into a
normalized EmbeddingMatrix. :func:`fetch_missing` is the only code that
asks an encoder for vectors; :func:`embed_texts` only reads the cache.

The wire protocol is the OpenAI-embeddings-compatible shape. ``mock://``
URLs dispatch to deterministic in-process encoders so the whole pipeline
runs offline:

    mock://hash?dim=D   pseudo-random unit direction from a content hash
    mock://bow?dim=D    hashed bag-of-words; token overlap -> high cosine
    mock://fail         always raises (for retry/abort paths)

A ``mock://bow`` row is a sum over the text's :func:`word_tokens`: each
occurrence of a token adds ±1.0 at one slot, both read off the token's
sha256 (slot: its first 8 bytes, big-endian, mod D; sign: + when byte 8 is
odd). Each client hashes a token type once and remembers its signed slot,
and builds a batch's rows with one ``np.bincount``; sums of ±1.0 are exact
in float64, so the rows do not depend on the order of the adds. Every
encoder answers a batch with one float64 ``(n, dim)`` array.

Raw (pre-normalization) vectors are cached keyed by :func:`content_key`, a
hash of the encoder's fingerprint and the text; normalization is applied
at load.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (CacheMissError, ConfigError, ContractError, EndpointError, StoreError,
                     WorkbenchError)
from .geometry import EmbeddingMatrix, l2_normalize
from .sessions import EndpointClient
from .stores import AppendFile, JsonlLog
from .tokenizers import word_tokens

_encode_ascii = json.encoder.encode_basestring_ascii  # the C escaper of json.dumps


@dataclass(frozen=True)
class EncoderEndpoint:
    encoder_id: str
    url: str
    batch_size: int = 32
    retries: int = 3
    backoff_s: float = 0.5
    timeout_s: float = 60.0
    auth_env: str | None = None


def content_key(fingerprint: str, text: str) -> str:
    """The cache key of *text*'s vector from the encoder with *fingerprint*."""
    return hashlib.sha256(f"{fingerprint}\0{text}".encode("utf-8")).hexdigest()


def _mock_hash_vector(encoder_id: str, text: str, dim: int) -> np.ndarray:
    seed = int.from_bytes(
        hashlib.sha256(f"{encoder_id}\0{text}".encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(seed).standard_normal(dim)


class _TypeSlots(dict):
    """token -> its signed ``mock://bow`` slot: the slot for a + sign, ``~slot``
    for a - sign. Each type is hashed on its first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        slot = int.from_bytes(digest[:8], "big") % self.dim
        signed = self[token] = slot if digest[8] & 1 else ~slot
        return signed


class EncoderClient(EndpointClient):
    """One embedding endpoint; counts every upstream call it makes. A
    ``mock://`` URL's kind and ``dim`` are checked when the client is built."""

    def __init__(self, endpoint: EncoderEndpoint):
        super().__init__(endpoint)
        if self._mock_kind not in (None, "hash", "bow", "fail"):
            raise ConfigError(f"unknown mock encoder kind {self._mock_kind!r}")
        if self._mock_kind in ("hash", "bow"):
            dim = self._mock_params.get("dim", "64")
            if not (dim.isdecimal() and int(dim) > 0):
                raise ConfigError(f"mock encoder {self.encoder_id!r}: dim must be a "
                                  f"positive integer, got {dim!r}")
            self._dim = int(dim)
            self._slots = _TypeSlots(self._dim)

    @property
    def encoder_id(self) -> str:
        return self.endpoint.encoder_id

    model_id = encoder_id

    def _mock(self, texts: Sequence[str]) -> np.ndarray:
        kind = self._mock_kind
        if kind == "fail":
            raise EndpointError(f"mock encoder {self.encoder_id!r} configured to fail")
        dim = self._dim
        if kind == "hash":
            rows = [_mock_hash_vector(self.encoder_id, t, dim) for t in texts]
            return np.array(rows, dtype=np.float64).reshape(len(texts), dim)
        lookup, codes, lengths = self._slots.__getitem__, [], []
        for text in texts:
            tokens = word_tokens(text)
            lengths.append(len(tokens))
            codes += map(lookup, tokens)
        signed = np.array(codes, dtype=np.int64)
        negative = signed < 0
        cells = np.repeat(np.arange(len(texts), dtype=np.int64) * dim, lengths)
        cells += np.where(negative, ~signed, signed)
        weights = np.where(negative, -1.0, 1.0)
        return np.bincount(cells, weights, minlength=len(texts) * dim).reshape(len(texts), dim)

    def _http(self, texts: Sequence[str]) -> np.ndarray:
        """The reply's rows, which must each carry an ``"embedding"`` list of
        finite numbers, all of one length: anything else is retried, and
        nothing non-finite reaches the cache."""
        payload = self._transport.post({"model": self.encoder_id, "input": list(texts)})
        data = payload.get("data")
        if not isinstance(data, list) or len(data) != len(texts):
            raise EndpointError(
                f"encoder {self.encoder_id!r} returned {0 if not data else len(data)} "
                f"embeddings for {len(texts)} inputs")
        try:
            vectors = np.array([row["embedding"] for row in data])  # ragged: ValueError
        except (KeyError, TypeError, ValueError):
            vectors = None
        if (vectors is None or vectors.ndim != 2 or not vectors.shape[1]
                or vectors.dtype.kind not in "iuf" or not np.isfinite(vectors).all()):
            raise EndpointError(f"encoder {self.encoder_id!r} returned embeddings that are "
                                "not lists of finite numbers of one length")
        return vectors.astype(np.float64, copy=False)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed one batch, retrying with exponential backoff: one float64
        row per text."""
        return self._call((texts,), f"encoder {self.encoder_id!r}",
                          f" on a batch of {len(texts)}")


class EmbeddingCache:
    """Content-addressed raw-vector cache.

    Layout: ``vectors.bin`` holds float64 rows back to back; the JSON-Lines
    manifest records (key, dim, offset). Writes are serialized;
    duplicate keys are benign (values are deterministic, last writer wins).
    One process at a time may write a cache dir. A torn last manifest line
    (a crash mid-write) is skipped and counted in ``torn_lines``; the first
    ``put_many`` cuts it off. Rows are appended a batch at a time, vectors
    before their manifest lines: a crash in between leaves bytes no manifest
    row points to. A manifest row that points past the end of ``vectors.bin``
    (a file cut short) is left out of the index when the cache opens, so
    the next fetch asks for that row again. The first ``put_many`` opens
    both files' append handles, which :meth:`close` closes.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.vectors_path = self.root / "vectors.bin"
        self.manifest_path = self.root / "manifest.jsonl"
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int]] = {}
        self._vectors = AppendFile(self.vectors_path)
        try:
            size = self.vectors_path.stat().st_size
        except FileNotFoundError:
            size = 0
        except OSError as exc:
            raise StoreError(f"cannot read {self.vectors_path}: {exc}") from exc

        def add(entry: dict) -> None:
            if entry["offset"] + entry["dim"] * 8 <= size:
                self._index[entry["key"]] = (entry["offset"], entry["dim"])

        self._manifest = JsonlLog(self.manifest_path, add)
        self.torn_lines = self._manifest.torn_lines

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def gather(self, keys: Sequence[str]) -> np.ndarray | None:
        """The raw vectors of *keys* as the rows of one new float64 array,
        or ``None`` unless every key hits, all with one dim, and every row
        lies within ``vectors.bin``.

        Each run of rows that are adjacent in the file is read straight
        into the array with one read; nothing else holds a copy, and no
        mapping of the file counts towards the process's memory.
        """
        with self._lock:
            hits = [self._index.get(key) for key in keys]
        if not hits or None in hits or len({dim for _, dim in hits}) != 1:
            return None
        row = hits[0][1] * 8
        out = np.empty((len(hits), hits[0][1]), dtype=np.float64)
        view = memoryview(out).cast("B")
        try:
            with open(self.vectors_path, "rb") as fh:
                start = 0
                while start < len(hits):
                    end = start + 1
                    while end < len(hits) and hits[end][0] == hits[end - 1][0] + row:
                        end += 1
                    fh.seek(hits[start][0])
                    if fh.readinto(view[start * row:end * row]) != (end - start) * row:
                        return None  # a row past the end of the file: torn
                    start = end
        except FileNotFoundError:
            return None
        return out

    def put_many(self, rows: Iterable[tuple[str, np.ndarray]]) -> None:
        """Append (key, vector) *rows* in order: one append to
        ``vectors.bin``, which :meth:`gather` can read once it returns, then
        one append of their manifest lines. Until both have succeeded none of
        the rows is indexed."""
        rows = [(key, np.asarray(vector, dtype=np.float64).ravel()) for key, vector in rows]
        if not rows:
            return
        with self._lock:
            offset = self._vectors.append(b"".join(vector.tobytes() for _, vector in rows))
            lines, index = [], {}
            for key, vector in rows:
                # json.dumps(entry, sort_keys=True), byte for byte
                lines.append(f'{{"dim": {vector.size}, "key": {_encode_ascii(key)}, '
                             f'"offset": {offset}}}')
                index[key] = (offset, vector.size)
                offset += vector.nbytes
            self._manifest.append_many(lines)
            self._index.update(index)

    def close(self) -> None:
        """Close the append handles, if a put opened them."""
        with self._lock:
            self._vectors.close()
            self._manifest.close()


def fetch_missing(texts: Iterable[str], client: EncoderClient, cache: EmbeddingCache,
                  map_fn: Callable = map) -> dict[str, str]:
    """Put every distinct text of *texts* that *cache* lacks into it, and
    return each distinct text's :func:`content_key`, computed once.

    The misses go to the endpoint in batches of its batch size, one request
    per batch, run through *map_fn*: a pool's ``map``, or the builtin
    ``map`` to run them inline. Their vectors are cached in batch order, so
    the cache files do not depend on the pool's size. After the first
    failed batch or cache write no further batch is sent; once every batch
    that came back is cached, that failure is raised.
    """
    fingerprint = client.fingerprint
    keyed: dict[str, str] = {}
    misses: dict[str, str] = {}
    for text in texts:
        if text not in keyed:
            key = keyed[text] = content_key(fingerprint, text)
            if key not in cache:
                misses[key] = text
    keys = list(misses)
    bs = client.endpoint.batch_size
    batches = [keys[i:i + bs] for i in range(0, len(keys), bs)]
    failures: list[WorkbenchError] = []  # appended to by the pool's threads

    def fetch(batch: list[str]) -> np.ndarray | None:
        if failures:
            return None
        try:
            return client.embed_batch([misses[k] for k in batch])
        except WorkbenchError as exc:
            failures.append(exc)
            return None

    for batch, vectors in zip(batches, map_fn(fetch, batches)):
        if vectors is None:
            continue
        try:
            cache.put_many(zip(batch, vectors))
        except WorkbenchError as exc:
            failures.append(exc)
    if failures:
        raise failures[0]
    return keyed


def embed_texts(ids: Sequence[str], texts: Sequence[str], client: EncoderClient,
                cache: EmbeddingCache, keys: Sequence[str] | None = None) -> EmbeddingMatrix:
    """One normalized vector per text, in input order, from *cache* alone:
    the rows are gathered into the matrix itself and normalized in place, so
    no other copy of it is made. *keys*, when given, are the texts' content
    keys, as :func:`fetch_missing` returned them. A text
    without a cached vector is a :class:`CacheMissError`, and rows of more
    than one dim an :class:`EndpointError`; the encoder is never called."""
    if len(ids) != len(texts):
        raise ContractError(f"{len(ids)} ids for {len(texts)} texts")
    if len(texts) == 0:
        raise ContractError("cannot embed an empty text list")

    encoder_id = client.encoder_id
    if keys is None:
        keys = [content_key(client.fingerprint, t) for t in texts]
    elif len(keys) != len(texts):
        raise ContractError(f"{len(keys)} keys for {len(texts)} texts")
    vectors = cache.gather(keys)
    if vectors is None:
        missing = sum(key not in cache for key in keys)
        if not missing:  # all indexed: rows of more than one dim
            raise EndpointError(f"encoder {encoder_id!r} returned inconsistent dimensions")
        raise CacheMissError(
            f"{missing} of {len(keys)} texts have no cached vector from encoder {encoder_id!r}")
    matrix = EmbeddingMatrix(encoder_id=encoder_id, ids=tuple(ids),
                             vectors=vectors, normalized=False)
    return l2_normalize(matrix, out=vectors)  # nothing else holds the rows
