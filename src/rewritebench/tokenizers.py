"""Tokenizer interface and the two built-in implementations.

The diagnostics only need token *identity*, not decodability, so both
built-ins map text to integer ids deterministically: the word tokenizer by
hashing observed surface types, the subword tokenizer by greedy
longest-match against an external vocabulary file (one token per line,
rank = line number).

The lexical diagnostics read a corpus as token counts, through
:meth:`Tokenizer.count`. The base method counts :meth:`Tokenizer.tokenize`'s
ids text by text; the word tokenizer counts a chunk of texts at a time in C
(one ``bytes.translate`` and ``split``) and hashes each type once, with the
same result.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Iterable

from .errors import ConfigError
from .templates import read_text

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
# bytes.translate table that keeps the bytes _WORD_RE matches and turns every
# other byte, each byte of a non-ASCII character included, into a space
_WORD_BYTES = bytes(b if _WORD_RE.fullmatch(chr(b)) else 0x20 for b in range(256))
_COUNT_CHUNK = 256  # texts per C pass of WordTokenizer.count: bounds its peak memory


def word_tokens(text: str) -> list[str]:
    """Split on whitespace and punctuation; identifiers stay whole."""
    return _WORD_RE.findall(text)


def stable_token_id(token: str, vocab_size: int) -> int:
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % vocab_size


class Tokenizer:
    """Deterministic text -> token-id sequence mapping."""

    vocab_size: int

    def tokenize(self, text: str) -> list[int]:
        raise NotImplementedError

    def count(self, texts: Iterable[str]) -> Counter[int]:
        """How often each token id occurs in *texts*, all together."""
        counts: Counter[int] = Counter()
        for text in texts:
            counts.update(self.tokenize(text))
        return counts


class _TypeIds(dict):
    """token -> stable_token_id, hashed on the first lookup of each type."""

    def __init__(self, vocab_size: int):
        super().__init__()
        self.vocab_size = vocab_size

    def __missing__(self, token: str) -> int:
        tid = self[token] = stable_token_id(token, self.vocab_size)
        return tid


class WordTokenizer(Tokenizer):
    """Whitespace+punctuation splitter with hashed type ids.

    Each surface type is hashed once per instance and remembered, so a
    :meth:`tokenize` pass over a corpus costs one dict lookup per token
    occurrence, and a :meth:`count` one per type.
    """

    def __init__(self, vocab_size: int = 2 ** 20):
        if vocab_size < 1:
            raise ConfigError("vocab_size must be positive")
        self.vocab_size = vocab_size
        self._ids = _TypeIds(vocab_size)

    def tokenize(self, text: str) -> list[int]:
        ids = self._ids
        return [ids[t] for t in word_tokens(text)]

    def count(self, texts: Iterable[str]) -> Counter[int]:
        """``Counter`` of :meth:`tokenize` over *texts*, from one C pass per
        chunk of at most ``_COUNT_CHUNK`` texts: joined by a newline, which
        is no word byte, encoded (``surrogatepass`` lets a lone surrogate
        through, as a non-word character), every non-word byte made a space,
        split and counted. Each type is then hashed once."""
        types: Counter[bytes] = Counter()
        texts = iter(texts)
        while chunk := list(islice(texts, _COUNT_CHUNK)):
            data = "\n".join(chunk).encode("utf-8", "surrogatepass")
            types.update(data.translate(_WORD_BYTES).split())
        ids, counts = self._ids, Counter()
        for token, n in types.items():
            counts[ids[token.decode("ascii")]] += n  # two types may share an id
        return counts


class VocabTokenizer(Tokenizer):
    """Greedy longest-match subword tokenizer over a fixed vocabulary file.

    Text is pre-split on whitespace; inside each chunk the longest matching
    vocabulary entry is consumed at every position. A character no entry
    covers maps to ``<unk>`` when the vocabulary defines it and is skipped
    otherwise.
    """

    def __init__(self, vocab_path: str | Path):
        vocab_path = Path(vocab_path)
        if not vocab_path.is_file():
            raise ConfigError(f"vocabulary file not found: {vocab_path}")
        entries = read_text(vocab_path, "vocabulary").splitlines()
        self._ids: dict[str, int] = {}
        for rank, tok in enumerate(entries):
            if tok and tok not in self._ids:
                self._ids[tok] = rank
        if not self._ids:
            raise ConfigError(f"vocabulary file is empty: {vocab_path}")
        self.vocab_size = len(entries)
        self._unk = self._ids.get("<unk>")
        self._max_len = max(len(t) for t in self._ids)

    def tokenize(self, text: str) -> list[int]:
        out: list[int] = []
        for chunk in text.split():
            pos = 0
            while pos < len(chunk):
                match_id = None
                for end in range(min(len(chunk), pos + self._max_len), pos, -1):
                    tid = self._ids.get(chunk[pos:end])
                    if tid is not None:
                        match_id = tid
                        pos = end
                        break
                if match_id is None:
                    if self._unk is not None:
                        out.append(self._unk)
                    pos += 1
                else:
                    out.append(match_id)
        return out


def build_tokenizer(spec: dict) -> Tokenizer:
    """Construct a tokenizer from a config mapping (``kind`` selects)."""
    kind = spec.get("kind", "word")
    if kind == "word":
        return WordTokenizer(vocab_size=int(spec.get("vocab_size", 2 ** 20)))
    if kind == "vocab":
        if "vocab_file" not in spec:
            raise ConfigError("vocab tokenizer requires 'vocab_file'")
        return VocabTokenizer(spec["vocab_file"])
    raise ConfigError(f"unknown tokenizer kind {kind!r}")
