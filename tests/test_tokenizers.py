import random
import tracemalloc
from collections import Counter

import pytest

from rewritebench import tokenizers
from rewritebench.errors import ConfigError
from rewritebench.tokenizers import (Tokenizer, VocabTokenizer, WordTokenizer,
                                     build_tokenizer, stable_token_id,
                                     word_tokens)


class TestWordTokens:
    def test_splits_on_whitespace_and_punctuation(self):
        assert word_tokens("def add(a, b): return a+b") == \
            ["def", "add", "a", "b", "return", "a", "b"]

    def test_identifiers_with_underscores_stay_whole(self):
        assert word_tokens("my_var = other_thing2") == ["my_var", "other_thing2"]

    def test_empty_text(self):
        assert word_tokens("...!?") == []


class TestWordTokenizer:
    def test_deterministic(self):
        tok = WordTokenizer()
        assert tok.tokenize("a b a") == tok.tokenize("a b a")

    def test_same_type_same_id(self):
        tok = WordTokenizer()
        ids = tok.tokenize("foo bar foo")
        assert ids[0] == ids[2]
        assert ids[0] != ids[1]

    def test_ids_below_vocab_size(self):
        tok = WordTokenizer(vocab_size=97)
        ids = tok.tokenize(" ".join(f"w{i}" for i in range(500)))
        assert all(0 <= i < 97 for i in ids)

    def test_instances_agree(self):
        assert WordTokenizer().tokenize("x y z") == WordTokenizer().tokenize("x y z")


class TestVocabTokenizer:
    @pytest.fixture
    def vocab_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join([
            "<unk>", "re", "turn", "return", "def", "f", "or", "for", "x",
        ]) + "\n", encoding="utf-8")
        return path

    def test_greedy_longest_match(self, vocab_file):
        tok = VocabTokenizer(vocab_file)
        # "return" must consume the full entry, not "re"+"turn"
        assert tok.tokenize("return") == [3]
        assert tok.tokenize("returnx") == [3, 8]

    def test_ids_are_line_ranks(self, vocab_file):
        tok = VocabTokenizer(vocab_file)
        assert tok.tokenize("def for") == [4, 7]
        assert tok.vocab_size == 9

    def test_unknown_char_maps_to_unk(self, vocab_file):
        tok = VocabTokenizer(vocab_file)
        assert tok.tokenize("defz") == [4, 0]

    def test_unknown_char_skipped_without_unk(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("ab\ncd\n", encoding="utf-8")
        tok = VocabTokenizer(path)
        assert tok.tokenize("abzcd") == [0, 1]

    def test_deterministic(self, vocab_file):
        tok = VocabTokenizer(vocab_file)
        assert tok.tokenize("for return x") == tok.tokenize("for return x")

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            VocabTokenizer(tmp_path / "nope.txt")


class TestBuildTokenizer:
    def test_word_kind(self):
        tok = build_tokenizer({"kind": "word", "vocab_size": 128})
        assert isinstance(tok, WordTokenizer)
        assert tok.vocab_size == 128

    def test_vocab_kind_requires_file(self):
        with pytest.raises(ConfigError):
            build_tokenizer({"kind": "vocab"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_tokenizer({"kind": "bpe"})


def test_memoised_ids_equal_stable_token_id():
    text = " ".join(f"w{i % 37} id_{i % 11}" for i in range(400)) + " x y x"
    small, large = WordTokenizer(vocab_size=97), WordTokenizer(vocab_size=2 ** 20)
    for _ in range(2):  # the second pass reads each instance's memo
        for tok in (small, large):
            assert tok.tokenize(text) == [stable_token_id(t, tok.vocab_size)
                                          for t in word_tokens(text)]
    assert small.tokenize(text) != large.tokenize(text)


def _tokenize_counts(tok, texts) -> Counter:
    """The counts ``Tokenizer.count`` must give: ``tokenize``, text by text."""
    counts = Counter()
    for text in texts:
        counts.update(tok.tokenize(text))
    return counts


class TestCount:
    @pytest.mark.parametrize("texts", [
        ["café naïve straße 名前 x_1 Ünïcode", "é", "ß2", "名前_ok", "_"],
        ["a\ud800b", "\ud800", "\udcff x", "line\r\nnext\tcol\x0bv\x0cf"],
        ["", "   ", "\n\n", "\t", "", "x"],
        ["ab", "cd", "ef_", "_gh", "9", "0z", "end"],
        ["", ""],
        [],
    ])
    def test_word_count_equals_the_counted_tokens(self, texts):
        tok = WordTokenizer()
        assert tok.count(texts) == _tokenize_counts(tok, texts)
        assert tok.count(iter(texts)) == _tokenize_counts(tok, texts)

    def test_no_two_texts_merge_across_chunks(self):
        # texts begin and end with word characters, across several chunks
        n = 3 * tokenizers._COUNT_CHUNK + 1
        texts = [f"t{i} mid é{i % 5}_tail" for i in range(n)]
        tok = WordTokenizer()
        counts = tok.count(texts)
        assert counts == _tokenize_counts(tok, texts)
        assert sum(counts.values()) == 3 * n

    def test_types_that_share_an_id_add_up(self):
        tok = WordTokenizer(vocab_size=3)
        texts = [" ".join(f"w{i}" for i in range(50)), "w1 w2 w3"]
        assert tok.count(texts) == _tokenize_counts(tok, texts)
        assert sum(tok.count(texts).values()) == 53

    def test_vocab_tokenizer_counts_through_the_base_path(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<unk>\nre\nturn\nreturn\ndef\nf\n", encoding="utf-8")
        tok = VocabTokenizer(path)
        texts = ["def f return", "returnz", "", "été"]
        assert type(tok).count is Tokenizer.count
        assert tok.count(texts) == _tokenize_counts(tok, texts) == \
            Counter({3: 2, 4: 1, 5: 1, 0: 4})


def test_word_count_holds_one_chunk_at_a_time():
    # The benchmark gates the peak memory of a run: counting a corpus must
    # not hold its token list, or its text joined whole.
    rng = random.Random(5)
    words = [f"w{i}_{'x' * (i % 7)}" for i in range(2000)]
    texts = [" ".join(rng.choices(words, k=20)) + "." for _ in range(20_000)]
    tok = WordTokenizer()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        token_list = " ".join(texts).split()
        list_size = tracemalloc.get_traced_memory()[0] - before
        del token_list
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        counts = tok.count(texts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 20 * 20_000
    assert peak < list_size / 4, (peak, list_size)
