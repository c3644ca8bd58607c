import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest

from conftest import score_after_baseline
from rewritebench.errors import ConfigError, DomainError
from rewritebench.lexical import (CoverageCurve, LexicalReport,
                                  batched_entropy, build_lexical_report,
                                  coverage_cdf, delta_h, token_entropy)
from rewritebench.stores import Encoded, json_chunks
from rewritebench.tokenizers import Tokenizer, WordTokenizer


def entropy_oracle(counts: dict) -> float:
    """Independent direct-definition evaluation with exact probabilities."""
    total = sum(counts.values())
    return -sum((Fraction(c, total) and float(Fraction(c, total))
                 * math.log2(Fraction(c, total))) for c in counts.values())


def random_counts(rng: random.Random, max_types: int = 30,
                  max_count: int = 40) -> dict[int, int]:
    n = rng.randint(1, max_types)
    return {i: rng.randint(1, max_count) for i in range(n)}


class TestTokenEntropy:
    def test_single_type_is_zero(self):
        assert token_entropy({7: 4}) == 0.0

    def test_uniform_two_types_is_one_bit(self):
        assert token_entropy({1: 2, 2: 2}) == 1.0

    def test_quarter_quarter_half(self):
        # -(1/4 log 1/4 + 1/4 log 1/4 + 1/2 log 1/2) = 1.5 exactly
        assert token_entropy({1: 1, 2: 1, 3: 2}) == pytest.approx(1.5, abs=1e-12)

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError, match="empty corpus"):
            token_entropy({})

    def test_nonpositive_count_rejected(self):
        with pytest.raises(DomainError):
            token_entropy({1: 0})

    def test_matches_direct_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            counts = random_counts(rng)
            assert token_entropy(counts) == pytest.approx(
                entropy_oracle(counts), abs=1e-10)

    def test_permutation_invariance_via_sequences(self):
        rng = random.Random(5)
        for _ in range(100):
            seq = [rng.randint(0, 9) for _ in range(rng.randint(1, 200))]
            shuffled = seq[:]
            rng.shuffle(shuffled)
            assert token_entropy(Counter(seq)) == token_entropy(Counter(shuffled))

    def test_count_scaling_invariance(self):
        rng = random.Random(6)
        for _ in range(100):
            counts = random_counts(rng)
            c = rng.randint(2, 9)
            scaled = {k: v * c for k, v in counts.items()}
            assert token_entropy(scaled) == pytest.approx(
                token_entropy(counts), abs=1e-12)

    def test_bounds_and_equality_conditions(self):
        rng = random.Random(7)
        for _ in range(200):
            counts = random_counts(rng)
            h = token_entropy(counts)
            n = len(counts)
            assert -1e-12 <= h <= math.log2(n) + 1e-9
            if n == 1:
                assert h == 0.0
        # uniform hits the upper bound exactly up to rounding
        assert token_entropy({i: 3 for i in range(8)}) == pytest.approx(3.0, abs=1e-12)


class IdTokenizer(Tokenizer):
    """Reads a text of space-separated token ids as those ids."""

    vocab_size = 100

    def tokenize(self, text: str) -> list[int]:
        return [int(t) for t in text.split()]


def lexical_stats(tokens: list[int]) -> LexicalReport:
    """The lexical report of one text whose token ids are *tokens*."""
    return build_lexical_report([" ".join(map(str, tokens))], IdTokenizer(),
                                encoder_id="e", task_id="t", arm="Baseline")


class TestLexicalStats:
    def test_all_distinct(self):
        s = lexical_stats([1, 2, 3, 4])
        assert s.ttr == 1.0
        assert s.hapax_type_rate == 1.0
        assert s.hapax_token_rate == 1.0

    def test_hand_counted_skewed_case(self):
        # [a,a,a,a,b]: 2 types, top set = {a} (ceil(0.4)=1), mass 4/5
        s = lexical_stats([1, 1, 1, 1, 2])
        assert s.unique_types == 2
        assert s.top20_mass == pytest.approx(0.8, abs=1e-15)
        assert s.hapax_type_rate == 0.5
        assert s.hapax_token_rate == pytest.approx(0.2, abs=1e-15)
        assert s.ttr == pytest.approx(0.4, abs=1e-15)

    def test_top20_tie_broken_by_ascending_id(self):
        # ids 5 and 2 both have count 3; the top-1 set must take id 2
        s = lexical_stats([5, 5, 5, 2, 2, 2, 9])
        # top20 takes ceil(0.2*3)=1 type -> id 2 (tie on count, lower id wins)
        assert s.top20_mass == pytest.approx(3 / 7, abs=1e-15)

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            lexical_stats([])

    def test_hapax_all_unique_implies_max_entropy(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 40)
            tokens = list(range(n))
            s = lexical_stats(tokens)
            if s.hapax_type_rate == 1.0:
                h = token_entropy(Counter(tokens))
                assert h == pytest.approx(math.log2(s.unique_types), abs=1e-9)


class TestCoverageCdf:
    def test_single_type(self):
        curve = coverage_cdf({3: 1})
        assert curve.points == ((1, 1.0),)
        assert curve.k80 == 1

    def test_hand_counted_pair(self):
        curve = coverage_cdf({1: 3, 2: 1})
        assert curve.points == ((1, 0.75), (2, 1.0))
        assert curve.k80 == 2

    def test_monotone_and_ends_at_one(self):
        rng = random.Random(17)
        for _ in range(100):
            counts = random_counts(rng)
            curve = coverage_cdf(counts)
            fracs = [f for _, f in curve.points]
            assert all(b >= a for a, b in zip(fracs, fracs[1:]))
            assert fracs[-1] == pytest.approx(1.0, abs=1e-9)
            assert 1 <= curve.k80 <= len(fracs)
            # k80 is the smallest k whose coverage reaches 80%
            assert fracs[curve.k80 - 1] >= 0.8 - 1e-12
            if curve.k80 > 1:
                assert fracs[curve.k80 - 2] < 0.8

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            coverage_cdf({})

    @pytest.mark.parametrize("points", [(), ((1, 0.6), (2, 0.5)), ((1, 0.5), (2, 0.9))],
                             ids=["empty", "decreasing", "ends-below-one"])
    def test_a_bad_curve_is_a_domain_error(self, points):
        with pytest.raises(DomainError):
            CoverageCurve(points=points, k80=1)


class TestBatchedEntropy:
    def test_single_batch_equals_pooled(self):
        texts = ["a b a", "c a", "b b c"]
        tok = WordTokenizer()
        pooled_counts = Counter()
        for t in texts:
            pooled_counts.update(tok.tokenize(t))
        result = batched_entropy(texts, tok, batch_size=None)
        assert result.mean_bits == token_entropy(pooled_counts)
        assert len(result.per_batch_bits) == 1

    def test_two_identical_batches(self):
        texts = ["x y z", "x y z"]
        tok = WordTokenizer()
        result = batched_entropy(texts, tok, batch_size=1, seed=3)
        assert result.per_batch_bits[0] == result.per_batch_bits[1]
        assert result.mean_bits == result.per_batch_bits[0]

    def test_seed_fixes_the_shuffle(self):
        texts = [f"w{i} w{i % 3} shared" for i in range(20)]
        tok = WordTokenizer()
        a = batched_entropy(texts, tok, batch_size=3, seed=9)
        b = batched_entropy(texts, tok, batch_size=3, seed=9)
        assert a == b

    def test_pooled_at_least_mean_of_batches(self):
        # balanced batches drawn from one source distribution
        rng = random.Random(23)
        words = [f"w{i}" for i in range(40)]
        weights = [1 / (i + 1) for i in range(40)]
        texts = [" ".join(rng.choices(words, weights=weights, k=10))
                 for _ in range(100)]
        tok = WordTokenizer()
        pooled = batched_entropy(texts, tok, batch_size=None).mean_bits
        batched = batched_entropy(texts, tok, batch_size=10, seed=1).mean_bits
        assert pooled >= batched - 1e-12

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            batched_entropy([], WordTokenizer())

    def test_bad_batch_size_rejected(self):
        with pytest.raises(DomainError):
            batched_entropy(["a"], WordTokenizer(), batch_size=0)


def _report(h: float, unique: int, total: int, encoder="enc", task="t",
            arm="NL-QC") -> LexicalReport:
    return LexicalReport(
        encoder_id=encoder, task_id=task, arm=arm, rewriter_id="rw",
        vocab_size=50000, h_bits=h, unique_types=unique, total_tokens=total,
        ttr=unique / total, top20_mass=0.5, hapax_type_rate=0.3,
        hapax_token_rate=0.1, coverage=CoverageCurve(points=((1, 1.0),), k80=1))


class TestDeltaH:
    def test_identical_reports_zero(self):
        a = _report(7.0, 2000, 50000, arm="Baseline")
        b = _report(7.0, 2000, 50000)
        assert delta_h(a, b) == 0.0

    def test_published_style_values(self):
        # reference aggregates: 7.14 -> 8.52 is +1.38; 8.03 -> 8.45 is +0.42
        base = _report(7.14, 1078, 20000, arm="Baseline")
        nl = _report(8.52, 1624, 11768)
        assert delta_h(base, nl) == pytest.approx(1.38, abs=1e-9)
        base = _report(8.03, 1636, 18590, arm="Baseline")
        reph = _report(8.45, 2622, 36416)
        assert delta_h(base, reph) == pytest.approx(0.42, abs=1e-9)

    def test_encoder_mismatch_rejected(self):
        a = _report(7.0, 2000, 50000, encoder="e1", arm="Baseline")
        b = _report(7.5, 2000, 50000, encoder="e2")
        with pytest.raises(ConfigError):
            delta_h(a, b)

    def test_task_mismatch_rejected(self):
        a = _report(7.0, 2000, 50000, task="t1", arm="Baseline")
        b = _report(7.5, 2000, 50000, task="t2")
        with pytest.raises(ConfigError):
            delta_h(a, b)

    def test_with_delta_h_attaches_value(self):
        # score_arm attaches it, with the arm label, in one replace
        a = _report(7.0, 2000, 50000, arm="Baseline")
        b = _report(7.5, 2000, 50000, arm="corpus")
        arm = score_after_baseline(a, b)
        assert arm.lexical.delta_h_bits == pytest.approx(0.5, abs=1e-12)
        assert arm.lexical == replace(b, arm="NL-QC", delta_h_bits=arm.lexical.delta_h_bits)


class TestBuildLexicalReport:
    def test_hand_counted_fixture(self):
        # tokens: alpha beta alpha | gamma alpha beta
        texts = ["alpha beta alpha", "gamma alpha; beta!"]
        rep = build_lexical_report(texts, WordTokenizer(), encoder_id="e",
                                   task_id="t", arm="Baseline")
        assert rep.total_tokens == 6
        assert rep.unique_types == 3
        assert rep.ttr == pytest.approx(0.5, abs=1e-15)
        assert rep.top20_mass == pytest.approx(0.5, abs=1e-15)
        assert rep.hapax_type_rate == pytest.approx(1 / 3, abs=1e-15)
        assert rep.hapax_token_rate == pytest.approx(1 / 6, abs=1e-15)
        expected_h = -(0.5 * math.log2(0.5) + (1 / 3) * math.log2(1 / 3)
                       + (1 / 6) * math.log2(1 / 6))
        assert rep.h_bits == pytest.approx(expected_h, abs=1e-12)
        assert rep.coverage.k80 == 2

    def test_report_dict_roundtrip(self):
        rep = build_lexical_report(["a b c a"], WordTokenizer(), encoder_id="e",
                                   task_id="t", arm="NL-C", rewriter_id="rw")
        back = LexicalReport.from_dict(rep.to_dict())
        assert back == rep

    def test_invariant_violation_caught(self):
        with pytest.raises(DomainError):
            _report(20.0, 4, 100)  # H above log2(4)


def test_report_agrees_with_public_helpers_on_a_larger_corpus():
    rng = random.Random(4)
    words = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choices(words, weights=range(300, 0, -1), k=rng.randint(1, 40)))
             for _ in range(200)]
    tok = WordTokenizer(vocab_size=251)  # collisions merge some types
    tokens = [t for text in texts for t in tok.tokenize(text)]
    report = build_lexical_report(texts, tok, encoder_id="e", task_id="t", arm="Baseline")
    counts = sorted(Counter(tokens).values(), reverse=True)
    unique, total, hapax = len(counts), len(tokens), counts.count(1)
    assert report.h_bits == token_entropy(Counter(tokens))
    assert report.coverage == coverage_cdf(Counter(tokens))
    assert (report.unique_types, report.total_tokens, report.ttr, report.top20_mass,
            report.hapax_type_rate, report.hapax_token_rate) == (
        unique, total, unique / total, sum(counts[:math.ceil(0.2 * unique)]) / total,
        hapax / unique, hapax / total)


def test_word_counts_give_the_results_of_the_per_text_path(monkeypatch):
    rng = random.Random(20)
    words = [f"w{i}" for i in range(300)] + ["é", "名前", "x_y", "0"]
    texts = [" ".join(rng.choices(words, k=rng.randrange(12))) + rng.choice(["", ".", "\r\n"])
             for _ in range(700)] + ["", "\ud800"]
    tok = WordTokenizer(vocab_size=1000)  # some types share an id

    def results():
        return (build_lexical_report(texts, tok, encoder_id="e", task_id="t", arm="NL-C"),
                [batched_entropy(texts, tok, batch_size=size, seed=3)
                 for size in (None, 7, 300)])

    counted = results()
    monkeypatch.setattr(WordTokenizer, "count", Tokenizer.count)  # tokenize, text by text
    assert counted == results()


def test_statistics_equal_an_integer_oracle_bit_for_bit():
    rng = random.Random(31)
    # few distinct counts over many types, so ranks tie often: small tables,
    # then large ones with ids up to 2**20 and a few heavy types
    shapes = [(100, 60, (1, 1, 2, 3, 5))] * 300 + [(1 << 20, 3000, (1, 1, 1, 2, 3, 5, 997))] * 6
    for id_range, max_types, choices in shapes:
        ids = rng.sample(range(id_range), rng.randint(1, max_types))
        counts = {tok: rng.choice(choices) for tok in ids}
        tokens = [tok for tok, c in counts.items() for _ in range(c)]
        rng.shuffle(tokens)
        report = lexical_stats(tokens)
        ranked = sorted(counts.values(), reverse=True)
        unique, total, hapax = len(ranked), len(tokens), ranked.count(1)
        cums = list(accumulate(ranked))  # exact integer running totals
        assert report.top20_mass == sum(ranked[:-(-unique // 5)]) / total
        assert (report.hapax_type_rate, report.hapax_token_rate) == (hapax / unique,
                                                                     hapax / total)
        assert report.ttr == unique / total
        assert report.coverage.points == tuple((k, cum / total)
                                               for k, cum in enumerate(cums, 1))
        assert report.coverage.k80 == next(k for k, cum in enumerate(cums, 1)
                                           if 5 * cum >= 4 * total)
        # the text every file carries: that of json.dumps of the curve's rows
        rows = report.coverage.as_lists()
        encoded = Encoded(report.coverage.points)
        assert encoded.compact == json.dumps(rows)
        assert "".join(json_chunks({"c": encoded})) == json.dumps({"c": rows}, indent=1)
