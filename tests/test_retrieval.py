import math
import tracemalloc
import warnings
from itertools import permutations, product

import numpy as np
import pytest

from rewritebench import retrieval
from rewritebench.errors import ContractError, DomainError
from rewritebench.geometry import EmbeddingMatrix, l2_normalize
from rewritebench.retrieval import (RankedList, build_judgments, ndcg_at_k,
                                    retrieve_topk, score_queries)


# --- independent oracles -------------------------------------------------

def ndcg_oracle(order: list[str], qrels: dict[str, int], k: int = 10) -> float:
    """Direct-definition NDCG evaluation, written separately from the
    implementation (explicit generator sums, no shared helpers)."""
    dcg = sum(qrels.get(d, 0) / math.log2(i + 1)
              for i, d in enumerate(order[:k], start=1))
    ideal = sorted((g for g in qrels.values() if g > 0), reverse=True)
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal[:k], start=1))
    return dcg / idcg


def brute_force_topk(query_vec: np.ndarray, doc_ids: tuple[str, ...],
                     doc_vecs: np.ndarray, k: int) -> list[str]:
    """Full-sort oracle: python sort on (-score, doc_id)."""
    scored = [(float(query_vec @ doc_vecs[i]), doc_ids[i])
              for i in range(len(doc_ids))]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [d for _, d in scored[:k]]


def ranked(query_id: str, ids: list[str]) -> RankedList:
    # descending dummy scores so constructor ordering checks pass
    return RankedList(query_id=query_id,
                      entries=tuple((d, float(len(ids) - i))
                                    for i, d in enumerate(ids)))


# --- RankedList contract -------------------------------------------------

class TestRankedList:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ContractError):
            RankedList(query_id="q", entries=(("d1", 1.0), ("d1", 0.5)))

    def test_rejects_score_ascending(self):
        with pytest.raises(ContractError):
            RankedList(query_id="q", entries=(("d1", 0.5), ("d2", 1.0)))

    def test_rejects_bad_tiebreak(self):
        with pytest.raises(ContractError):
            RankedList(query_id="q", entries=(("d2", 1.0), ("d1", 1.0)))

    def test_accepts_compliant_ordering(self):
        r = RankedList(query_id="q", entries=(("d1", 1.0), ("d2", 1.0), ("a", 0.5)))
        assert r.doc_ids == ("d1", "d2", "a")


# --- ndcg_at_k ------------------------------------------------------------

class TestNdcg:
    def test_ideal_ranking_is_one(self):
        assert ndcg_at_k(ranked("q", ["d1", "d2"]), {"d1": 1}) == 1.0

    def test_relevant_at_rank_two(self):
        # 1/log2(3), frozen from the hand derivation
        val = ndcg_at_k(ranked("q", ["d2", "d1"]), {"d1": 1})
        assert val == pytest.approx(0.63093, abs=1e-5)
        assert val == pytest.approx(ndcg_oracle(["d2", "d1"], {"d1": 1}), abs=1e-12)

    def test_graded_case_matches_oracle(self):
        # qrels {d1:2, d2:1}, ranking [d2, d1, d3]; oracle-computed 0.85972
        # ([d1,d2,d3] is the unique maximizer at 1.0 over all 3! orderings)
        qrels = {"d1": 2, "d2": 1}
        val = ndcg_at_k(ranked("q", ["d2", "d1", "d3"]), qrels)
        assert val == pytest.approx(ndcg_oracle(["d2", "d1", "d3"], qrels), abs=1e-12)
        assert val == pytest.approx(0.85972, abs=1e-5)
        scores = {p: ndcg_at_k(ranked("q", list(p)), qrels)
                  for p in permutations(["d1", "d2", "d3"])}
        assert scores[("d1", "d2", "d3")] == pytest.approx(1.0, abs=1e-12)
        others = [v for p, v in scores.items() if p != ("d1", "d2", "d3")]
        assert max(others) < 1.0

    def test_exp_gain_mode(self):
        qrels = {"d1": 2, "d2": 1}
        val = ndcg_at_k(ranked("q", ["d2", "d1"]), qrels, gain="exp")
        dcg = (2 ** 1 - 1) / math.log2(2) + (2 ** 2 - 1) / math.log2(3)
        idcg = (2 ** 2 - 1) / math.log2(2) + (2 ** 1 - 1) / math.log2(3)
        assert val == pytest.approx(dcg / idcg, abs=1e-12)

    def test_truncation_at_k(self):
        qrels = {"d9": 1}
        order = [f"d{i}" for i in range(10)]  # d9 at rank 10
        assert ndcg_at_k(ranked("q", order), qrels, k=10) == \
            pytest.approx(1 / math.log2(11), abs=1e-12)
        with_cut = ndcg_at_k(ranked("q", order), qrels, k=5)
        assert with_cut == 0.0

    def test_no_positive_grade_is_contract_violation(self):
        with pytest.raises(ContractError):
            ndcg_at_k(ranked("q", ["d1"]), {"d1": 0})

    def test_all_permutations_properties(self):
        """Exhaustive check on every qrels pattern over <= 4 docs: range,
        the value-1 characterization, and swap monotonicity."""
        for n_docs in (1, 2, 3, 4):
            docs = [f"d{i}" for i in range(n_docs)]
            for grades in product((0, 1, 2), repeat=n_docs):
                if not any(g > 0 for g in grades):
                    continue
                qrels = {d: g for d, g in zip(docs, grades) if g > 0}
                for perm in permutations(docs):
                    val = ndcg_at_k(ranked("q", list(perm)), qrels, k=n_docs)
                    oracle = ndcg_oracle(list(perm), qrels, k=n_docs)
                    assert val == pytest.approx(oracle, abs=1e-12)
                    assert -1e-12 <= val <= 1.0 + 1e-12
                    # value is 1 iff grades along the ranking are non-increasing
                    seq = [qrels.get(d, 0) for d in perm]
                    is_ideal = all(a >= b for a, b in zip(seq, seq[1:]))
                    assert (abs(val - 1.0) < 1e-12) == is_ideal
                    # moving a higher-graded doc below a lower-graded one
                    # never helps
                    for i in range(n_docs):
                        for j in range(i + 1, n_docs):
                            if seq[i] > seq[j]:
                                worse = list(perm)
                                worse[i], worse[j] = worse[j], worse[i]
                                worse_val = ndcg_at_k(ranked("q", worse), qrels,
                                                      k=n_docs)
                                assert worse_val <= val + 1e-12

    def test_unique_maximizer_with_distinct_grades(self):
        qrels = {"d0": 3, "d1": 2, "d2": 1}
        best = [p for p in permutations(["d0", "d1", "d2"])
                if abs(ndcg_at_k(ranked("q", list(p)), qrels) - 1.0) < 1e-12]
        assert best == [("d0", "d1", "d2")]

    def test_queries_without_a_positive_grade_are_not_scored(self):
        corpus = matrix(["d1"], [[1.0]])
        queries = matrix(["q1", "q2", "q3"], [[1.0], [1.0], [1.0]])
        qrels = {"q1": {"d1": 1}, "q2": {"d1": 0}}
        out = score_queries(queries, corpus, build_judgments(corpus.ids, qrels, k=1))
        assert set(out) == {"q1"}
        with pytest.raises(DomainError, match="no evaluable query"):
            score_queries(queries, corpus, build_judgments(corpus.ids, {"q2": {"d1": 0}}, k=1))


# --- retrieve_topk ---------------------------------------------------------

def matrix(ids, vectors, encoder="enc") -> EmbeddingMatrix:
    return l2_normalize(EmbeddingMatrix(encoder_id=encoder, ids=tuple(ids),
                                        vectors=np.asarray(vectors, dtype=float)))


class TestRetrieveTopk:
    def test_exact_match_scores_one(self):
        corpus = matrix(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        queries = matrix(["q"], [[1.0, 0.0]])
        (r,) = retrieve_topk(queries, corpus, k=2)
        assert r.entries[0][0] == "a"
        assert r.entries[0][1] == pytest.approx(1.0, abs=1e-12)
        assert r.entries[1] == ("b", pytest.approx(0.0, abs=1e-12))

    def test_matches_brute_force_on_random_fixture(self):
        rng = np.random.default_rng(123)
        corpus = matrix([f"d{i:04d}" for i in range(200)],
                        rng.standard_normal((200, 16)))
        queries = matrix([f"q{i}" for i in range(20)],
                         rng.standard_normal((20, 16)))
        results = retrieve_topk(queries, corpus, k=10)
        for qi, res in enumerate(results):
            expected = brute_force_topk(queries.vectors[qi], corpus.ids,
                                        corpus.vectors, k=10)
            assert list(res.doc_ids) == expected

    def test_ties_break_by_ascending_doc_id(self):
        # duplicate vectors force exact score ties
        v = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        corpus = matrix(["z-doc", "a-doc", "m-doc"], v)
        queries = matrix(["q"], [[1.0, 0.0]])
        (r,) = retrieve_topk(queries, corpus, k=3)
        assert list(r.doc_ids) == ["a-doc", "z-doc", "m-doc"]

    def test_k_clamped_with_warning(self):
        corpus = matrix(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        queries = matrix(["q"], [[1.0, 0.0]])
        with pytest.warns(UserWarning, match="clamping"):
            (r,) = retrieve_topk(queries, corpus, k=5)
        assert len(r.entries) == 2

    def test_encoder_mismatch_fatal(self):
        corpus = matrix(["a"], [[1.0, 0.0]], encoder="e1")
        queries = matrix(["q"], [[1.0, 0.0]], encoder="e2")
        with pytest.raises(ContractError, match="encoder"):
            retrieve_topk(queries, corpus)

    def test_dimension_mismatch_fatal(self):
        corpus = matrix(["a"], [[1.0, 0.0, 0.0]])
        queries = matrix(["q"], [[1.0, 0.0]])
        with pytest.raises(ContractError, match="dimension"):
            retrieve_topk(queries, corpus)

    def test_unnormalized_rejected(self):
        corpus = EmbeddingMatrix(encoder_id="e", ids=("a",),
                                 vectors=np.array([[2.0, 0.0]]))
        queries = matrix(["q"], [[1.0, 0.0]])
        with pytest.raises(ContractError, match="normalized"):
            retrieve_topk(queries, corpus)

    def test_score_shift_leaves_ranking_unchanged(self):
        rng = np.random.default_rng(5)
        corpus = matrix([f"d{i}" for i in range(30)], rng.standard_normal((30, 8)))
        queries = matrix(["q0", "q1"], rng.standard_normal((2, 8)))
        base = retrieve_topk(queries, corpus, k=10)
        # adding a constant to every similarity must not reorder anything
        for qi, res in enumerate(base):
            shifted = sorted(range(30),
                             key=lambda i: (-(float(queries.vectors[qi] @ corpus.vectors[i]) + 7.5),
                                            corpus.ids[i]))[:10]
            assert [corpus.ids[i] for i in shifted] == list(res.doc_ids)


def lexsort_oracle(queries: EmbeddingMatrix, corpus: EmbeddingMatrix,
                   k: int) -> list[list[str]]:
    """Full (score desc, doc id asc) sort of every score row."""
    id_rank = np.argsort(np.argsort(np.array(corpus.ids)))
    scores = queries.vectors @ corpus.vectors.T
    return [[corpus.ids[i] for i in np.lexsort((id_rank, -row))[:k]]
            for row in scores]


class TestPartitionedTopk:
    """Few distinct doc vectors, so many exact score ties cross the k-th
    boundary; more queries than one partition block."""

    @pytest.fixture(scope="class")
    def tied(self):
        rng = np.random.default_rng(11)
        levels = rng.standard_normal((4, 8))
        n_docs = 60
        ids = [f"d{i:03d}" for i in rng.permutation(n_docs)]
        corpus = matrix(ids, levels[rng.integers(0, 4, n_docs)])
        queries = matrix([f"q{i}" for i in range(300)],
                         rng.standard_normal((300, 8)))
        return queries, corpus

    @pytest.mark.parametrize("k", [1, 5, 10, 16, 59, 60])
    def test_equals_full_sort_oracle(self, tied, k):
        queries, corpus = tied
        results = retrieve_topk(queries, corpus, k=k)
        assert [r.query_id for r in results] == list(queries.ids)
        assert [list(r.doc_ids) for r in results] == lexsort_oracle(queries, corpus, k)

    def test_ties_do_straddle_the_boundary(self, tied):
        queries, corpus = tied
        scores = queries.vectors @ corpus.vectors.T
        kth = -np.sort(-scores, axis=1)[:, 9]
        straddling = ((scores == kth[:, None]).sum(axis=1)
                      > (-np.sort(-scores, axis=1)[:, :10] == kth[:, None]).sum(axis=1))
        assert straddling.any()

    def test_k_above_corpus_clamps_to_full_sort(self, tied):
        queries, corpus = tied
        with pytest.warns(UserWarning, match="clamping"):
            results = retrieve_topk(queries, corpus, k=75)
        assert [list(r.doc_ids) for r in results] == lexsort_oracle(queries, corpus, 60)

    def test_scores_are_the_gemm_entries(self, tied):
        queries, corpus = tied
        scores = queries.vectors @ corpus.vectors.T
        col = {d: j for j, d in enumerate(corpus.ids)}
        for qi, r in enumerate(retrieve_topk(queries, corpus, k=10)):
            assert [s for _, s in r.entries] == [float(scores[qi, col[d]])
                                                for d in r.doc_ids]

    @pytest.mark.parametrize("n_queries", [257, 333])
    def test_scores_are_the_entries_of_each_blocks_gemm(self, n_queries):
        # more queries than one GEMM block, the last block one row or a
        # part: each score is the entry of its own block's product
        rng = np.random.default_rng(n_queries)
        corpus = matrix([f"d{i}" for i in range(501)], rng.standard_normal((501, 160)))
        queries = matrix([f"q{i}" for i in range(n_queries)],
                         rng.standard_normal((n_queries, 160)))
        rows = retrieval._GEMM_ROWS
        assert rows < n_queries
        scores = np.vstack([queries.vectors[a:a + rows] @ corpus.vectors.T
                            for a in range(0, n_queries, rows)])
        for qi, r in enumerate(retrieve_topk(queries, corpus, k=10)):
            assert [s for _, s in r.entries] == [float(scores[qi, int(d[1:])])
                                                for d in r.doc_ids]


# --- the matrix path: NDCG straight from the top-k rows ---------------------

def ndcg_over_ranked_lists(queries: EmbeddingMatrix, corpus: EmbeddingMatrix,
                           qrels: dict[str, dict[str, int]], k: int,
                           gain: str) -> dict[str, float]:
    """Reference: ndcg_at_k over the RankedLists of retrieve_topk, for each
    query with a positive grade, in query order."""
    out = {}
    for r in retrieve_topk(queries, corpus, k=k):
        grades = qrels.get(r.query_id, {})
        if any(g > 0 for g in grades.values()):
            out[r.query_id] = ndcg_at_k(r, grades, k=k, gain=gain)
    return out


def tied_inputs(seed: int, n_docs: int = 40, n_queries: int = 300):
    """Integer-valued vectors of dimension 3 (so many exact score ties,
    some at the k-th score), some docs duplicating another's row, doc ids
    in shuffled order, and qrels with zero grades, positives on unknown
    doc ids, and queries with no positive grade or no qrels at all."""
    rng = np.random.default_rng(seed)
    vecs = rng.integers(-2, 3, (n_docs, 3)).astype(float)
    vecs[rng.integers(0, n_docs, 8)] = vecs[rng.integers(0, n_docs, 8)]  # duplicate rows
    vecs[~vecs.any(axis=1)] = 1.0
    ids = [f"d{i:03d}" for i in rng.permutation(n_docs)]
    corpus = matrix(ids, vecs)
    qvecs = rng.integers(-2, 3, (n_queries, 3)).astype(float)
    qvecs[~qvecs.any(axis=1)] = 1.0
    queries = matrix([f"q{i}" for i in range(n_queries)], qvecs)
    qrels: dict[str, dict[str, int]] = {}
    for qid in queries.ids:
        if rng.random() < 0.1:
            continue  # no qrels row at all
        docs = list(rng.choice(ids, rng.integers(1, min(6, n_docs + 1)), replace=False))
        docs += [f"unknown{j}" for j in range(rng.integers(0, 3))]
        qrels[qid] = {d: int(rng.integers(0, 4)) for d in docs}
    return queries, corpus, qrels


class TestMatrixPathScoring:
    @pytest.mark.parametrize("gain", ["linear", "exp"])
    @pytest.mark.parametrize("k", [1, 3, 10, 39, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_ndcg_at_k_over_retrieve_topk(self, seed, k, gain):
        queries, corpus, qrels = tied_inputs(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = score_queries(queries, corpus, build_judgments(corpus.ids, qrels, k=k,
                                                                 gain=gain))
        want = ndcg_over_ranked_lists(queries, corpus, qrels, k, gain)
        assert list(got.items()) == list(want.items())
        assert len(got) < queries.n_rows  # some queries were excluded

    @pytest.mark.parametrize("gain", ["linear", "exp"])
    def test_k_above_the_corpus_clamps_with_the_same_warning(self, gain):
        # few docs and many positives on unknown ids: the ideal DCG sums
        # more grades than the corpus has rows
        queries, corpus, qrels = tied_inputs(3, n_docs=4, n_queries=50)
        with pytest.warns(UserWarning) as got_warnings:
            got = score_queries(queries, corpus, build_judgments(corpus.ids, qrels, k=7,
                                                                 gain=gain))
        with pytest.warns(UserWarning) as want_warnings:
            want = ndcg_over_ranked_lists(queries, corpus, qrels, 7, gain)
        assert [str(w.message) for w in got_warnings] == \
            [str(w.message) for w in want_warnings] == ["k=7 exceeds corpus size 4; clamping"]
        assert list(got.items()) == list(want.items())

    def test_ties_do_straddle_the_boundary(self):
        queries, corpus, _ = tied_inputs(0)
        scores = -np.sort(-(queries.vectors @ corpus.vectors.T), axis=1)
        assert (scores[:, 9] == scores[:, 10]).any()
        assert (corpus.vectors[:, None] == corpus.vectors[None]).all(axis=2).sum() > \
            corpus.n_rows  # duplicate rows

    @pytest.mark.parametrize("k", [1, 10, 1999])
    def test_blocks_of_rows_with_ties_and_nan_scores(self, k):
        # 2,000 docs make blocks of a few rows, so block edges fall between
        # queries; a NaN query row and a NaN doc row never pass the k-th
        # score, and their rows fall back to the full sort
        queries, corpus, qrels = tied_inputs(4, n_docs=2000, n_queries=200)
        assert retrieval._TOPK_BLOCK_BYTES // (8 * corpus.n_rows) < queries.n_rows // 4
        queries.vectors[[0, 33, 199]] = np.nan
        corpus.vectors[[5, 1500]] = np.nan
        got = score_queries(queries, corpus, build_judgments(corpus.ids, qrels, k=k))
        assert list(got.items()) == list(
            ndcg_over_ranked_lists(queries, corpus, qrels, k, "linear").items())

    def test_the_partition_scratch_is_bounded_in_bytes(self):
        # the scores are one GEMM per block of query rows, written into one
        # buffer, and np.partition copies the part of it that it works on:
        # the memory score_queries takes stays under one GEMM block and one
        # partition block, however many queries the cell has
        n_docs = 8000
        block = retrieval._GEMM_ROWS * n_docs * 8
        peaks = {}
        for n_queries in (256, 1024):
            queries, corpus, qrels = tied_inputs(5, n_docs=n_docs, n_queries=n_queries)
            judgments = build_judgments(corpus.ids, qrels, k=10)
            tracemalloc.start()
            try:
                scores = score_queries(queries, corpus, judgments)
                peaks[n_queries] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(scores) > n_queries // 2
        assert block < peaks[256] < block + 4 * retrieval._TOPK_BLOCK_BYTES
        # what grows is the dict of scores it returns
        assert peaks[1024] < peaks[256] + 100 * 1024

    def test_a_corpus_other_than_the_judged_one_is_rejected(self):
        queries, corpus, qrels = tied_inputs(0)
        judged = build_judgments(corpus.ids[::-1], qrels, k=10)
        with pytest.raises(ContractError, match="doc ids"):
            score_queries(queries, corpus, judged)
