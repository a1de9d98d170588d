"""Scoring functions: hand values, contracts, and ranking behaviour."""

import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from priorcase.index import PipelineMismatchError, build_index, load_index, persist_index
from priorcase.rankers import (
    SCORER_NAMES,
    BM25Params,
    Searcher,
    Variant,
    bm25_term_score,
    chunk_tokens,
    cosine_similarity,
    fuse_product,
    okapi_mean_idf,
    rank_documents,
    score_query,
    tfidf_weight,
)
from priorcase.stopwords import ENGLISH_STOPWORDS
from priorcase.textproc import (
    PRESET_FULL,
    PRESET_STANDARD,
    pipeline_fingerprint,
    tokenize_normalize,
)

from conftest import make_random_corpus, make_random_query, make_random_store, random_config
from oracles import naive_bm25, naive_rank


class TestTfidfWeight:
    def test_hand_value(self):
        assert tfidf_weight(2, 2, 1) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_df_equals_n_gives_zero(self):
        for tf in (0, 1, 7):
            assert tfidf_weight(tf, 5, 5) == 0.0

    def test_zero_tf(self):
        assert tfidf_weight(0, 10, 3) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tfidf_weight(1, 5, 0)
        with pytest.raises(ValueError):
            tfidf_weight(1, 5, 6)
        with pytest.raises(ValueError):
            tfidf_weight(-1, 5, 1)


class TestCosine:
    def test_identical_vectors(self):
        v = {"x": 0.3, "y": 1.7}
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert cosine_similarity({"x": 1.0}, {"y": 1.0}) == 0.0

    def test_hand_value(self):
        got = cosine_similarity({"x": 1.0, "y": 1.0}, {"x": 1.0})
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector(self):
        assert cosine_similarity({}, {"x": 1.0}) == 0.0
        assert cosine_similarity({}, {}) == 0.0


class TestBM25TermScore:
    def test_atire_hand_value(self):
        got = bm25_term_score(tf=1, df=1, n_docs=2, doc_len=4, avg_len=4.0)
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_tf_all_variants(self):
        for variant in Variant:
            got = bm25_term_score(0, 1, 2, 4, 4.0, variant=variant, avg_idf=1.0)
            assert got == 0.0

    def test_atire_df_equals_n(self):
        assert bm25_term_score(3, 4, 4, 10, 8.0) == 0.0

    def test_bm25l_hand_value(self):
        got = bm25_term_score(1, 1, 2, 4, 4.0, variant=Variant.BM25L)
        assert got == pytest.approx(1.25 * math.log(2), abs=1e-12)

    def test_okapi_hand_value(self):
        got = bm25_term_score(1, 1, 3, 4, 4.0, variant=Variant.OKAPI, avg_idf=1.0)
        assert got == pytest.approx(math.log(5 / 3), abs=1e-12)

    def test_okapi_floor_hand_value(self):
        # df=3 of N=4: idf = ln(1.5/3.5) < 0, replaced by 0.25 * 2.0
        got = bm25_term_score(1, 3, 4, 4, 4.0, variant=Variant.OKAPI, avg_idf=2.0)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_okapi_negative_idf_needs_mean(self):
        with pytest.raises(ValueError, match="mean idf"):
            bm25_term_score(1, 3, 4, 4, 4.0, variant=Variant.OKAPI)

    def test_bm25plus_hand_value(self):
        got = bm25_term_score(1, 1, 2, 4, 4.0, variant=Variant.BM25PLUS)
        assert got == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_df_zero_rejected(self):
        with pytest.raises(ValueError):
            bm25_term_score(1, 0, 2, 4, 4.0)

    def test_atire_monotone_in_tf(self):
        scores = [bm25_term_score(tf, 1, 3, 5, 5.0) for tf in range(1, 20)]
        assert all(b > a for a, b in zip(scores, scores[1:]))


class TestParams:
    def test_defaults(self):
        p = BM25Params()
        assert (p.k1, p.b, p.epsilon) == (1.5, 0.75, 0.25)
        assert p.delta_for(Variant.BM25L) == 0.5
        assert p.delta_for(Variant.BM25PLUS) == 1.0

    def test_explicit_delta_wins(self):
        p = BM25Params(delta=0.2)
        assert p.delta_for(Variant.BM25L) == 0.2
        assert p.delta_for(Variant.BM25PLUS) == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            BM25Params(k1=0.0)
        with pytest.raises(ValueError):
            BM25Params(b=1.5)
        with pytest.raises(ValueError):
            BM25Params(epsilon=-0.1)
        with pytest.raises(ValueError):
            BM25Params(delta=-1.0)


class TestFuseAndChunks:
    def test_fuse_arithmetic(self):
        assert fuse_product(0.5, 0.4) == pytest.approx(0.2)
        assert fuse_product(0.0, 0.9) == 0.0
        assert fuse_product(3.2, 0.0) == 0.0

    def test_fuse_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fuse_product(float("inf"), 0.5)

    def test_chunk_lengths(self):
        chunks = chunk_tokens(["t"] * 1030)
        assert [len(c) for c in chunks] == [512, 512, 6]

    def test_chunk_small_input(self):
        assert chunk_tokens(list("abcdefghij")) == [list("abcdefghij")]

    def test_chunk_empty(self):
        assert chunk_tokens([]) == []

    def test_chunks_concatenate_to_input(self):
        tokens = [f"t{i}" for i in range(777)]
        chunks = chunk_tokens(tokens, max_len=100)
        assert [t for c in chunks for t in c] == tokens

    def test_chunk_bad_max_len(self):
        with pytest.raises(ValueError):
            chunk_tokens(["a"], max_len=0)


@pytest.fixture
def small_index():
    return build_index([("d1", ["a", "a", "b"]), ("d2", ["b", "c"])], "fp")


class TestScoreQuery:
    def test_absent_term_yields_zero_scores_in_id_order(self, small_index):
        ranking = score_query(["zzz"], small_index, "bm25")
        assert ranking == [("d1", 0.0), ("d2", 0.0)]

    def test_single_document_corpus(self):
        idx = build_index([("only", ["law", "court"])], "fp")
        for scorer in ("tfidf_cos", "bm25", "bm25_okapi", "bm25l", "bm25plus",
                       "fused", "commonwords_bm25"):
            ranking = score_query(["law"], idx, scorer)
            assert ranking[0][0] == "only"

    def test_bm25_matches_brute_force(self, small_index):
        docs = {"d1": ["a", "a", "b"], "d2": ["b", "c"]}
        expected = naive_rank(naive_bm25(docs, ["a"]), ["d1", "d2"])
        got = score_query(["a"], small_index, "bm25")
        assert [d for d, _ in got] == [d for d, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-9)
        assert got[1] == ("d2", 0.0)

    def test_duplicate_query_terms_double_the_score(self, small_index):
        once = dict(score_query(["a"], small_index, "bm25"))
        twice = dict(score_query(["a", "a"], small_index, "bm25"))
        assert twice["d1"] == pytest.approx(2 * once["d1"])

    def test_tfidf_scores_within_unit_interval(self, small_index):
        for query in (["a"], ["a", "b"], ["b", "c", "c"], ["zzz"]):
            for _doc, score in score_query(query, small_index, "tfidf_cos"):
                assert 0.0 <= score <= 1.0 + 1e-12

    def test_fused_is_product(self, small_index):
        bm25 = dict(score_query(["a", "b"], small_index, "bm25"))
        cos = dict(score_query(["a", "b"], small_index, "tfidf_cos"))
        fused = dict(score_query(["a", "b"], small_index, "fused"))
        for doc in ("d1", "d2"):
            assert fused[doc] == pytest.approx(bm25[doc] * cos[doc])

    def test_commonwords_multiplier(self, small_index):
        bm25 = dict(score_query(["a", "b"], small_index, "bm25"))
        common = dict(score_query(["a", "b"], small_index, "commonwords_bm25"))
        assert common["d1"] == pytest.approx(2 * bm25["d1"])  # shares a and b
        assert common["d2"] == pytest.approx(1 * bm25["d2"])  # shares b only

    def test_unknown_scorer(self, small_index):
        with pytest.raises(ValueError, match="unknown scorer"):
            score_query(["a"], small_index, "pagerank")

    def test_embed_needs_store(self, small_index):
        with pytest.raises(ValueError, match="embedding store"):
            score_query(["a"], small_index, "embed", query_id="q1")

    def test_embed_needs_query_id(self, small_index):
        store = make_random_store(random.Random(0), ["d1", "d2"], ["q1"])
        with pytest.raises(ValueError, match="query id"):
            score_query(["a"], small_index, "embed", embeddings=store)

    def test_rake_needs_corpus_texts(self, small_index):
        with pytest.raises(ValueError, match="corpus texts"):
            score_query(["a"], small_index, "rake_tfidf",
                        config=None, query_text="a b")

    def test_pipeline_mismatch_rejected(self):
        fp = pipeline_fingerprint(PRESET_STANDARD)
        idx = build_index([("d1", ["court"])], fp)
        with pytest.raises(PipelineMismatchError):
            Searcher(idx, config=PRESET_FULL)
        # matching config is accepted
        Searcher(idx, config=PRESET_STANDARD)


class TestRankingInvariants:
    def test_tie_break_ascending_doc_id(self):
        ranking = rank_documents({"b": 1.0, "a": 1.0, "c": 2.0}, ["a", "b", "c"])
        assert ranking == [("c", 2.0), ("a", 1.0), ("b", 1.0)]

    def test_every_document_appears_once(self, small_index):
        ranking = score_query(["a"], small_index, "bm25")
        assert sorted(d for d, _ in ranking) == ["d1", "d2"]

    def test_fused_scaling_leaves_order_unchanged(self):
        rng = random.Random(13)
        for _ in range(200):
            docs = [f"d{i}" for i in range(rng.randint(2, 15))]
            bm25 = {d: rng.random() * 10 for d in docs}
            cos = {d: rng.random() for d in docs}
            c = rng.choice([1e-6, 0.5, 3.0, 1e6]) * rng.random() + 1e-9
            base = rank_documents({d: fuse_product(bm25[d], cos[d]) for d in docs}, docs)
            scaled = rank_documents({d: fuse_product(c * bm25[d], cos[d]) for d in docs}, docs)
            assert [d for d, _ in base] == [d for d, _ in scaled]

    def test_atire_document_with_term_beats_document_without(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(2, 10)
            docs = {}
            with_term = rng.sample(range(n), rng.randint(1, n - 1))
            for i in range(n):
                tokens = ["filler"] * rng.randint(1, 8)
                if i in with_term:
                    tokens += ["needle"] * rng.randint(1, 3)
                docs[f"d{i:02d}"] = tokens
            idx = build_index(sorted(docs.items()), "fp")
            scores = dict(score_query(["needle"], idx, "bm25"))
            have = {f"d{i:02d}" for i in with_term}
            worst_with = min(scores[d] for d in have)
            best_without = max(scores[d] for d in scores if d not in have)
            assert worst_with > best_without
            assert all(s >= 0.0 for s in scores.values())


class TestDeterminism:
    def test_parallel_scoring_matches_sequential(self, small_index):
        searcher = Searcher(small_index)
        queries = [["a"], ["b", "c"], ["a", "b", "c"], ["zzz"]] * 5
        sequential = [searcher.score("fused", q) for q in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda q: searcher.score("fused", q), queries))
        assert parallel == sequential

    def test_repeat_scoring_is_identical(self, small_index):
        first = score_query(["a", "b"], small_index, "tfidf_cos")
        second = score_query(["a", "b"], small_index, "tfidf_cos")
        assert first == second


def test_okapi_mean_idf_matches_direct_sum(small_index):
    n = small_index.n_docs
    expected = sum(
        math.log((n - df + 0.5) / (df + 0.5)) for df in small_index.df.values()
    ) / len(small_index.df)
    assert okapi_mean_idf(small_index) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# exact reference: the per-posting loops the array core replaced

def reference_ranking(index, scorer, query, params=BM25Params()):
    """Score one query posting by posting, then fully sort.

    This is the dict-of-postings implementation the dense accumulator
    replaced; `Searcher.score` must equal it bit for bit.
    """
    n = index.n_docs
    avg_idf = okapi_mean_idf(index)

    def bm25(variant):
        scores = {}
        for term, qcount in Counter(query).items():
            for doc_id, tf in index.postings.get(term, ()):
                contrib = bm25_term_score(tf, index.df[term], n, index.doc_len[doc_id],
                                          index.avg_len, params, variant, avg_idf)
                scores[doc_id] = scores.get(doc_id, 0.0) + qcount * contrib
        return scores

    def tfidf():
        def idf(term):
            return math.log(n / index.df[term])

        sq = {}
        for term, plist in index.postings.items():
            for doc_id, tf in plist:
                w = tf * idf(term)
                sq[doc_id] = sq.get(doc_id, 0.0) + w * w
        qvec = {}
        for term, tf in Counter(query).items():
            if term in index.df and tf * idf(term) != 0.0:
                qvec[term] = tf * idf(term)
        if not qvec:
            return {}
        qnorm = math.sqrt(sum(w * w for w in qvec.values()))
        dots = {}
        for term, qw in qvec.items():
            for doc_id, tf in index.postings[term]:
                dots[doc_id] = dots.get(doc_id, 0.0) + qw * tf * idf(term)
        return {d: dot / (qnorm * math.sqrt(sq[d])) if sq.get(d, 0.0) > 0.0 else 0.0
                for d, dot in dots.items()}

    variants = {"bm25": Variant.ATIRE, "bm25_okapi": Variant.OKAPI,
                "bm25l": Variant.BM25L, "bm25plus": Variant.BM25PLUS}
    if scorer in variants:
        scores = bm25(variants[scorer])
    elif scorer == "tfidf_cos":
        scores = tfidf()
    elif scorer == "fused":
        b, c = bm25(Variant.ATIRE), tfidf()
        scores = {d: fuse_product(b.get(d, 0.0), c.get(d, 0.0)) for d in b.keys() | c.keys()}
    elif scorer == "commonwords_bm25":
        overlap = Counter(d for term in set(query) for d, _tf in index.postings.get(term, ()))
        b = bm25(Variant.ATIRE)
        scores = {d: count * b.get(d, 0.0) for d, count in overlap.items()}
    else:
        raise AssertionError(scorer)
    return rank_documents(scores, index.doc_ids)


LEXICAL = ("bm25", "bm25_okapi", "bm25l", "bm25plus", "tfidf_cos", "fused", "commonwords_bm25")


def _random_setup(rng):
    config = random_config(rng)
    raw = make_random_corpus(rng, vocab_limit=rng.choice([6, 14, 25]))
    docs = {d: tokenize_normalize(t, config, ENGLISH_STOPWORDS) for d, t in raw.items()}
    if not any(docs.values()):
        return None
    # shuffled input: positions must follow the ids, not the input order
    items = list(docs.items())
    rng.shuffle(items)
    return config, raw, build_index(items, pipeline_fingerprint(config))


class TestExactReference:
    def test_scores_equal_per_posting_reference(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(120):
            setup = _random_setup(rng)
            if setup is None:
                continue
            config, raw, index = setup
            params = rng.choice([BM25Params(), BM25Params(k1=0.9, b=0.4, delta=0.7),
                                 BM25Params(k1=2.0, b=1.0, epsilon=0.5)])
            searcher = Searcher(index, config=config, params=params)
            for _q in range(3):
                query = tokenize_normalize(make_random_query(rng, raw), config)
                for scorer in LEXICAL:
                    assert searcher.score(scorer, query) == reference_ranking(
                        index, scorer, query, params), scorer
                    checked += 1
        assert checked > 1500

    def test_search_all_equals_reference_prefix(self):
        rng = random.Random(77)
        for _ in range(40):
            setup = _random_setup(rng)
            if setup is None:
                continue
            config, raw, index = setup
            searcher = Searcher(index, config=config)
            queries = [(f"q{i}", make_random_query(rng, raw)) for i in range(3)]
            top_n = rng.randint(1, index.n_docs + 2)
            for scorer in LEXICAL:
                run = searcher.search_all(queries, scorer, top_n=top_n)
                for qid, text in queries:
                    full = reference_ranking(index, scorer, tokenize_normalize(text, config))
                    assert run[qid] == full[:top_n], (scorer, top_n)

    def test_ties_at_cut_off_keep_lowest_ids(self):
        # d9 scores highest; d0..d8 tie, and the cut-off falls among them
        docs = [(f"d{i}", ["court", "law"]) for i in range(9)]
        docs += [("d9", ["court", "court", "law"]), ("e0", ["tax", "law"])]
        fp = pipeline_fingerprint(PRESET_STANDARD)
        searcher = Searcher(build_index(docs[::-1], fp), config=PRESET_STANDARD)
        run = searcher.search_all([("q", "court")], "bm25", top_n=4)
        assert [d for d, _ in run["q"]] == ["d9", "d0", "d1", "d2"]
        assert run["q"][1][1] == run["q"][3][1] > 0.0
        # zero scores tie too: the lowest ids fill the list after the match
        run = searcher.search_all([("q", "tax")], "bm25", top_n=3)
        assert [d for d, _ in run["q"]] == ["e0", "d0", "d1"]
        assert run["q"][1][1] == 0.0

    def test_persisted_copy_searches_identically(self, tmp_path):
        rng = random.Random(5150)
        for trial in range(10):
            setup = _random_setup(rng)
            if setup is None:
                continue
            config, raw, built = setup
            path = tmp_path / f"{trial}.idx"
            persist_index(built, path)
            loaded = load_index(path)
            assert loaded == built
            store = make_random_store(rng, built.doc_ids, ["q0", "q1"])
            queries = [(f"q{i}", make_random_query(rng, raw)) for i in range(2)]
            runs = [
                {scorer: Searcher(idx, config=config, embeddings=store, corpus_texts=raw)
                 .search_all(queries, scorer, top_n=5) for scorer in SCORER_NAMES}
                for idx in (built, loaded)
            ]
            assert runs[0] == runs[1]


class TestOkapiNegativeFloor:
    def test_common_terms_lower_every_score(self):
        # df = N for both terms: every raw IDF, and so the mean, is negative
        idx = build_index([("d1", ["a", "b"]), ("d2", ["a", "b"]), ("d3", ["a", "b"])], "fp")
        assert okapi_mean_idf(idx) == pytest.approx(math.log(0.5 / 3.5))
        ranking = score_query(["a", "b"], idx, "bm25_okapi")
        # each term: floor 0.25 * ln(1/7) times a tf factor of exactly 1
        assert [s for _d, s in ranking] == pytest.approx([0.5 * math.log(1 / 7)] * 3)
        assert all(s < 0.0 for _d, s in ranking)

    def test_document_without_query_terms_ranks_first(self):
        idx = build_index(
            [("d1", ["a", "b"]), ("d2", ["a", "b"]), ("d3", ["a", "b"]), ("d4", ["c"])], "fp"
        )
        assert okapi_mean_idf(idx) < 0.0
        ranking = score_query(["a", "b"], idx, "bm25_okapi")
        assert ranking[0] == ("d4", 0.0)
        assert all(s < 0.0 for _d, s in ranking[1:])
