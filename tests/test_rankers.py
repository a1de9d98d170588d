"""Scoring functions: hand values, contracts, and ranking behaviour."""

import copy
import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import priorcase.rankers as rankers_module
from priorcase.embeddings import EmbeddingStore, aggregate_chunk_similarity
from priorcase.index import PipelineMismatchError, build_index, load_index, persist_index
from priorcase.rankers import (
    SCORER_NAMES,
    BM25Params,
    Searcher,
    Variant,
    _bm25_idf,
    bm25_term_score,
    build_rake_vocabulary,
    fuse_product,
    okapi_mean_idf,
    rank_documents,
)
from priorcase.stopwords import ENGLISH_STOPWORDS
from priorcase.textproc import (
    PRESET_FULL,
    PRESET_NONE,
    PRESET_STANDARD,
    pipeline_fingerprint,
    tokenize_normalize,
)

from conftest import (
    CONTENT_WORDS,
    STOP_SAMPLE,
    make_postings_corpus,
    make_random_corpus,
    make_random_query,
    make_random_store,
    random_config,
    traced_peak,
)
from oracles import naive_bm25, naive_rake_vocab, naive_rank


def tfidf_scores(docs, query):
    """tfidf_cos scores by document id for a corpus of token lists."""
    ranking = Searcher(build_index(list(docs.items()), "fp")).score("tfidf_cos", query)
    return dict(ranking)


class TestTfidfWeight:
    """The weight tf * ln(N / df), as tfidf_cos sees it."""

    def test_hand_value(self):
        # N = 2, every idf is ln 2: d1 = (2 ln 2, ln 2) over (a, c)
        scores = tfidf_scores({"d1": ["a", "a", "c"], "d2": ["b"]}, ["a"])
        assert scores["d1"] == pytest.approx(2 / math.sqrt(5), abs=1e-12)

    def test_df_equals_n_gives_zero(self):
        docs = {"d1": ["a", "b"], "d2": ["a", "c"]}
        assert tfidf_scores(docs, ["a"]) == {"d1": 0.0, "d2": 0.0}
        # a weighs 0 in the query too, so it changes no score
        assert tfidf_scores(docs, ["a", "b"]) == tfidf_scores(docs, ["b"])

    def test_zero_tf(self):
        scores = tfidf_scores({"d1": ["a", "a", "b"], "d2": ["b", "c"]}, ["a"])
        assert scores["d2"] == 0.0 and scores["d1"] > 0.0


class TestCosine:
    """tfidf_cos is the cosine of the query and document weight vectors."""

    def test_identical_vectors(self):
        docs = {"d1": ["x", "y", "y"], "d2": ["z"]}
        assert tfidf_scores(docs, ["x", "y", "y"])["d1"] == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert tfidf_scores({"d1": ["x"], "d2": ["y"]}, ["y"])["d1"] == 0.0

    def test_hand_value(self):
        scores = tfidf_scores({"d1": ["x", "y"], "d2": ["z"]}, ["x"])
        assert scores["d1"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector(self):
        docs = {"d1": ["x"], "d2": ["y"]}
        assert tfidf_scores(docs, ["unknown"]) == {"d1": 0.0, "d2": 0.0}
        assert tfidf_scores(docs, []) == {"d1": 0.0, "d2": 0.0}


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

    def test_variant_must_be_a_variant(self):
        with pytest.raises(ValueError, match="unknown variant: 'atire'"):
            bm25_term_score(1, 1, 2, 4, 4.0, variant="atire")

    def test_df_zero_rejected(self):
        with pytest.raises(ValueError):
            bm25_term_score(1, 0, 2, 4, 4.0)

    @pytest.mark.parametrize("tf, avg_len, message", [
        (-1, 4.0, "tf must be >= 0"),
        (1, 0.0, "avg_len must be > 0"),
    ])
    def test_negative_tf_and_zero_avg_len_rejected(self, tf, avg_len, message):
        with pytest.raises(ValueError, match=message):
            bm25_term_score(tf, 1, 2, 4, avg_len)

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
        # NaN and infinity would score every document NaN (or inf)
        for name in ("k1", "b", "epsilon", "delta"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must"):
                    BM25Params(**{name: value})


class TestFuseAndChunks:
    def test_fuse_arithmetic(self):
        assert fuse_product(0.5, 0.4) == pytest.approx(0.2)
        assert fuse_product(0.0, 0.9) == 0.0
        assert fuse_product(3.2, 0.0) == 0.0

    def test_fuse_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fuse_product(float("inf"), 0.5)


@pytest.fixture
def small_index():
    return build_index([("d1", ["a", "a", "b"]), ("d2", ["b", "c"])], "fp")


class TestScoreQuery:
    def test_absent_term_yields_zero_scores_in_id_order(self, small_index):
        ranking = Searcher(small_index).score("bm25", ["zzz"])
        assert ranking == [("d1", 0.0), ("d2", 0.0)]

    def test_single_document_corpus(self):
        idx = build_index([("only", ["law", "court"])], "fp")
        for scorer in ("tfidf_cos", "bm25", "bm25_okapi", "bm25l", "bm25plus",
                       "fused", "commonwords_bm25"):
            ranking = Searcher(idx).score(scorer, ["law"])
            assert ranking[0][0] == "only"

    def test_bm25_matches_brute_force(self, small_index):
        docs = {"d1": ["a", "a", "b"], "d2": ["b", "c"]}
        expected = naive_rank(naive_bm25(docs, ["a"]), ["d1", "d2"])
        got = Searcher(small_index).score("bm25", ["a"])
        assert [d for d, _ in got] == [d for d, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-9)
        assert got[1] == ("d2", 0.0)

    def test_duplicate_query_terms_double_the_score(self, small_index):
        once = dict(Searcher(small_index).score("bm25", ["a"]))
        twice = dict(Searcher(small_index).score("bm25", ["a", "a"]))
        assert twice["d1"] == pytest.approx(2 * once["d1"])

    def test_tfidf_scores_within_unit_interval(self, small_index):
        for query in (["a"], ["a", "b"], ["b", "c", "c"], ["zzz"]):
            for _doc, score in Searcher(small_index).score("tfidf_cos", query):
                assert 0.0 <= score <= 1.0 + 1e-12

    def test_fused_is_product(self, small_index):
        bm25 = dict(Searcher(small_index).score("bm25", ["a", "b"]))
        cos = dict(Searcher(small_index).score("tfidf_cos", ["a", "b"]))
        fused = dict(Searcher(small_index).score("fused", ["a", "b"]))
        for doc in ("d1", "d2"):
            assert fused[doc] == pytest.approx(bm25[doc] * cos[doc])

    def test_commonwords_multiplier(self, small_index):
        bm25 = dict(Searcher(small_index).score("bm25", ["a", "b"]))
        common = dict(Searcher(small_index).score("commonwords_bm25", ["a", "b"]))
        assert common["d1"] == pytest.approx(2 * bm25["d1"])  # shares a and b
        assert common["d2"] == pytest.approx(1 * bm25["d2"])  # shares b only

    def test_unknown_scorer(self, small_index):
        with pytest.raises(ValueError, match="unknown scorer"):
            Searcher(small_index).score("pagerank", ["a"])

    @pytest.mark.parametrize("scorer", SCORER_NAMES)
    def test_scores_are_floats_without_matching_terms(self, scorer):
        raw = {"d1": "contract breach", "d2": "lease tenant"}
        idx = build_index([(d, tokenize_normalize(t)) for d, t in raw.items()],
                          pipeline_fingerprint(PRESET_STANDARD))
        store = make_random_store(random.Random(0), list(raw), ["q1", "q2"])
        searcher = Searcher(idx, config=PRESET_STANDARD, embeddings=store, corpus_texts=raw)
        queries = [("q1", "zzz"), ("q2", "")]
        rankings = [searcher.score(scorer, tokenize_normalize(text), qid, text)
                    for qid, text in queries]
        rankings += searcher.search_all(queries, scorer).values()
        assert all(type(s) is float for ranking in rankings for _d, s in ranking)

    def test_embed_needs_store(self, small_index):
        with pytest.raises(ValueError, match="embedding store"):
            Searcher(small_index).score("embed", ["a"], query_id="q1")

    def test_embed_needs_query_id(self, small_index):
        store = make_random_store(random.Random(0), ["d1", "d2"], ["q1"])
        with pytest.raises(ValueError, match="query id"):
            Searcher(small_index, embeddings=store).score("embed", ["a"])

    def test_rake_needs_corpus_texts(self, small_index):
        with pytest.raises(ValueError, match="corpus texts"):
            Searcher(small_index, config=None).score("rake_tfidf", ["a"], query_text="a b")

    @pytest.mark.parametrize("query_text, message", [
        (None, "rake_tfidf requires the raw query text"),
        ("a b", "rake_tfidf requires the normalization pipeline configuration"),
    ])
    def test_rake_needs_query_text_and_config(self, small_index, query_text, message):
        searcher = Searcher(small_index, config=None, corpus_texts={"d1": "a a b", "d2": "b c"})
        with pytest.raises(ValueError, match=message):
            searcher.score("rake_tfidf", ["a"], query_text=query_text)

    def test_search_all_needs_config(self, small_index):
        with pytest.raises(ValueError, match="search_all needs the pipeline configuration"):
            Searcher(small_index).search_all([("q1", "a")], "bm25")

    def test_corpus_texts_must_be_the_indexed_documents(self, small_index):
        with pytest.raises(ValueError, match="'d3' is in the texts only"):
            Searcher(small_index, corpus_texts={"d1": "a", "d2": "b", "d3": "c"})
        with pytest.raises(ValueError, match="'d2' is in the index only"):
            Searcher(small_index, corpus_texts={"d1": "a"})

    def test_search_all_rejects_a_repeated_query_id(self, monkeypatch):
        idx = build_index([("d1", ["alpha", "beta"]), ("d2", ["gamma"])],
                          pipeline_fingerprint(PRESET_STANDARD))
        searcher = Searcher(idx, config=PRESET_STANDARD)
        monkeypatch.setattr(searcher, "_scores", lambda *args: pytest.fail("a query was scored"))
        queries = [("q1", "alpha"), ("q2", "beta"), ("q1", "gamma"), ("q2", "beta")]
        for workers in (1, 2):
            with pytest.raises(ValueError, match="^duplicate query id 'q1'$"):
                searcher.search_all(queries, "bm25", workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_all_reads_a_one_shot_iterable(self, workers):
        idx = build_index([("d1", ["law", "court"]), ("d2", ["tax"])],
                          pipeline_fingerprint(PRESET_STANDARD))
        searcher = Searcher(idx, config=PRESET_STANDARD)
        queries = [("q1", "law"), ("q2", "tax court")]
        expected = searcher.search_all(queries, "bm25", workers=workers)
        assert list(expected) == ["q1", "q2"]
        for one_shot in (zip(["q1", "q2"], ["law", "tax court"]), (q for q in queries)):
            assert searcher.search_all(one_shot, "bm25", workers=workers) == expected

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
        ranking = Searcher(small_index).score("bm25", ["a"])
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
            scores = dict(Searcher(idx).score("bm25", ["needle"]))
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
        first = Searcher(small_index).score("tfidf_cos", ["a", "b"])
        second = Searcher(small_index).score("tfidf_cos", ["a", "b"])
        assert first == second


def test_okapi_mean_idf_matches_direct_sum(small_index):
    n = small_index.n_docs
    expected = sum(
        math.log((n - df + 0.5) / (df + 0.5)) for df in small_index.df.values()
    ) / len(small_index.df)
    assert okapi_mean_idf(small_index) == expected


# ---------------------------------------------------------------------------
# exact reference: the per-posting loops the array core replaced

def reference_ranking(index, scorer, query, params=BM25Params(), rake=None):
    """Score one query posting by posting, then fully sort.

    This is the dict-of-postings implementation the dense accumulator
    replaced; `Searcher.score` must equal it bit for bit.  `rake_tfidf`
    needs `rake = (raw corpus texts by id, raw query text, config)`.
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

    def idf(term):
        return math.log(n / index.df[term])

    def squared_norms(terms):
        sq = {}
        for term, plist in index.postings.items():
            if term in terms:
                for doc_id, tf in plist:
                    w = tf * idf(term)
                    sq[doc_id] = sq.get(doc_id, 0.0) + w * w
        return sq

    def tfidf(query=query, sq=None):
        if sq is None:
            sq = squared_norms(index.df)
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
    elif scorer == "rake_tfidf":
        # the corpus vocabulary's norms, plus the extra query terms' norms
        raw, query_text, config = rake
        base = naive_rake_vocab([raw[d] for d in sorted(raw)], config, ENGLISH_STOPWORDS)
        query_words = naive_rake_vocab([query_text], config, ENGLISH_STOPWORDS)
        sq = squared_norms(base)
        extra = squared_norms(query_words - base)
        if extra:
            sq = {d: sq.get(d, 0.0) + extra.get(d, 0.0) for d in sq.keys() | extra.keys()}
        scores = tfidf([t for t in query if t in base or t in query_words], sq)
    else:
        raise AssertionError(scorer)
    return rank_documents(scores, index.doc_ids)


LEXICAL = ("bm25", "bm25_okapi", "bm25l", "bm25plus", "tfidf_cos", "fused", "commonwords_bm25",
           "rake_tfidf")


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
    PARAMS = (BM25Params(), BM25Params(k1=0.9, b=0.4, delta=0.7),
              BM25Params(k1=2.0, b=1.0, epsilon=0.5))

    def test_scores_equal_per_posting_reference(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(120):
            setup = _random_setup(rng)
            if setup is None:
                continue
            config, raw, index = setup
            params = rng.choice(self.PARAMS)
            searcher = Searcher(index, config=config, params=params, corpus_texts=raw)
            for _q in range(3):
                text = make_random_query(rng, raw)
                query = tokenize_normalize(text, config)
                for scorer in LEXICAL:
                    assert searcher.score(scorer, query, query_text=text) == reference_ranking(
                        index, scorer, query, params, (raw, text, config)), scorer
                    checked += 1
        assert checked > 1700

    def test_search_all_equals_reference_prefix(self):
        rng = random.Random(77)
        for _ in range(40):
            setup = _random_setup(rng)
            if setup is None:
                continue
            config, raw, index = setup
            searcher = Searcher(index, config=config, corpus_texts=raw)
            queries = [(f"q{i}", make_random_query(rng, raw)) for i in range(3)]
            top_n = rng.randint(1, index.n_docs + 2)
            for scorer in LEXICAL:
                run = searcher.search_all(queries, scorer, top_n=top_n)
                for qid, text in queries:
                    full = reference_ranking(index, scorer, tokenize_normalize(text, config),
                                             rake=(raw, text, config))
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

    @pytest.mark.parametrize("top_n, workers", [(0, 1), (-1, 1), (1, 0), (1, -1)])
    def test_top_n_and_workers_below_one_are_rejected(self, top_n, workers):
        fp = pipeline_fingerprint(PRESET_STANDARD)
        searcher = Searcher(build_index([("d1", ["court"])], fp), config=PRESET_STANDARD)
        name = "top_n" if top_n < 1 else "workers"
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            searcher.search_all([("q", "court")], "bm25", top_n=top_n, workers=workers)

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

    def test_scoring_reads_only_the_csr_arrays(self):
        # the name-keyed views are conveniences for callers; no scorer needs them
        rng = random.Random(2718)
        for _ in range(10):
            setup = _random_setup(rng)
            if setup is None:
                continue
            config, raw, index = setup
            bare = copy.copy(index)
            del bare.df, bare.doc_len, bare.postings
            params = rng.choice(self.PARAMS)
            intact, stripped = (Searcher(idx, config=config, params=params, corpus_texts=raw)
                                for idx in (index, bare))
            for _q in range(3):
                text = make_random_query(rng, raw)
                query = tokenize_normalize(text, config)
                for scorer in LEXICAL:
                    assert stripped.score(scorer, query, query_text=text) == intact.score(
                        scorer, query, query_text=text), scorer


    def _check(self, raw, texts):
        """Every lexical scorer equals the reference on `texts`; returns the searchers."""
        config = PRESET_STANDARD
        docs = [(d, tokenize_normalize(t, config)) for d, t in raw.items()]
        index = build_index(docs, pipeline_fingerprint(config))
        searchers = []
        for params in self.PARAMS:
            searcher = Searcher(index, config=config, params=params, corpus_texts=raw)
            for text in texts:
                query = tokenize_normalize(text, config)
                for scorer in LEXICAL:
                    assert searcher.score(scorer, query, query_text=text) == reference_ranking(
                        index, scorer, query, params, (raw, text, config)), (scorer, text)
            searchers.append(searcher)
        return searchers

    def test_query_terms_repeated_up_to_five_times(self):
        rng = random.Random(55)
        for _ in range(12):
            raw = make_random_corpus(rng, vocab_limit=rng.choice([6, 14]))
            pool = sorted({w for t in raw.values() for w in t.split() if w in CONTENT_WORDS})
            texts = []
            for _q in range(3):
                words = [w for w in rng.sample(pool, min(4, len(pool)))
                         for _k in range(rng.randint(1, 5))]
                rng.shuffle(words)
                texts.append(" ".join(words))
            self._check(raw, texts)

    def test_term_in_every_document(self):
        # "court" is in all five documents: ATIRE IDF 0, TF-IDF weight 0, and
        # with most terms that common the Okapi floor is negative
        raw = {"d1": "court appeal court", "d2": "court appeal tax", "d3": "court appeal",
               "d4": "court tax appeal lease", "d5": "court court court"}
        texts = ["court", "court court tax", "tax court lease", "appeal court"]
        searcher = self._check(raw, texts)[0]
        assert okapi_mean_idf(searcher.index) < 0.0
        assert all(s == 0.0 for _d, s in searcher.score("bm25", ["court"]))
        assert all(s == 0.0 for _d, s in searcher.score("tfidf_cos", ["court", "court"]))
        # the zero-weight term is left out of the query norm as well as the dots
        assert searcher.score("tfidf_cos", ["court", "tax"]) == searcher.score(
            "tfidf_cos", ["tax"])
        assert all(s < 0.0 for _d, s in searcher.score("bm25_okapi", ["court"]))

    def test_out_of_vocabulary_and_empty_queries(self):
        raw = {"d1": "court appeal", "d2": "tax lease", "d3": "court tax"}
        texts = ["", "the of and", "zzyzx", "zzyzx qwerty zzyzx"]
        searcher = self._check(raw, texts)[0]
        for scorer in LEXICAL:
            query_text = "zzyzx qwerty"
            ranking = searcher.score(scorer, ["zzyzx", "qwerty"], query_text=query_text)
            assert ranking == [("d1", 0.0), ("d2", 0.0), ("d3", 0.0)], scorer
            # float64 +0.0 each: the gather of no postings is empty, not an error
            scores = searcher._scores(scorer, ["zzyzx", "qwerty"], None, query_text)
            assert scores.tobytes() == np.zeros(3).tobytes(), scorer

    def test_one_document_corpus(self):
        self._check({"only": "court appeal court tax"},
                    ["court", "court tax tax", "appeal lease", "lease"])

    def test_idf_is_the_scalar_log(self):
        # with numpy 2.4 on x86-64, np.log(21 / 20) is one bit off math.log(21 / 20);
        # the scorers must use the scalar value the reference uses
        raw = {f"d{i:02d}": "court appeal" if i else "tax" for i in range(21)}
        self._check(raw, ["court", "court tax", "appeal court tax"])

    def test_idf_tables_equal_scalar_idf(self):
        rng = random.Random(9)
        for _ in range(20):
            setup = _random_setup(rng)
            if setup is None:
                continue
            _config, _raw, index = setup
            n = index.n_docs
            avg_idf = okapi_mean_idf(index)
            for params in self.PARAMS:
                tables = Searcher(index, params=params)._idf_by_df
                for variant in Variant:
                    assert len(tables[variant]) == n + 1
                    for df in range(1, n + 1):
                        assert tables[variant][df] == _bm25_idf(
                            variant, df, n, params.epsilon, avg_idf), (variant, df)


def assert_impacts_equal_scalar_formula(index, query, params):
    """`Searcher._impacts` gives each posting `count * bm25_term_score(...)`,
    bit for bit, under every variant."""
    searcher = Searcher(index, params=params)
    postings = searcher._postings(query)
    counts, df, pos, tf = postings
    avg_idf = okapi_mean_idf(index)
    lengths = index.lengths.tolist()
    per_posting = list(zip(np.repeat(counts, df).tolist(), np.repeat(df, df).tolist(),
                           pos.tolist(), tf.tolist()))
    for variant in Variant:
        want = np.array([count * bm25_term_score(t, d, index.n_docs, lengths[p], index.avg_len,
                                                 params, variant, avg_idf)
                         for count, d, p, t in per_posting], dtype=np.float64)
        assert searcher._impacts(postings, variant).tobytes() == want.tobytes(), variant


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.sampled_from(CONTENT_WORDS[:8]), min_size=1, max_size=12),
                min_size=1, max_size=8),
       st.lists(st.sampled_from(CONTENT_WORDS[:10]), max_size=8),
       st.sampled_from(TestExactReference.PARAMS))
def test_impacts_equal_scalar_formula(word_lists, query, params):
    index = build_index([(f"d{i}", words) for i, words in enumerate(word_lists)], "fp")
    assert_impacts_equal_scalar_formula(index, query, params)


def reference_postings(index, query):
    """`Searcher._postings` from the CSR slices: each in-vocabulary term's
    count and df in `Counter` order, then its positions and tfs whole."""
    counts, dfs, positions, tfs = [], [], [], []
    for term, count in Counter(query).items():
        if term in index.term_ids:
            t = index.term_ids[term]
            lo, hi = int(index.offsets[t]), int(index.offsets[t + 1])
            counts.append(float(count))
            dfs.append(hi - lo)
            positions += index.positions[lo:hi].tolist()
            tfs += index.tfs[lo:hi].tolist()
    return counts, dfs, positions, tfs


@settings(max_examples=120, deadline=None)
@given(st.lists(st.lists(st.sampled_from(CONTENT_WORDS[:8]), min_size=1, max_size=12),
                min_size=1, max_size=8),
       # the last two words are in no document
       st.lists(st.sampled_from(CONTENT_WORDS[:6] + ["zzyzx", "qwerty"]), max_size=10))
@example([["court"], ["appeal", "court"]], [])
@example([["court"], ["appeal", "court"]], ["zzyzx", "qwerty", "zzyzx"])
@example([["court", "court"], ["appeal"]], ["court", "zzyzx", "court", "appeal", "court"])
def test_postings_equal_the_csr_slices(word_lists, query):
    index = build_index([(f"d{i}", words) for i, words in enumerate(word_lists)], "fp")
    searcher = Searcher(index)
    counts, df, pos, tf = searcher._postings(query)
    # positions and tfs keep the index's narrowest widths
    assert (counts.dtype, df.dtype, pos.dtype, tf.dtype) == (
        np.float64, np.int64, np.min_scalar_type(len(word_lists) - 1),
        np.min_scalar_type(max(map(len, word_lists))))
    assert [counts.tolist(), df.tolist(), pos.tolist(), tf.tolist()] == list(
        reference_postings(index, query))
    # the full ranking names position p by index.doc_ids[p]
    scores = searcher._scores("bm25", query, None, None)
    order = np.argsort(-scores, kind="stable")
    ranking = searcher._ranking(scores, scores.size, "bm25", None)
    assert ranking == [(index.doc_ids[p], scores[p].item()) for p in order.tolist()]
    assert searcher.score("bm25", query) == ranking


@pytest.mark.parametrize("params", TestExactReference.PARAMS)
@pytest.mark.parametrize("docs, mean_idf_sign", [
    # "court" is in 3 of 4 documents: its Okapi IDF is floored, to a positive floor
    ([["court", "appeal"], ["court", "tax"], ["court", "lease"], ["deed"]], 1.0),
    # every term is in every document: the mean IDF, and so the floor, is negative
    ([["court", "appeal"], ["appeal", "court", "court"], ["court", "appeal"]], -1.0),
])
def test_impacts_equal_scalar_formula_under_the_okapi_floor(docs, mean_idf_sign, params):
    index = build_index([(f"d{i}", words) for i, words in enumerate(docs)], "fp")
    assert math.copysign(1.0, okapi_mean_idf(index)) == mean_idf_sign
    assert max(np.diff(index.offsets)) > index.n_docs / 2
    assert_impacts_equal_scalar_formula(index, ["court", "appeal", "court", "zzyzx"], params)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.75, 3.0]), min_size=2, max_size=40),
       st.sampled_from([1, -1, 0, 5]))
def test_top_positions_equal_stable_sort_prefix(values, from_size):
    # top_n is 1, or size - 1, size or size + 5
    scores = np.array(values)
    top_n = from_size if from_size == 1 else scores.size + from_size
    want = np.argsort(-scores, kind="stable")[:top_n]
    assert rankers_module._top_positions(scores, top_n).tolist() == want.tolist()


@pytest.mark.parametrize("values, top_n, want", [
    # the zeros tied at the cut would refill a cut that only left the NaN out
    ([math.nan, 1.0, 0.0, 0.0, 0.0], 3, None),
    ([0.0, 2.0, math.nan], 1, None),
    ([1.0, math.inf, 2.0], 1, None),
    # below the cut an infinity is never ranked, so it fails only a full ranking
    ([-math.inf, 1.0, 0.5], 2, [1, 2]),
    ([-math.inf, 1.0, 0.5], 3, None),
])
def test_top_positions_refuse_a_best_score_that_is_not_finite(values, top_n, want):
    order = rankers_module._top_positions(np.array(values), top_n)
    assert (order if order is None else order.tolist()) == want


_HUGE = st.sampled_from([1e150, 1e306, 1e307, 5e307, 1e308, 1.7976931348623157e308])
_LEXICAL = [s for s in SCORER_NAMES if s not in ("rake_tfidf", "embed")]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.sampled_from(CONTENT_WORDS[:8]), min_size=1, max_size=8),
                min_size=1, max_size=24),
       st.lists(st.sampled_from(CONTENT_WORDS[:8]), min_size=1, max_size=6),
       st.builds(BM25Params, k1=_HUGE | st.floats(1e-3, 3.0), b=st.floats(0.0, 1.0),
                 epsilon=_HUGE | st.floats(0.0, 1.0),
                 delta=st.none() | _HUGE | st.floats(0.0, 2.0)))
@example([["court", "court", "appeal"], ["court", "tax"], ["lease"]], ["court", "tax", "appeal"],
         BM25Params(k1=1e308))
@example([["court", "court", "appeal"], ["court", "tax"], ["lease"]], ["court", "tax", "appeal"],
         BM25Params(delta=1e308))
def test_every_scorer_is_finite_or_one_defined_error(word_lists, query, params):
    index = build_index([(f"d{i}", words) for i, words in enumerate(word_lists)],
                        pipeline_fingerprint(PRESET_NONE))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            searcher = Searcher(index, PRESET_NONE, params=params)
        except ValueError as exc:
            assert str(exc) in {f"the BM25 tables overflow for this index; lower {names}"
                                for names in ("k1", "epsilon", "k1 or epsilon")}
            return
        for scorer in _LEXICAL:
            try:
                ranking = searcher.score(scorer, query)
            except ValueError as exc:
                hint = rankers_module._OVERFLOWS[scorer]
                assert str(exc) == f"{scorer} scores are not finite; lower {hint}"
                with pytest.raises(ValueError, match=f"^{scorer} scores for query 'q' are not"):
                    searcher.search_all([("q", " ".join(query))], scorer, index.n_docs)
            else:
                assert len(ranking) == index.n_docs
                assert all(math.isfinite(score) for _doc, score in ranking)


class TestOkapiNegativeFloor:
    def test_common_terms_lower_every_score(self):
        # df = N for both terms: every raw IDF, and so the mean, is negative
        idx = build_index([("d1", ["a", "b"]), ("d2", ["a", "b"]), ("d3", ["a", "b"])], "fp")
        assert okapi_mean_idf(idx) == pytest.approx(math.log(0.5 / 3.5))
        ranking = Searcher(idx).score("bm25_okapi", ["a", "b"])
        # each term: floor 0.25 * ln(1/7) times a tf factor of exactly 1
        assert [s for _d, s in ranking] == pytest.approx([0.5 * math.log(1 / 7)] * 3)
        assert all(s < 0.0 for _d, s in ranking)

    def test_document_without_query_terms_ranks_first(self):
        idx = build_index(
            [("d1", ["a", "b"]), ("d2", ["a", "b"]), ("d3", ["a", "b"]), ("d4", ["c"])], "fp"
        )
        assert okapi_mean_idf(idx) < 0.0
        ranking = Searcher(idx).score("bm25_okapi", ["a", "b"])
        assert ranking[0] == ("d4", 0.0)
        assert all(s < 0.0 for _d, s in ranking[1:])


# ---------------------------------------------------------------------------
# embed as one product over the stacked chunks, against the per-document loop

def reference_embed(index, store, query_id):
    """The per-document `aggregate_chunk_similarity` loop the product replaced."""
    qv = store.query_vector(query_id)
    scores = {d: aggregate_chunk_similarity(qv, store.chunks(d)) for d in index.doc_ids}
    return rank_documents(scores, index.doc_ids)


def _chunk_index(n_docs):
    return build_index([(f"d{i:02d}", ["t"]) for i in range(n_docs)][::-1], "fp")


class TestEmbedMatrix:
    def test_matches_per_document_loop(self):
        rng = random.Random(606)
        for trial in range(60):
            index = _chunk_index(rng.randint(1, 30))
            dim = rng.choice([1, 3, 8, 13, 64])
            store = make_random_store(rng, index.doc_ids, ["q0", "q1"], dim=dim)
            searcher = Searcher(index, embeddings=store)
            tol = dim * np.finfo(float).eps  # fixed before comparing: dot order differs
            for qid in ("q0", "q1"):
                got = searcher.score("embed", [], query_id=qid)
                want = reference_embed(index, store, qid)
                assert [d for d, _ in got] == [d for d, _ in want], trial
                for (_, a), (_, b) in zip(got, want):
                    assert abs(a - b) <= tol

    def test_identical_chunk_lists_tie_exactly(self):
        # the first, a middle and the last document share one chunk list, so
        # their rows sit at the start, middle and end of the stacked matrix
        rng = np.random.default_rng(8)
        for dim in (5, 8, 64, 100):
            for n_docs in range(3, 41):
                same = [rng.normal(size=dim) for _ in range(3)]
                twins = {"d00", f"d{n_docs // 2:02d}", f"d{n_docs - 1:02d}"}
                vectors = {
                    f"d{i:02d}": [c.copy() for c in same] if f"d{i:02d}" in twins
                    else [rng.normal(size=dim) for _ in range(1 + i % 4)]
                    for i in range(n_docs)
                }
                vectors["q"] = [rng.normal(size=dim)]
                ranking = Searcher(_chunk_index(n_docs), embeddings=EmbeddingStore(vectors)).score(
                    "embed", [], query_id="q")
                tied = [(rank, d, s) for rank, (d, s) in enumerate(ranking) if d in twins]
                assert len({s for _r, _d, s in tied}) == 1, (dim, n_docs)
                assert [d for _r, d, _s in tied] == sorted(twins)
                assert [r for r, _d, _s in tied] == list(range(tied[0][0], tied[0][0] + 3))

    def test_zero_norm_chunk_or_query_scores_zero(self):
        index = _chunk_index(3)
        q = np.array([1.0, 0.0, 0.0])
        vectors = {
            "d00": [np.zeros(3)],
            "d01": [np.zeros(3), np.array([2.0, 0.0, 0.0])],
            "d02": [np.array([0.0, 3.0, 0.0])],
            "q": [q],
            "zero": [np.zeros(3)],
        }
        searcher = Searcher(index, embeddings=EmbeddingStore(vectors))
        scores = dict(searcher.score("embed", [], query_id="q"))
        assert scores == {"d00": 0.0, "d01": 0.5, "d02": 0.0}
        ranking = searcher.score("embed", [], query_id="zero")
        assert ranking == [("d00", 0.0), ("d01", 0.0), ("d02", 0.0)]

    def test_store_errors_keep_their_messages(self):
        index = _chunk_index(3)
        v = np.ones(2)
        missing = EmbeddingStore({"d00": [v], "d02": [v], "q": [v]})
        searcher = Searcher(index, embeddings=missing)  # lexical scorers still work
        assert searcher.score("bm25", ["t"])[0] == ("d00", 0.0)
        with pytest.raises(ValueError, match="no vectors for document 'd01'"):
            searcher.score("embed", [], query_id="q")
        with pytest.raises(ValueError, match="no vector for query 'nope'"):
            searcher.score("embed", [], query_id="nope")

        empty = EmbeddingStore({"d00": [v], "d01": [], "d02": [v], "q": [v]})
        with pytest.raises(ValueError, match="document has no chunk vectors"):
            Searcher(index, embeddings=empty).score("embed", [], query_id="q")
        # the first failing document by position decides the message
        both = EmbeddingStore({"d00": [], "d02": [v], "q": [v]})
        with pytest.raises(ValueError, match="document has no chunk vectors"):
            Searcher(index, embeddings=both).score("embed", [], query_id="q")


class TestRakeVocabulary:
    @pytest.mark.parametrize("config", [PRESET_NONE, PRESET_STANDARD, PRESET_FULL],
                             ids=["none", "standard", "full"])
    def test_equals_per_phrase_oracle(self, config, synthetic_dir):
        rng = random.Random(31)
        corpora = [make_random_corpus(rng, max_len=rng.choice([5, 50, 200])) for _ in range(30)]
        # texts with over 30 distinct words keep more than the floor of 10 phrases
        suffixes = ["", "s", "ing", "ed", "al", "ly"]
        for _ in range(10):
            words = [w + rng.choice(suffixes) for w in CONTENT_WORDS for _ in range(3)]
            corpora.append({f"d{i}": " ".join(rng.choices(words + STOP_SAMPLE * 20, k=300))
                            + rng.choice([".", ", 1999"]) for i in range(3)})
        corpora.append({p.stem: p.read_text(encoding="utf-8")
                        for p in (synthetic_dir / "corpus").iterdir()})
        for raw in corpora:
            items = sorted(raw.items())
            got = build_rake_vocabulary(items, config, ENGLISH_STOPWORDS)
            want = naive_rake_vocab([t for _d, t in items], config, ENGLISH_STOPWORDS)
            assert got == want


def one_bincount_sq_norms(index, terms) -> np.ndarray:
    """Per-document sums of squared TF-IDF weights over `terms`, every
    posting added in term order by one `np.bincount`."""
    positions, weights = [np.zeros(0, np.int32)], [np.zeros(0)]
    for term in terms:
        lo, hi = index.offsets[index.term_ids[term]: index.term_ids[term] + 2]
        w = index.tfs[lo:hi] * _bm25_idf(Variant.ATIRE, hi - lo, index.n_docs, 0.0, None)
        positions.append(index.positions[lo:hi])
        weights.append(w * w)
    return np.bincount(np.concatenate(positions), weights=np.concatenate(weights),
                       minlength=index.n_docs)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(CONTENT_WORDS[:10] + STOP_SAMPLE[:3] + [","]),
                         min_size=1, max_size=30), min_size=1, max_size=8)
       .filter(lambda lists: not set(CONTENT_WORDS).isdisjoint(sum(lists, []))), st.integers(1, 7),
       st.data())
def test_squared_norms_in_slices_equal_one_bincount(word_lists, slice_size, data):
    texts = {f"d{i}": " ".join(words) for i, words in enumerate(word_lists)}
    index = build_index([(d, tokenize_normalize(t, PRESET_STANDARD)) for d, t in texts.items()],
                        pipeline_fingerprint(PRESET_STANDARD))
    subset = data.draw(st.sets(st.sampled_from(index.terms)))
    idf = np.array([_bm25_idf(Variant.ATIRE, df, index.n_docs, 0.0, None)
                    for df in np.diff(index.offsets).tolist()])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rankers_module, "_SLICE", slice_size)
        searcher = Searcher(index, config=PRESET_STANDARD, corpus_texts=texts)
        masked = searcher._squared_norms(np.where([t in subset for t in index.terms], idf, 0.0))
    subset_terms = [term for term in index.terms if term in subset]
    assert masked.tobytes() == one_bincount_sq_norms(index, subset_terms).tobytes()
    rake_terms = [term for term in index.terms if term in searcher._rake_vocab]
    assert searcher._sq_norms.tobytes() == one_bincount_sq_norms(index, index.terms).tobytes()
    assert searcher._rake_sq_norms.tobytes() == one_bincount_sq_norms(index, rake_terms).tobytes()


def test_searcher_peak_memory():
    """`Searcher(index)` sums the TF-IDF document norms in blocks of about
    `_SLICE` postings and holds nothing of posting size."""
    index = build_index(make_postings_corpus(), "fp")
    assert len(index.positions) > 8 * rankers_module._SLICE
    _searcher, peak = traced_peak(lambda: Searcher(index))
    assert peak <= 1.25 * 8 * len(index.positions)  # measured 0.28x
