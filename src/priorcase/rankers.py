"""Ranking functions over a frozen corpus index.

Scorers (see docs/scoring.md for the exact formulas):

    tfidf_cos         cosine similarity of TF-IDF vectors
    bm25              ATIRE BM25 (default variant)
    bm25_okapi        Okapi BM25 with an epsilon floor on negative IDF
    bm25l             BM25L (lower-bounded length normalization)
    bm25plus          BM25+ (additive lower bound on term frequency)
    fused             ATIRE BM25 score times TF-IDF cosine
    rake_tfidf        TF-IDF cosine restricted to RAKE keyword vocabulary
    commonwords_bm25  distinct-term overlap count times ATIRE BM25
    embed             mean cosine between query vector and document chunks

Every scorer returns a full ranking over the corpus: scores descending,
ties broken by ascending document id.  All scorers are pure functions of
(query, index, parameters), so scoring is safe to run concurrently.

Each lexical scorer accumulates per-term impacts over the index's CSR
postings into a dense float64 array with one slot per document; the
corpus statistics they share are computed once, when the `Searcher` is
built.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingStore, aggregate_chunk_similarity
from .index import CorpusIndex, PipelineMismatchError
from .rake import default_keyword_count, rake_extract
from .stopwords import ENGLISH_STOPWORDS
from .textproc import PipelineConfig, TokenStream, pipeline_fingerprint, tokenize_normalize

Ranking = list[tuple[str, float]]
SparseVector = dict[str, float]


class Variant(Enum):
    """BM25 flavor; ATIRE is the default used by `bm25` and `fused`."""

    ATIRE = "atire"
    OKAPI = "okapi"
    BM25L = "bm25l"
    BM25PLUS = "bm25plus"


@dataclass(frozen=True)
class BM25Params:
    """Tuning knobs shared by the BM25 variants.

    `delta` is only read by BM25L and BM25+; when left as None it
    resolves to 0.5 for BM25L and 1.0 for BM25+.  `epsilon` is only read
    by Okapi, whose IDF can go negative.
    """

    k1: float = 1.5
    b: float = 0.75
    epsilon: float = 0.25
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.delta is not None and self.delta < 0:
            raise ValueError("delta must be >= 0")

    def delta_for(self, variant: Variant) -> float:
        if self.delta is not None:
            return self.delta
        return 0.5 if variant is Variant.BM25L else 1.0


# ---------------------------------------------------------------------------
# term-level scoring

def tfidf_weight(tf: int, n_docs: int, df: int) -> float:
    """TF-IDF weight tf * ln(n_docs / df) of one term."""
    if n_docs < 1:
        raise ValueError("n_docs must be >= 1")
    if df < 1 or df > n_docs:
        raise ValueError(f"df must be in [1, n_docs]; got df={df}, n_docs={n_docs}")
    if tf < 0:
        raise ValueError("tf must be >= 0")
    return tf * math.log(n_docs / df)


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine of the angle between two sparse vectors; 0.0 for zero vectors."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(w * big.get(term, 0.0) for term, w in small.items())
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def _bm25_idf(
    variant: Variant, df: int, n_docs: int, epsilon: float, avg_idf: float | None
) -> float:
    """The variant's IDF of a term with document frequency `df`."""
    if variant is Variant.ATIRE:
        return math.log(n_docs / df)
    if variant is Variant.OKAPI:
        idf = math.log((n_docs - df + 0.5) / (df + 0.5))
        if idf < 0:
            if avg_idf is None:
                raise ValueError("okapi needs the corpus mean idf to floor negative idf")
            idf = epsilon * avg_idf
        return idf
    if variant is Variant.BM25L:
        return math.log((n_docs + 1.0) / (df + 0.5))
    if variant is Variant.BM25PLUS:
        return math.log((n_docs + 1.0) / df)
    raise ValueError(f"unknown variant: {variant!r}")


def _bm25_impact(tf, norm, idf: float, params: BM25Params, variant: Variant):
    """Impact of a term with frequency `tf` in documents of length norm `norm`.

    `tf` and `norm` are both scalars or both arrays over one term's
    postings; either way the float64 operations run in the same order,
    so the scalar and array paths give identical bits.
    """
    k1 = params.k1
    if variant is Variant.BM25L:
        delta = params.delta_for(variant)
        ctd = tf / norm
        return idf * (k1 + 1.0) * (ctd + delta) / (k1 + ctd + delta)
    if variant is Variant.BM25PLUS:
        delta = params.delta_for(variant)
        return idf * (delta + (k1 + 1.0) * tf / (k1 * norm + tf))
    return idf * (k1 + 1.0) * tf / (k1 * norm + tf)


def bm25_term_score(
    tf: int,
    df: int,
    n_docs: int,
    doc_len: int,
    avg_len: float,
    params: BM25Params = BM25Params(),
    variant: Variant = Variant.ATIRE,
    avg_idf: float | None = None,
) -> float:
    """Contribution of one query-term occurrence to a document's score.

    A term that does not appear in the document (tf = 0) contributes 0
    under every variant.  `avg_idf` (the corpus mean of raw Okapi IDF) is
    required by the Okapi variant whenever its IDF goes negative, which
    happens exactly when df > n_docs / 2.
    """
    if df < 1 or df > n_docs:
        raise ValueError(f"df must be in [1, n_docs]; got df={df}, n_docs={n_docs}")
    if tf < 0:
        raise ValueError("tf must be >= 0")
    if tf == 0:
        return 0.0
    if avg_len <= 0:
        raise ValueError("avg_len must be > 0")
    norm = 1.0 - params.b + params.b * (doc_len / avg_len)
    idf = _bm25_idf(variant, df, n_docs, params.epsilon, avg_idf)
    return _bm25_impact(tf, norm, idf, params, variant)


def okapi_mean_idf(index: CorpusIndex) -> float:
    """Mean raw Okapi IDF over the whole vocabulary (may be negative)."""
    n = index.n_docs
    total = sum(math.log((n - df + 0.5) / (df + 0.5)) for df in index.df.values())
    return total / len(index.df)


def fuse_product(bm25, cosine):
    """Product fusion of BM25 scores and cosine similarities.

    Takes two floats or two equally shaped arrays.
    """
    if not (np.isfinite(bm25).all() and np.isfinite(cosine).all()):
        raise ValueError("fusion inputs must be finite")
    return bm25 * cosine


def chunk_tokens(tokens: TokenStream, max_len: int = 512) -> list[TokenStream]:
    """Split a token stream into consecutive chunks of at most `max_len`."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return [tokens[i : i + max_len] for i in range(0, len(tokens), max_len)]


def rank_documents(scores: Mapping[str, float], doc_ids: Iterable[str]) -> Ranking:
    """Full ranking: every document, descending score, then ascending id."""
    entries = [(doc_id, scores.get(doc_id, 0.0)) for doc_id in doc_ids]
    entries.sort(key=lambda entry: (-entry[1], entry[0]))
    return entries


def build_rake_vocabulary(
    texts: Iterable[tuple[str, str]],
    config: PipelineConfig,
    stopwords: Iterable[str] = ENGLISH_STOPWORDS,
) -> frozenset[str]:
    """Union of normalized RAKE keyword unigrams over (id, raw text) pairs.

    Each text keeps its top max(10, ceil(distinct-words / 3)) phrases;
    phrases are decomposed to unigrams and pushed through the same
    normalization pipeline as the index so they line up with its terms.
    """
    stopset = frozenset(stopwords)
    vocab: set[str] = set()
    for _key, raw in texts:
        top_k = default_keyword_count(raw, stopset)
        for phrase, _score in rake_extract(raw, stopset, top_k):
            vocab.update(tokenize_normalize(phrase, config, stopset))
    return frozenset(vocab)


# ---------------------------------------------------------------------------
# corpus-level scoring

class Searcher:
    """Scores queries against a frozen index under any of the scorers.

    Optional resources: `corpus_texts` (id -> raw text) is needed by
    rake_tfidf, `embeddings` by embed.  When `config` is given, its
    fingerprint must match the one recorded in the index.

    Every corpus statistic a scorer reads (BM25 length norms, the Okapi
    mean IDF, TF-IDF document norms, the RAKE vocabulary and its norms)
    is computed here, once; scoring only reads them.
    """

    def __init__(
        self,
        index: CorpusIndex,
        config: PipelineConfig | None = None,
        stopwords: Iterable[str] = ENGLISH_STOPWORDS,
        params: BM25Params = BM25Params(),
        embeddings: EmbeddingStore | None = None,
        corpus_texts: Mapping[str, str] | None = None,
    ):
        stopset = frozenset(stopwords)
        if config is not None:
            fp = pipeline_fingerprint(config, stopset)
            if fp != index.fingerprint:
                raise PipelineMismatchError(
                    "pipeline mismatch: the index was built with a different "
                    "normalization configuration or stopword list"
                )
        self.index = index
        self.config = config
        self.stopwords = stopset
        self.params = params
        self.embeddings = embeddings
        self.corpus_texts = corpus_texts

        self._offsets = index.offsets.tolist()
        self._df = np.diff(index.offsets)
        self._norm = 1.0 - params.b + params.b * (index.lengths / index.avg_len)
        self._okapi_avg_idf = okapi_mean_idf(index)
        n = index.n_docs
        self._idf = np.array([math.log(n / df) for df in index.df.values()])
        self._sq_norms = self._squared_norms(np.ones(len(index.terms), bool))
        self._rake_vocab: frozenset[str] = frozenset()
        self._rake_sq_norms = np.zeros(n)
        if corpus_texts is not None and config is not None:
            self._rake_vocab = build_rake_vocabulary(
                sorted(corpus_texts.items()), config, stopset
            )
            self._rake_sq_norms = self._squared_norms(
                np.array([term in self._rake_vocab for term in index.terms], bool)
            )

    # -- postings access -------------------------------------------------------

    def _postings(
        self, counts: Iterable[tuple[str, int]]
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """(term id, count, positions, tfs) of each in-vocabulary term."""
        idx = self.index
        for term, count in counts:
            tid = idx.term_ids.get(term)
            if tid is not None:
                lo, hi = self._offsets[tid], self._offsets[tid + 1]
                yield tid, count, idx.positions[lo:hi], idx.tfs[lo:hi]

    def _squared_norms(self, keep: np.ndarray) -> np.ndarray:
        """Per-document sums of squared TF-IDF weights over the terms in
        `keep` (a mask over term ids), added up in term order."""
        idx = self.index
        in_kept = np.repeat(keep, self._df)
        idf = np.repeat(self._idf[keep], self._df[keep])
        w = idx.tfs[in_kept] * idf
        return np.bincount(idx.positions[in_kept], weights=w * w, minlength=idx.n_docs)

    # -- individual scorers --------------------------------------------------

    def _bm25(self, query: TokenStream, variant: Variant) -> np.ndarray:
        n = self.index.n_docs
        acc = np.zeros(n)
        for _tid, qcount, pos, tfs in self._postings(Counter(query).items()):
            idf = _bm25_idf(variant, len(pos), n, self.params.epsilon, self._okapi_avg_idf)
            acc[pos] += qcount * _bm25_impact(tfs, self._norm[pos], idf, self.params, variant)
        return acc

    def _tfidf(
        self,
        query: TokenStream,
        vocab: frozenset[str] | None = None,
        sq_norms: np.ndarray | None = None,
    ) -> np.ndarray:
        scores = np.zeros(self.index.n_docs)
        if vocab is not None:
            query = [term for term in query if term in vocab]
        weighted = []
        for tid, tf, pos, tfs in self._postings(Counter(query).items()):
            idf = float(self._idf[tid])
            weight = tf * idf
            if weight != 0.0:
                weighted.append((weight, idf, pos, tfs))
        if not weighted:
            return scores
        query_norm = math.sqrt(sum(w * w for w, _idf, _pos, _tfs in weighted))

        dots = np.zeros(self.index.n_docs)
        for qw, idf, pos, tfs in weighted:
            dots[pos] += qw * tfs * idf
        if sq_norms is None:
            sq_norms = self._sq_norms
        nonzero = sq_norms > 0.0
        scores[nonzero] = dots[nonzero] / (query_norm * np.sqrt(sq_norms[nonzero]))
        return scores

    def _fused(self, query: TokenStream, _query_id, _query_text) -> np.ndarray:
        return fuse_product(self._bm25(query, Variant.ATIRE), self._tfidf(query))

    def _rake_tfidf(self, query: TokenStream, _query_id, query_text: str | None) -> np.ndarray:
        if query_text is None:
            raise ValueError("rake_tfidf requires the raw query text")
        if self.corpus_texts is None:
            raise ValueError("rake_tfidf requires the raw corpus texts")
        if self.config is None:
            raise ValueError("rake_tfidf requires the normalization pipeline configuration")
        stopset = self.stopwords
        query_words: set[str] = set()
        top_k = default_keyword_count(query_text, stopset)
        for phrase, _score in rake_extract(query_text, stopset, top_k):
            query_words.update(tokenize_normalize(phrase, self.config, stopset))
        base_vocab = self._rake_vocab
        term_ids = self.index.term_ids
        extras = [term_ids[t] for t in query_words - base_vocab if t in term_ids]
        sq_norms = self._rake_sq_norms
        if extras:
            keep = np.zeros(len(self.index.terms), bool)
            keep[extras] = True
            sq_norms = sq_norms + self._squared_norms(keep)
        return self._tfidf(query, vocab=base_vocab | query_words, sq_norms=sq_norms)

    def _commonwords(self, query: TokenStream, _query_id, _query_text) -> np.ndarray:
        overlap = np.zeros(self.index.n_docs)
        for _tid, _count, pos, _tfs in self._postings((term, 1) for term in set(query)):
            overlap[pos] += 1
        return overlap * self._bm25(query, Variant.ATIRE)

    def _embed(self, _query, query_id: str | None, _query_text) -> np.ndarray:
        if query_id is None:
            raise ValueError("embed scorer requires a query id")
        if self.embeddings is None:
            raise ValueError("embed scorer requires an embedding store")
        if query_id not in self.embeddings:
            raise ValueError(f"embedding store has no vector for query {query_id!r}")
        query_vec = self.embeddings.query_vector(query_id)
        scores = np.zeros(self.index.n_docs)
        for pos, doc_id in enumerate(self.index.doc_ids):
            if doc_id not in self.embeddings:
                raise ValueError(f"embedding store has no vectors for document {doc_id!r}")
            scores[pos] = aggregate_chunk_similarity(query_vec, self.embeddings.chunks(doc_id))
        return scores

    # -- public API ------------------------------------------------------------

    def _scores(
        self, scorer: str, query: TokenStream, query_id: str | None, query_text: str | None
    ) -> np.ndarray:
        """Dense scores by document position."""
        fn = _SCORERS.get(scorer)
        if fn is None:
            raise ValueError(
                f"unknown scorer {scorer!r}; expected one of {', '.join(SCORER_NAMES)}"
            )
        return fn(self, query, query_id, query_text)

    def _ranking(self, scores: np.ndarray, order: np.ndarray) -> Ranking:
        ids = self.index.doc_ids
        return [(ids[p], s) for p, s in zip(order.tolist(), scores[order].tolist())]

    def score(
        self,
        scorer: str,
        query: TokenStream,
        query_id: str | None = None,
        query_text: str | None = None,
    ) -> Ranking:
        """Full ranking of the corpus for one query under `scorer`."""
        scores = self._scores(scorer, query, query_id, query_text)
        return self._ranking(scores, np.argsort(-scores, kind="stable"))

    def search_all(
        self,
        queries: Sequence[tuple[str, str]],
        scorer: str,
        top_n: int = 100,
        workers: int = 1,
    ) -> dict[str, Ranking]:
        """Rank every (query_id, raw text) pair; returns top-`top_n` each.

        Queries may be scored concurrently; results are keyed and ordered
        by query id, so the output is identical for any worker count.
        """
        if self.config is None:
            raise ValueError("search_all needs the pipeline configuration to tokenize queries")
        if top_n < 1:
            raise ValueError("top_n must be >= 1")

        def one(item: tuple[str, str]) -> tuple[str, Ranking]:
            qid, text = item
            tokens = tokenize_normalize(text, self.config, self.stopwords)
            scores = self._scores(scorer, tokens, qid, text)
            return qid, self._ranking(scores, _top_positions(scores, top_n))

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(one, queries))
        else:
            results = [one(item) for item in queries]
        return dict(sorted(results))


def _top_positions(scores: np.ndarray, top_n: int) -> np.ndarray:
    """Positions of the `top_n` best scores, by (-score, position).

    Equals the first `top_n` entries of a full stable sort: every
    document tied with the `top_n`-th score is a candidate, so the
    lowest positions (ids) win the ties at the cut-off.
    """
    if top_n < scores.size:
        cut = scores[np.argpartition(-scores, top_n - 1)[top_n - 1]]
        candidates = np.flatnonzero(scores >= cut)
    else:
        candidates = np.arange(scores.size)
    order = np.argsort(-scores[candidates], kind="stable")
    return candidates[order[:top_n]]


_Scorer = Callable[[Searcher, TokenStream, "str | None", "str | None"], np.ndarray]


def _bm25_scorer(variant: Variant) -> _Scorer:
    return lambda searcher, query, _query_id, _query_text: searcher._bm25(query, variant)


# The one table of scorers: names, CLI choices and dispatch all read it.
_SCORERS: dict[str, _Scorer] = {
    "tfidf_cos": lambda searcher, query, _query_id, _query_text: searcher._tfidf(query),
    "bm25": _bm25_scorer(Variant.ATIRE),
    "bm25_okapi": _bm25_scorer(Variant.OKAPI),
    "bm25l": _bm25_scorer(Variant.BM25L),
    "bm25plus": _bm25_scorer(Variant.BM25PLUS),
    "fused": Searcher._fused,
    "rake_tfidf": Searcher._rake_tfidf,
    "commonwords_bm25": Searcher._commonwords,
    "embed": Searcher._embed,
}
SCORER_NAMES = tuple(_SCORERS)


def score_query(
    query: TokenStream,
    index: CorpusIndex,
    scorer: str,
    params: BM25Params = BM25Params(),
    *,
    config: PipelineConfig | None = None,
    stopwords: Iterable[str] = ENGLISH_STOPWORDS,
    embeddings: EmbeddingStore | None = None,
    corpus_texts: Mapping[str, str] | None = None,
    query_id: str | None = None,
    query_text: str | None = None,
) -> Ranking:
    """One-shot convenience wrapper around `Searcher.score`."""
    searcher = Searcher(
        index,
        config=config,
        stopwords=stopwords,
        params=params,
        embeddings=embeddings,
        corpus_texts=corpus_texts,
    )
    return searcher.score(scorer, query, query_id=query_id, query_text=query_text)
