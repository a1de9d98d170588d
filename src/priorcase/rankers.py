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

Each lexical scorer gathers the postings of all its query terms once per
query, joining each term's whole slice in first-occurrence order with
one `b"".join` of memoryview slices, read back with `np.frombuffer`;
`fused` and `commonwords_bm25` share that one gather between their two
halves.  Every posting's impact is computed in place, in the scalar
formula's order (the multiply by the query count is skipped when every
count is 1, which changes no bit), and added into one slot per document
with one `np.bincount`, which adds in input order from 0.0: each
document sees the same float additions as a term-by-term accumulation.
The Searcher computes the shared statistics once: per BM25 variant the
IDF and `idf * (k1 + 1)` tables by df, `k1 * norm` by document, and the
TF-IDF document norms.  A ranking takes its document ids with one fancy
index into an object array of the ids.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Mapping

import numpy as np

from .embeddings import EmbeddingStore
from .index import _SLICE, CorpusIndex, PipelineMismatchError, _term_blocks
from .rake import keyword_words
from .stopwords import ENGLISH_STOPWORDS
from .textproc import PipelineConfig, TokenStream, pipeline_fingerprint, tokenize_corpus, tokenize_normalize

Ranking = list[tuple[str, float]]
_Postings = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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
        # each check is written so that NaN fails it
        if not 0 < self.k1 < math.inf:
            raise ValueError("k1 must be > 0 and finite")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be >= 0 and finite")
        if self.delta is not None and not 0 <= self.delta < math.inf:
            raise ValueError("delta must be >= 0 and finite")

    def delta_for(self, variant: Variant) -> float:
        if self.delta is not None:
            return self.delta
        return 0.5 if variant is Variant.BM25L else 1.0


# ---------------------------------------------------------------------------
# term-level scoring

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
    happens exactly when df > n_docs / 2.  `Searcher._impacts` runs the
    same float64 operations in the same order over arrays of postings,
    so both give identical bits.
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
    k1 = params.k1
    if variant is Variant.BM25L:
        delta = params.delta_for(variant)
        ctd = tf / norm
        return idf * (k1 + 1.0) * (ctd + delta) / (k1 + ctd + delta)
    if variant is Variant.BM25PLUS:
        delta = params.delta_for(variant)
        return idf * (delta + (k1 + 1.0) * tf / (k1 * norm + tf))
    return idf * (k1 + 1.0) * tf / (k1 * norm + tf)


def okapi_mean_idf(index: CorpusIndex) -> float:
    """Mean raw Okapi IDF over the whole vocabulary (may be negative)."""
    n = index.n_docs
    dfs = np.diff(index.offsets).tolist()
    # `math.log` per df, in term order: `np.log` can differ in the last bit
    total = sum(math.log((n - df + 0.5) / (df + 0.5)) for df in dfs)
    return total / len(dfs)


def fuse_product(bm25, cosine):
    """Product fusion of BM25 scores and cosine similarities.

    Takes two floats or two equally shaped arrays.
    """
    if not (np.isfinite(bm25).all() and np.isfinite(cosine).all()):
        raise ValueError("fusion inputs must be finite")
    return bm25 * cosine


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
    words: set[str] = set()
    for _key, raw in texts:
        words |= keyword_words(raw, stopset)
    if not words:
        return frozenset()
    # the pipeline maps each token on its own, so one pass over all words
    # gives the union of normalizing each kept phrase
    return frozenset(tokenize_normalize(" ".join(words), config, stopset))


# ---------------------------------------------------------------------------
# corpus-level scoring

class Searcher:
    """Scores queries against a frozen index under any of the scorers.

    Optional resources: `corpus_texts` (id -> raw text of exactly the
    indexed documents) is needed by rake_tfidf, `embeddings` by embed.
    When `config` is given, its fingerprint must match the one recorded
    in the index.

    Every corpus statistic a scorer reads (BM25 length norms, the Okapi
    mean IDF, TF-IDF document norms, the RAKE vocabulary and its norms,
    the stacked chunk vectors and their norms) is computed here, once;
    scoring only reads them.
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
        if corpus_texts is not None and set(corpus_texts) != set(index.doc_ids):
            stray = min(set(corpus_texts).symmetric_difference(index.doc_ids))
            raise ValueError(f"corpus texts do not match the index: document {stray!r} "
                             f"is in the {'texts' if stray in corpus_texts else 'index'} only")
        self.corpus_texts = corpus_texts

        self._df = np.diff(index.offsets)
        # the gather joins byte slices of these; a ranking indexes the ids at once
        self._positions = memoryview(index.positions)
        self._tfs = memoryview(index.tfs)
        self._doc_ids = np.array(index.doc_ids, dtype=object)
        self._norm = 1.0 - params.b + params.b * (index.lengths / index.avg_len)
        n = index.n_docs
        avg_idf = okapi_mean_idf(index)
        # each variant's IDF by df (slot 0 unused), from the scalar `math.log`:
        # `np.log` can differ from it in the last bit
        dfs = range(1, n + 1)
        self._idf_by_df = {v: np.array([math.nan] + [
            _bm25_idf(v, df, n, params.epsilon, avg_idf) for df in dfs]) for v in Variant}
        # the per-posting factors that do not depend on the query
        self._idf_k1 = {v: table * (params.k1 + 1.0) for v, table in self._idf_by_df.items()}
        self._k1_norm = params.k1 * self._norm
        # a parameter so large that a table overflows is named here; an overflow
        # in a posting's own arithmetic fails the ranking cut (`_ranking`)
        okapi = Variant.OKAPI
        for names, tables in (
                ("epsilon", [self._idf_by_df[okapi][1:]]),
                ("k1", [self._k1_norm] + [t[1:] for v, t in self._idf_k1.items() if v is not okapi]),
                ("k1 or epsilon", [self._idf_k1[okapi][1:]])):
            if not all(np.isfinite(table).all() for table in tables):
                raise ValueError(f"the BM25 tables overflow for this index; lower {names}")
        idf = self._idf_by_df[Variant.ATIRE][self._df]
        self._sq_norms = self._squared_norms(idf)
        self._doc_norms = np.sqrt(self._sq_norms)
        self._nonzero = self._sq_norms > 0.0
        self._rake_vocab: frozenset[str] = frozenset()
        self._rake_sq_norms = np.zeros(n)
        if corpus_texts is not None and config is not None:
            self._rake_vocab = build_rake_vocabulary(
                sorted(corpus_texts.items()), config, stopset
            )
            in_vocab = [term in self._rake_vocab for term in index.terms]
            self._rake_sq_norms = self._squared_norms(np.where(in_vocab, idf, 0.0))
        self._stack_chunks()

    # -- postings access -------------------------------------------------------

    def _postings(self, terms: Iterable[str]) -> _Postings:
        """The in-vocabulary terms of `terms` in first-occurrence (`Counter`)
        order: each one's count (a float, so that multiplying by it casts
        nothing) and df, then the document position and tf of every
        posting, each term's slice whole and in that order."""
        idx = self.index
        term_ids = idx.term_ids
        counter = Counter(terms)
        kept = [t for t in counter if t in term_ids]
        tids = np.fromiter(map(term_ids.__getitem__, kept), np.intp, len(kept))
        counts = np.fromiter(map(counter.__getitem__, kept), np.float64, len(kept))
        spans = list(map(slice, idx.offsets[tids].tolist(), idx.offsets[tids + 1].tolist()))
        pos, tf = self._positions, self._tfs
        return (counts, self._df[tids],
                np.frombuffer(b"".join(map(pos.__getitem__, spans)), idx.positions.dtype),
                np.frombuffer(b"".join(map(tf.__getitem__, spans)), idx.tfs.dtype))

    def _squared_norms(self, idf: np.ndarray) -> np.ndarray:
        """Per-document sums of squared TF-IDF weights, term id `t` weighing
        `idf[t]`, in term order.  `np.add.at` adds each block of whole terms
        (about `_SLICE` postings) in input order: the same additions as one
        bincount over all.  IDF 0.0 adds +0.0, a no-op."""
        idx = self.index
        edges = _term_blocks(idx.offsets, _SLICE)
        sums = np.zeros(idx.n_docs)
        for lo, hi in zip(edges, edges[1:]):
            at = slice(idx.offsets[lo], idx.offsets[hi])
            w = idx.tfs[at] * np.repeat(idf[lo:hi], self._df[lo:hi])
            w *= w
            np.add.at(sums, idx.positions[at], w)
        return sums

    def _stack_chunks(self) -> None:
        """Stack every document's chunk vectors, in position order, for `embed`.

        A document missing from the store or without chunks fails `embed`
        only, when it scores, so the other scorers still work.
        """
        self._chunk_error: str | None = None
        store = self.embeddings
        if store is None:
            return
        chunks: list[np.ndarray] = []
        counts: list[int] = []
        for doc_id in self.index.doc_ids:
            if doc_id not in store:
                self._chunk_error = f"embedding store has no vectors for document {doc_id!r}"
                return
            doc_chunks = store.chunks(doc_id)
            if not doc_chunks:
                # np.bincount would give such a document a mean of 0/0
                self._chunk_error = "document has no chunk vectors"
                return
            chunks.extend(doc_chunks)
            counts.append(len(doc_chunks))
        self._chunks = np.array(chunks, dtype=np.float64)
        self._chunk_norms = np.array([float(np.linalg.norm(v)) for v in chunks])
        self._chunk_doc = np.repeat(np.arange(len(counts)), counts)
        self._chunk_counts = np.array(counts)

    # -- individual scorers --------------------------------------------------

    def _impacts(self, postings: _Postings, variant: Variant) -> np.ndarray:
        """Each posting's `count * bm25_term_score(...)`: its float64
        operations in its order, the query-free factors from tables."""
        counts, df, pos, tf = postings
        k1 = self.params.k1
        # `take` gathers by position about twice as fast as indexing
        if variant is Variant.BM25L:
            delta = self.params.delta_for(variant)
            ctd = tf / self._norm.take(pos)
            den = ctd + k1
            den += delta
            ctd += delta
            imp = np.repeat(self._idf_k1[variant][df], df)
            imp *= ctd
            imp /= den
        elif variant is Variant.BM25PLUS:
            imp = tf * (k1 + 1.0)
            imp /= self._k1_norm.take(pos) + tf
            imp += self.params.delta_for(variant)
            imp *= np.repeat(self._idf_by_df[variant][df], df)
        else:
            imp = np.repeat(self._idf_k1[variant][df], df)
            imp *= tf
            den = self._k1_norm.take(pos)
            den += tf
            imp /= den
        if (counts != 1.0).any():  # multiplying by 1.0 changes no bit
            imp *= np.repeat(counts, df)
        return imp

    def _bm25(self, postings: _Postings, variant: Variant) -> np.ndarray:
        return np.bincount(postings[2], weights=self._impacts(postings, variant),
                           minlength=self.index.n_docs)

    def _tfidf(self, postings: _Postings, doc_norms: np.ndarray | None = None) -> np.ndarray:
        # a df = N term weighs ln 1 = 0.0, and every weight is >= 0, so its
        # postings add +0.0 and leave each sum's bits as they are
        counts, df, pos, tf = postings
        scores = np.zeros(self.index.n_docs)
        idf = self._idf_by_df[Variant.ATIRE][df]
        weight = counts * idf
        query_norm = math.sqrt(sum(w * w for w in weight.tolist()))
        if query_norm == 0.0:
            return scores
        imp = np.repeat(weight, df)
        imp *= tf
        imp *= np.repeat(idf, df)
        dots = np.bincount(pos, weights=imp, minlength=self.index.n_docs)
        if doc_norms is None:
            doc_norms, nonzero = self._doc_norms, self._nonzero
        else:
            nonzero = doc_norms > 0.0
        np.divide(dots, doc_norms * query_norm, out=scores, where=nonzero)
        return scores

    def _fused(self, query: TokenStream, _query_id, _query_text) -> np.ndarray:
        postings = self._postings(query)
        # `fuse_product`'s product; the ranking cut checks that it is finite
        return self._bm25(postings, Variant.ATIRE) * self._tfidf(postings)

    def _rake_tfidf(self, query: TokenStream, query_id, query_text: str | None) -> np.ndarray:
        if query_text is None:
            raise ValueError("rake_tfidf requires the raw query text")
        if self.corpus_texts is None:
            raise ValueError("rake_tfidf requires the raw corpus texts")
        if self.config is None:
            raise ValueError("rake_tfidf requires the normalization pipeline configuration")
        query_words = build_rake_vocabulary([(query_id, query_text)], self.config, self.stopwords)
        base = self._rake_vocab
        # extra keywords outside the index gather nothing and add zeros
        _counts, df, pos, tf = self._postings(sorted(query_words - base))
        w = tf * np.repeat(self._idf_by_df[Variant.ATIRE][df], df)
        sq_norms = self._rake_sq_norms + np.bincount(pos, weights=w * w,
                                                     minlength=self.index.n_docs)
        kept = [t for t in query if t in base or t in query_words]
        return self._tfidf(self._postings(kept), np.sqrt(sq_norms))

    def _commonwords(self, query: TokenStream, _query_id, _query_text) -> np.ndarray:
        postings = self._postings(query)
        # a term lists a document at most once: this counts distinct query terms
        overlap = np.bincount(postings[2], minlength=self.index.n_docs)
        return overlap * self._bm25(postings, Variant.ATIRE)

    def _embed(self, _query, query_id: str | None, _query_text) -> np.ndarray:
        if query_id is None:
            raise ValueError("embed scorer requires a query id")
        if self.embeddings is None:
            raise ValueError("embed scorer requires an embedding store")
        if query_id not in self.embeddings:
            raise ValueError(f"embedding store has no vector for query {query_id!r}")
        query_vec = self.embeddings.query_vector(query_id)
        if self._chunk_error is not None:
            raise ValueError(self._chunk_error)
        query_norm = float(np.linalg.norm(query_vec))
        cos = np.zeros(len(self._chunk_norms))
        if query_norm != 0.0:
            # einsum sums each row by itself, so equal chunks get equal bits
            # wherever they sit; BLAS `@` does not guarantee that
            dots = np.einsum("ij,j->i", self._chunks, query_vec)
            np.divide(dots, query_norm * self._chunk_norms, out=cos,
                      where=self._chunk_norms != 0.0)
        # bincount adds each document's chunks in order, as `sum` does
        sums = np.bincount(self._chunk_doc, weights=cos, minlength=self.index.n_docs)
        return sums / self._chunk_counts

    # -- public API ------------------------------------------------------------

    def _scores(
        self, scorer: str, query: TokenStream, query_id: str | None, query_text: str | None
    ) -> np.ndarray:
        """Dense float scores by document position."""
        fn = _SCORERS.get(scorer)
        if fn is None:
            check_scorers([scorer])
        # np.bincount over no postings returns int64 zeros
        return fn(self, query, query_id, query_text).astype(np.float64, copy=False)

    def _ranking(self, scores: np.ndarray, top_n: int, scorer: str,
                 query_id: str | None) -> Ranking:
        """The `top_n` best (doc id, score) pairs, in `_top_positions` order;
        a ValueError naming the scorer when a NaN or an infinity is among them."""
        order = _top_positions(scores, top_n)
        if order is None:
            query = "" if query_id is None else f" for query {query_id!r}"
            hint = _OVERFLOWS.get(scorer)
            raise ValueError(f"{scorer} scores{query} are not finite"
                             + (f"; lower {hint}" if hint else ""))
        return list(zip(self._doc_ids[order].tolist(), scores[order].tolist()))

    def score(
        self,
        scorer: str,
        query: TokenStream,
        query_id: str | None = None,
        query_text: str | None = None,
    ) -> Ranking:
        """Full ranking of the corpus for one query under `scorer`."""
        return self._ranking(self._scores(scorer, query, query_id, query_text),
                             self.index.n_docs, scorer, query_id)

    def search_all(
        self,
        queries: Iterable[tuple[str, str]],
        scorer: str,
        top_n: int = 100,
        workers: int = 1,
    ) -> dict[str, Ranking]:
        """Rank the top `top_n` of every (query_id, raw text) pair, all tokenized in one call.

        Queries may be scored concurrently; results are keyed and ordered
        by query id, so the output is identical for any worker count.
        """
        if self.config is None:
            raise ValueError("search_all needs the pipeline configuration to tokenize queries")
        queries = list(queries)
        seen: set[str] = set()
        for qid, _text in queries:
            if qid in seen:
                raise ValueError(f"duplicate query id {qid!r}")
            seen.add(qid)
        tokens = tokenize_corpus([text for _qid, text in queries], self.config, self.stopwords)
        return self._rank(queries, tokens, scorer, top_n, workers)

    def _rank(self, queries: list[tuple[str, str]], tokens: list[TokenStream], scorer: str,
              top_n: int, workers: int) -> dict[str, Ranking]:
        """The one ranking loop: each (query_id, raw text) pair, ids distinct, by its tokens."""
        check_ranking_options(top_n, workers)

        def one(query: tuple[str, str], stream: TokenStream) -> tuple[str, Ranking]:
            qid, text = query
            return qid, self._ranking(self._scores(scorer, stream, qid, text), top_n, scorer, qid)

        if workers > 1:
            # the pool's threads take this thread's floating-point error state
            with ThreadPoolExecutor(max_workers=workers,
                                    initializer=partial(np.seterr, **np.geterr())) as pool:
                results = list(pool.map(one, queries, tokens))
        else:
            results = list(map(one, queries, tokens))
        return dict(sorted(results))


def _top_positions(scores: np.ndarray, top_n: int) -> np.ndarray | None:
    """Positions of the `top_n` best scores, by (-score, position), or None
    when a NaN or an infinity is among the best `top_n`.

    Equals the first `top_n` entries of a full stable sort: every
    document tied with the `top_n`-th score is a candidate, so the
    lowest positions (ids) win the ties at the cut-off.  For `top_n` >=
    the size the cut is the lowest score and every position is a candidate.
    The partition puts NaN above infinity, so any NaN in `scores` is in the
    best `top_n` it checks: the check costs O(`top_n`).
    """
    k = min(top_n, scores.size)
    best = np.partition(scores, -k)[-k:]
    if not np.isfinite(best).all():
        return None
    candidates = np.flatnonzero(scores >= best[0])
    order = np.argsort(-scores[candidates], kind="stable")
    return candidates[order[:top_n]]


_Scorer = Callable[[Searcher, TokenStream, "str | None", "str | None"], np.ndarray]


def _bm25_scorer(variant: Variant) -> _Scorer:
    return lambda searcher, query, _qid, _text: searcher._bm25(searcher._postings(query), variant)


# The one table of scorers: names, CLI choices and dispatch all read it.
_SCORERS: dict[str, _Scorer] = {
    "tfidf_cos": lambda searcher, query, _qid, _text: searcher._tfidf(searcher._postings(query)),
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
# the parameters whose size can overflow each BM25 scorer's arithmetic
_OVERFLOWS = {"bm25": "k1", "bm25_okapi": "k1 or epsilon", "bm25l": "k1 or delta",
              "bm25plus": "k1 or delta", "fused": "k1", "commonwords_bm25": "k1"}


def check_scorers(names: Iterable[str]) -> None:
    """Raise the one unknown-scorer ValueError, naming every entry of `names` that is none."""
    unknown = [name for name in names if name not in _SCORERS]
    if unknown:
        raise ValueError(f"unknown scorer {', '.join(map(repr, unknown))}; "
                         f"expected one of {', '.join(SCORER_NAMES)}")


def check_ranking_options(top_n: int, workers: int) -> None:
    """Raise the ValueError for a `top_n` or a `workers` below 1."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
