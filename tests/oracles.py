"""Independent brute-force reference scorers used as test oracles.

Everything here evaluates the defining formulas directly from raw token
lists (no inverted index, no caching, no posting-list traversal), so the
engine and these functions share no scoring or keyword-extraction code.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from priorcase.textproc import tokenize_normalize


def corpus_stats(docs: dict[str, list[str]]):
    """(N, df, doc_len, avg_len) computed by direct counting."""
    n = len(docs)
    vocab = sorted({t for tokens in docs.values() for t in tokens})
    df = {t: sum(1 for tokens in docs.values() if t in tokens) for t in vocab}
    doc_len = {d: len(tokens) for d, tokens in docs.items()}
    avg_len = sum(doc_len.values()) / n if n else 0.0
    return n, df, doc_len, avg_len


def naive_rank(scores: dict[str, float], doc_ids) -> list[tuple[str, float]]:
    entries = [(d, scores.get(d, 0.0)) for d in doc_ids]
    return sorted(entries, key=lambda e: (-e[1], e[0]))


def _tfidf_vec(tokens: list[str], n: int, df: dict[str, int]) -> dict[str, float]:
    counts = Counter(tokens)
    return {t: counts[t] * math.log(n / df[t]) for t in sorted(counts) if t in df}


def _sparse_cos(a: dict[str, float], b: dict[str, float]) -> float:
    dot = sum(a[t] * b[t] for t in sorted(a) if t in b)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    return dot / (na * nb) if na > 0 and nb > 0 else 0.0


def naive_tfidf_cos(docs: dict[str, list[str]], query: list[str]) -> dict[str, float]:
    n, df, _lens, _avg = corpus_stats(docs)
    qvec = _tfidf_vec(query, n, df)
    return {d: _sparse_cos(qvec, _tfidf_vec(tokens, n, df)) for d, tokens in docs.items()}


def naive_okapi_avg_idf(docs: dict[str, list[str]]) -> float:
    n, df, _lens, _avg = corpus_stats(docs)
    if not df:
        return 0.0
    idfs = [math.log((n - v + 0.5) / (v + 0.5)) for v in df.values()]
    return sum(idfs) / len(idfs)


def naive_bm25(
    docs: dict[str, list[str]],
    query: list[str],
    k1: float = 1.5,
    b: float = 0.75,
    epsilon: float = 0.25,
    delta: float | None = None,
    variant: str = "atire",
) -> dict[str, float]:
    """Sum of per-occurrence term scores, each evaluated from scratch."""
    n, df, doc_len, avg_len = corpus_stats(docs)
    avg_idf = naive_okapi_avg_idf(docs) if variant == "okapi" else None
    scores = {}
    for d, tokens in docs.items():
        counts = Counter(tokens)
        total = 0.0
        for term in query:  # one contribution per query-term occurrence
            if term not in df:
                continue
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            norm = 1.0 - b + b * (doc_len[d] / avg_len)
            if variant == "atire":
                idf = math.log(n / df[term])
                total += idf * (k1 + 1) * tf / (k1 * norm + tf)
            elif variant == "okapi":
                idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5))
                if idf < 0:
                    idf = epsilon * avg_idf
                total += idf * (k1 + 1) * tf / (k1 * norm + tf)
            elif variant == "bm25l":
                dlt = 0.5 if delta is None else delta
                idf = math.log((n + 1) / (df[term] + 0.5))
                ctd = tf / norm
                total += idf * (k1 + 1) * (ctd + dlt) / (k1 + ctd + dlt)
            elif variant == "bm25plus":
                dlt = 1.0 if delta is None else delta
                idf = math.log((n + 1) / df[term])
                total += idf * (dlt + (k1 + 1) * tf / (k1 * norm + tf))
            else:
                raise ValueError(variant)
        scores[d] = total
    return scores


def naive_fused(docs: dict[str, list[str]], query: list[str], **bm25_kw) -> dict[str, float]:
    bm25 = naive_bm25(docs, query, **bm25_kw)
    cos = naive_tfidf_cos(docs, query)
    return {d: bm25[d] * cos[d] for d in docs}


def naive_commonwords_bm25(docs, query, **bm25_kw) -> dict[str, float]:
    bm25 = naive_bm25(docs, query, **bm25_kw)
    return {
        d: len(set(query) & set(tokens)) * bm25[d]
        for d, tokens in docs.items()
    }


def naive_rake_phrases(raw: str, stopwords) -> list[tuple[str, ...]]:
    """RAKE candidate phrases by a two-level split of the lowercased text:
    first into segments at `_` and every character that is neither
    alphanumeric nor whitespace, then each segment into alphanumeric runs,
    with a new phrase after every stopword."""
    phrases = []
    for segment in re.split(r"[^\w\s]|_", raw.lower()):
        current = []
        for word in re.findall(r"[^\W_]+", segment):
            if word in stopwords:
                if current:
                    phrases.append(tuple(current))
                current = []
            else:
                current.append(word)
        if current:
            phrases.append(tuple(current))
    return phrases


def naive_rake_keywords(raw: str, stopwords) -> list[tuple[str, float]]:
    """A text's default RAKE keywords: the top max(10, ceil(distinct / 3))
    distinct phrases by descending score, ties by phrase text.  A word
    scores deg/freq over all candidate phrases; a phrase scores the sum of
    its word scores, taken in phrase order."""
    phrases = naive_rake_phrases(raw, stopwords)
    freq, degree = Counter(), Counter()
    for phrase in phrases:
        for word in phrase:
            freq[word] += 1
            degree[word] += len(phrase)
    scores = {}
    for phrase in phrases:
        scores[" ".join(phrase)] = sum(degree[w] / freq[w] for w in phrase)
    keep = max(10, math.ceil(len(freq) / 3))
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:keep]


def naive_rake_vocab(raw_texts, config, stopwords) -> set[str]:
    vocab = set()
    for raw in raw_texts:
        for phrase, _score in naive_rake_keywords(raw, stopwords):
            vocab.update(tokenize_normalize(phrase, config, stopwords))
    return vocab


def naive_rake_tfidf_cos(
    docs: dict[str, list[str]],
    raw_docs: dict[str, str],
    query: list[str],
    raw_query: str,
    config,
    stopwords,
) -> dict[str, float]:
    """TF-IDF cosine restricted to RAKE keyword unigrams."""
    vocab = naive_rake_vocab(
        [raw_docs[d] for d in sorted(raw_docs)] + [raw_query], config, stopwords
    )
    n, df, _lens, _avg = corpus_stats(docs)
    qvec = {t: w for t, w in _tfidf_vec(query, n, df).items() if t in vocab}
    scores = {}
    for d, tokens in docs.items():
        dvec = {t: w for t, w in _tfidf_vec(tokens, n, df).items() if t in vocab}
        scores[d] = _sparse_cos(qvec, dvec)
    return scores


def naive_embed(doc_ids, store, query_id: str) -> dict[str, float]:
    """Mean cosine of query vector vs. chunk vectors, in plain Python."""
    qv = [float(x) for x in store.chunks(query_id)[0]]

    def cos(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        return dot / (nu * nv) if nu > 0 and nv > 0 else 0.0

    scores = {}
    for d in doc_ids:
        chunks = [[float(x) for x in c] for c in store.chunks(d)]
        scores[d] = sum(cos(qv, c) for c in chunks) / len(chunks)
    return scores
