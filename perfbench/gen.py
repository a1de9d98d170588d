"""Seeded input generators for the three benchmark workloads.

The engine never sees a seed: every function here turns a seed into
plain inputs (token lists, text files, query pairs, qrels) and the
workloads hand only those to the public API and the CLI.

`desk_short_data` is the acceptance test's desk-scale generator
(`tests/test_acceptance.py::test_desk_scale_performance`), the same
calls in the same order with seeds 7 and 11, so both time identical
data.  `write_legal_corpus` makes AILA-shaped raw text: log-normal
document lengths over a Zipf vocabulary of invented English-like words,
with the bundled stopwords, digits and punctuation mixed in.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from priorcase.stopwords import ENGLISH_STOPWORDS

DESK_DOC_SEED = 7
DESK_QUERY_SEED = 11


@dataclass
class DeskData:
    docs: list[tuple[str, list[str]]]
    queries: list[tuple[str, str]]
    qrels: dict[str, set[str]]


def desk_short_data(n_docs: int = 3000, n_queries: int = 50) -> DeskData:
    """The acceptance test's desk-scale corpus, queries and qrels."""
    np_rng = np.random.default_rng(DESK_DOC_SEED)
    vocab = [f"w{i:04d}" for i in range(1500)]
    weights = 1.0 / (np.arange(1500) + 10.0)
    weights /= weights.sum()

    docs = []
    for i in range(n_docs):
        length = int(np_rng.integers(1900, 2101))
        draw = np_rng.choice(1500, size=length, p=weights)
        docs.append((f"doc{i:04d}", [vocab[j] for j in draw]))

    rng = random.Random(DESK_QUERY_SEED)
    queries = []
    for q in range(n_queries):
        words = " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 8)))
        queries.append((f"q{q:02d}", words))
    qrels: dict[str, set[str]] = {}
    for q in range(n_queries):
        qrels[f"q{q:02d}"] = set(rng.sample([d for d, _ in docs], 5))
    return DeskData(docs, queries, qrels)


def desk_short_digest(data: DeskData) -> str:
    """sha256 over the docs, queries and qrels exactly as the test writes them."""
    h = hashlib.sha256()
    for doc_id, tokens in data.docs:
        h.update(f"{doc_id}\t{' '.join(tokens)}\n".encode())
    for qid, text in data.queries:
        h.update(f"{qid}\t{text}\n".encode())
    for qid in sorted(data.qrels):
        for doc_id in sorted(data.qrels[qid]):
            h.update(f"{qid} 0 {doc_id} 1\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# legal-long: raw text shaped like long case documents

VOCAB_SIZE = 30_000
_VOCAB_SEED = 2019
_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "br", "cl", "cr", "dr", "fl", "gr", "pl", "pr", "st", "tr",
           "sh", "ch", "th"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "io"]
_CODAS = ["", "", "n", "r", "s", "t", "l", "m", "nd", "st", "rt", "ct", "nt"]
# Real suffixes, so the Porter stemmer does the work it does on case text.
_SUFFIXES = ["", "", "", "", "s", "ed", "ing", "ion", "ation", "ness", "ment",
             "ly", "ful", "ive", "able", "ize", "ity", "al", "ence", "er",
             "ous", "ism", "ant"]
_STOPWORDS = sorted(w for w in ENGLISH_STOPWORDS if "'" not in w)
# Token mix: ~38% stopwords and ~3% numbers, the rest content words.
_STOP_SHARE = 0.38
_DIGIT_SHARE = 0.03
# Median 1,200 words; sigma 0.6 gives the long right tail of case reports.
DOC_MEDIAN_WORDS = 1200
DOC_SIGMA = 0.6
QUERY_WORDS = (100, 300)
EMBED_DIM = 64


def _vocabulary() -> list[str]:
    rng = random.Random(_VOCAB_SEED)
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < VOCAB_SIZE:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(rng.choice((1, 2, 2, 3)))
        ) + rng.choice(_SUFFIXES)
        if len(word) < 3 or word in seen or word in ENGLISH_STOPWORDS:
            continue
        seen.add(word)
        words.append(word)
    return words


class TextGenerator:
    """Draws words and punctuation; one instance per benchmark process."""

    def __init__(self) -> None:
        self.vocab = _vocabulary()
        weights = 1.0 / (np.arange(VOCAB_SIZE) + 2.7)
        self.cum = np.cumsum(weights / weights.sum())

    def words(self, rng: np.random.Generator, n: int) -> list[str]:
        kind = rng.random(n)
        content = np.minimum(np.searchsorted(self.cum, rng.random(n)), VOCAB_SIZE - 1)
        stops = rng.integers(0, len(_STOPWORDS), n)
        numbers = rng.integers(1, 2030, n)
        out = []
        for i in range(n):
            if kind[i] < _STOP_SHARE:
                out.append(_STOPWORDS[stops[i]])
            elif kind[i] < _STOP_SHARE + _DIGIT_SHARE:
                out.append(str(numbers[i]))
            else:
                out.append(self.vocab[content[i]])
        return out

    @staticmethod
    def text(rng: np.random.Generator, words: list[str]) -> str:
        marks = rng.random(len(words))
        parts = []
        for word, mark in zip(words, marks):
            parts.append(word)
            parts.append(". " if mark < 0.06 else ", " if mark < 0.12 else "; " if mark < 0.13 else " ")
        return "".join(parts).rstrip() + "\n"


def lognormal_lengths(rng: np.random.Generator, n: int) -> list[int]:
    """Document lengths at the n evenly spaced quantiles, in seeded order.

    Using quantiles instead of draws keeps the length distribution, and
    so the total work, the same for every seed; the seed decides which
    document gets which length.
    """
    normal = NormalDist()
    lengths = [
        max(20, round(DOC_MEDIAN_WORDS * math.exp(DOC_SIGMA * normal.inv_cdf((i + 0.5) / n))))
        for i in range(n)
    ]
    order = rng.permutation(n)
    return [lengths[i] for i in order]


@dataclass
class LegalCorpus:
    corpus_dir: Path
    n_docs: int
    words: int
    digest: str


def write_legal_corpus(gen: TextGenerator, rng: np.random.Generator, out_dir: Path,
                       n_docs: int, prefix: str = "case") -> tuple[LegalCorpus, dict[str, list[str]]]:
    """Write `n_docs` raw-text files; returns the corpus and each doc's words."""
    out_dir.mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    doc_words: dict[str, list[str]] = {}
    for i, length in enumerate(lognormal_lengths(rng, n_docs)):
        doc_id = f"{prefix}{i:04d}"
        words = gen.words(rng, length)
        text = gen.text(rng, words)
        (out_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        h.update(doc_id.encode() + b"\0" + text.encode())
        doc_words[doc_id] = words
    total = sum(len(w) for w in doc_words.values())
    return LegalCorpus(out_dir, n_docs, total, h.hexdigest()), doc_words


@dataclass
class LegalData:
    corpus: LegalCorpus
    queries: list[tuple[str, str]]
    qrels: dict[str, set[str]]
    queries_path: Path
    embeddings_path: Path
    digest: str


def legal_long_data(gen: TextGenerator, seed: int, root: Path,
                    n_docs: int, n_queries: int) -> LegalData:
    """Corpus directory, long queries, qrels and a 64-d embedding sidecar.

    Each query describes three source cases: half its words are drawn
    from their texts and half from the background distribution, and the
    three sources are its judged-relevant documents.
    """
    rng = np.random.default_rng([seed, 1])
    corpus, doc_words = write_legal_corpus(gen, rng, root / "corpus", n_docs)
    doc_ids = sorted(doc_words)

    lo, hi = QUERY_WORDS
    lengths = [lo + round((hi - lo) * (i + 0.5) / n_queries) for i in range(n_queries)]
    lengths = [lengths[i] for i in rng.permutation(n_queries)]
    queries: list[tuple[str, str]] = []
    qrels: dict[str, set[str]] = {}
    for q, length in enumerate(lengths):
        qid = f"q{q:03d}"
        sources = [doc_ids[i] for i in rng.choice(len(doc_ids), size=3, replace=False)]
        background = gen.words(rng, length)
        picks = rng.random(length)
        src_idx = rng.integers(0, 3, length)
        words = []
        for i in range(length):
            if picks[i] < 0.5:
                pool = doc_words[sources[src_idx[i]]]
                words.append(pool[int(rng.integers(0, len(pool)))])
            else:
                words.append(background[i])
        queries.append((qid, gen.text(rng, words).strip()))
        qrels[qid] = set(sources)

    queries_path = root / "queries.tsv"
    queries_path.write_text("".join(f"{qid}\t{text}\n" for qid, text in queries), encoding="utf-8")

    # 1-5 chunks per document, each count used equally often.
    chunk_counts = [1 + i % 5 for i in range(n_docs)]
    chunk_counts = [chunk_counts[i] for i in rng.permutation(n_docs)]
    lines = []
    for doc_id, chunks in zip(doc_ids, chunk_counts):
        for c in range(chunks):
            vec = " ".join(f"{x:.6f}" for x in rng.normal(size=EMBED_DIM))
            lines.append(f"{doc_id}\t{c}\t{vec}\n")
    for qid, _text in queries:
        vec = " ".join(f"{x:.6f}" for x in rng.normal(size=EMBED_DIM))
        lines.append(f"{qid}\t0\t{vec}\n")
    embeddings_path = root / "embeddings.tsv"
    embeddings_path.write_text("".join(lines), encoding="utf-8")

    h = hashlib.sha256(corpus.digest.encode())
    for path in (queries_path, embeddings_path):
        h.update(path.read_bytes())
    for qid in sorted(qrels):
        h.update(f"{qid} {' '.join(sorted(qrels[qid]))}\n".encode())
    return LegalData(corpus, queries, qrels, queries_path, embeddings_path, h.hexdigest())
