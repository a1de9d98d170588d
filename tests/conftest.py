"""Shared fixtures: bundled data paths and randomized corpus generators."""

from __future__ import annotations

import gc
import random
import string
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from priorcase.embeddings import EmbeddingStore
from priorcase.textproc import PRESET_FULL, PRESET_NONE, PRESET_STANDARD

REPO_ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC_DIR = REPO_ROOT / "data" / "synthetic"

# word pool for randomized corpora; coexists with real stopwords so the
# normalization stages all do something
CONTENT_WORDS = [
    "appeal", "breach", "contract", "court", "damages", "defendant",
    "evidence", "judge", "jury", "lease", "murder", "plaintiff",
    "property", "ruling", "statute", "tax", "tenant", "testimony",
    "tort", "trial", "valuation", "verdict", "warrant", "witness",
    "zoning",
]
STOP_SAMPLE = ["the", "of", "and", "is", "in", "to", "was", "by"]
DIGIT_NOISE = ["7", "42", "1999"]  # small pool keeps vocab bounded under PRESET_NONE
SEPARATORS = [" ", " ", " ", ", ", ". ", "; ", " - "]


@pytest.fixture
def synthetic_dir() -> Path:
    return SYNTHETIC_DIR


def make_random_corpus(
    rng: random.Random,
    max_docs: int = 20,
    max_len: int = 50,
    vocab_limit: int = 25,
) -> dict[str, str]:
    """Raw texts with stopwords, punctuation and digit noise mixed in."""
    n_docs = rng.randint(2, max_docs)
    words = rng.sample(CONTENT_WORDS, rng.randint(4, vocab_limit))
    docs: dict[str, str] = {}
    for i in range(n_docs):
        length = rng.randint(1, max_len)
        pieces = []
        for j in range(length):
            roll = rng.random()
            if roll < 0.12:
                pieces.append(rng.choice(STOP_SAMPLE))
            elif roll < 0.17:
                pieces.append(rng.choice(DIGIT_NOISE))
            else:
                pieces.append(rng.choice(words))
        # make sure the corpus survives noise/stopword removal
        if i == 0:
            pieces.append(rng.choice(words))
        text = "".join(p + rng.choice(SEPARATORS) for p in pieces)
        docs[f"d{i:02d}"] = text
    return docs


def make_postings_corpus(n_docs: int = 300, doc_len: int = 2000) -> list[tuple[str, list[str]]]:
    """Seeded pre-tokenized corpus drawn from a Zipf-like 1,500-word vocabulary.

    At the defaults each document has about 750 distinct terms, so the
    index holds about 225,000 postings.
    """
    np_rng = np.random.default_rng(17)
    vocab = [f"w{i:04d}" for i in range(1500)]
    weights = 1.0 / (np.arange(1500) + 10.0)
    weights /= weights.sum()
    return [(f"doc{i:04d}", [vocab[j] for j in np_rng.choice(1500, size=doc_len, p=weights)])
            for i in range(n_docs)]


def traced_peak(fn):
    """`fn()` and the peak bytes tracemalloc saw allocated while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_random_query(rng: random.Random, raw_docs: dict[str, str]) -> str:
    """Query text mixing in-corpus words, stopwords, strangers, duplicates."""
    pool = [w for text in raw_docs.values() for w in text.lower().split() if w.isalpha()]
    pieces = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.55 and pool:
            pieces.append(rng.choice(pool))
        elif roll < 0.7:
            pieces.append(rng.choice(STOP_SAMPLE))
        elif roll < 0.85:
            pieces.append("".join(rng.choice(string.ascii_lowercase) for _ in range(7)))
        else:
            pieces.append(rng.choice(CONTENT_WORDS))
    if pieces and rng.random() < 0.4:
        pieces.append(pieces[0])  # duplicate term
    return " ".join(pieces)


def make_random_store(
    rng: random.Random, doc_ids: list[str], query_ids: list[str], dim: int | None = None
) -> EmbeddingStore:
    dim = dim or rng.randint(3, 6)
    np_rng = np.random.default_rng(rng.randrange(2**32))
    vectors: dict[str, list[np.ndarray]] = {}
    for doc_id in doc_ids:
        chunks = rng.randint(1, 3)
        vectors[doc_id] = [np_rng.normal(size=dim) for _ in range(chunks)]
    for qid in query_ids:
        vectors[qid] = [np_rng.normal(size=dim)]
    return EmbeddingStore(vectors)


def random_config(rng: random.Random):
    return rng.choice([PRESET_STANDARD, PRESET_FULL, PRESET_NONE])
