"""RAKE (Rapid Automatic Keyword Extraction).

Candidate phrases are maximal runs of tokens delimited by stopwords and
punctuation.  Each word scores deg(w)/freq(w), where deg counts
co-occurrences inside candidate phrases (a word co-occurs with itself),
and a phrase scores the sum of its word scores.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from itertools import chain
from typing import Iterable

from .textproc import _findall_words

# Group 1 is a word: a maximal alphanumeric run, as the tokenizer keeps.  An
# empty match (`_`, or a character neither alphanumeric nor whitespace) breaks
# the phrase; whitespace only separates words within a phrase.
_WORD_OR_BREAK_RE = re.compile(r"([^\W_]+)|[^\w\s]|_", re.UNICODE)


def candidate_phrases(raw: str, stopwords: Iterable[str]) -> list[tuple[str, ...]]:
    """Phrases as word tuples, lowercased, in order of appearance."""
    stopset = stopwords if isinstance(stopwords, (set, frozenset)) else frozenset(stopwords)
    phrases: list[tuple[str, ...]] = []
    current: list[str] = []
    for word in _findall_words(_WORD_OR_BREAK_RE, raw.lower()):
        if word and word not in stopset:
            current.append(word)
        elif current:
            phrases.append(tuple(current))
            current = []
    if current:
        phrases.append(tuple(current))
    return phrases


def _scores(phrases: list[tuple[str, ...]]) -> tuple[dict[str, float], dict[tuple[str, ...], float]]:
    """Each word's score deg/freq, and each distinct phrase's score in order of
    first appearance: the sum of its word scores, added in phrase order."""
    freq = Counter(chain.from_iterable(phrases))
    degree: dict[str, int] = defaultdict(int)
    for phrase in phrases:
        for word in phrase:
            degree[word] += len(phrase)
    word_score = {w: degree[w] / freq[w] for w in freq}
    score = word_score.__getitem__
    return word_score, {phrase: sum(map(score, phrase)) for phrase in dict.fromkeys(phrases)}


def rake_extract(raw: str, stopwords: Iterable[str], top_k: int) -> list[tuple[str, float]]:
    """Top scoring keyword phrases of a single text.

    Returns up to `top_k` distinct phrases as (phrase, score), sorted by
    descending score with lexicographic tie-breaking.  Text containing
    only stopwords and punctuation yields an empty list.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    _word_score, scored = _scores(candidate_phrases(raw, stopwords))
    # a space sorts before any word character: tuples sort as phrase texts
    ranked = sorted(scored.items(), key=lambda item: (-item[1], item[0]))[:top_k]
    return [(" ".join(phrase), score) for phrase, score in ranked]


def _keyword_count(distinct: int) -> int:
    return max(10, math.ceil(distinct / 3))


def default_keyword_count(raw: str, stopwords: Iterable[str]) -> int:
    """How many keywords to keep for a text: max(10, ceil(distinct/3)).

    `distinct` is the number of distinct words over all candidate
    phrases, i.e. the vertex count of the co-occurrence graph.
    """
    return _keyword_count(len(set(chain.from_iterable(candidate_phrases(raw, stopwords)))))


def keyword_words(raw: str, stopwords: Iterable[str]) -> set[str]:
    """Distinct words of a text's default keyword phrases.

    The phrases are those `rake_extract(raw, stopwords,
    default_keyword_count(raw, stopwords))` returns, found without a full
    sort: those above the K-th largest score, then ties at it by text.
    """
    word_score, scored = _scores(candidate_phrases(raw, stopwords))
    keep = _keyword_count(len(word_score))
    if len(scored) <= keep:
        return set(word_score)
    cut = sorted(scored.values(), reverse=True)[keep - 1]
    kept = [phrase for phrase, score in scored.items() if score > cut]
    kept += sorted(phrase for phrase, score in scored.items() if score == cut)[: keep - len(kept)]
    return set(chain.from_iterable(kept))
