"""RAKE (Rapid Automatic Keyword Extraction).

Candidate phrases are maximal runs of tokens delimited by stopwords and
punctuation.  Each word scores deg(w)/freq(w), where deg counts
co-occurrences inside candidate phrases (a word co-occurs with itself),
and a phrase scores the sum of its word scores.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from typing import Iterable

# Group 1 is a word: a maximal alphanumeric run, as the tokenizer keeps.  An
# empty match (`_`, or a character neither alphanumeric nor whitespace) breaks
# the phrase; whitespace only separates words within a phrase.
_WORD_OR_BREAK_RE = re.compile(r"([^\W_]+)|[^\w\s]|_", re.UNICODE)


def candidate_phrases(raw: str, stopwords: Iterable[str]) -> list[tuple[str, ...]]:
    """Phrases as word tuples, lowercased, in order of appearance."""
    stopset = stopwords if isinstance(stopwords, (set, frozenset)) else frozenset(stopwords)
    phrases: list[tuple[str, ...]] = []
    current: list[str] = []
    for word in _WORD_OR_BREAK_RE.findall(raw.lower()):
        if word and word not in stopset:
            current.append(word)
        elif current:
            phrases.append(tuple(current))
            current = []
    if current:
        phrases.append(tuple(current))
    return phrases


def _rank_phrases(phrases: list[tuple[str, ...]]) -> list[tuple[tuple[str, ...], float]]:
    """Distinct candidate phrases as (words, score), by descending score, ties
    by phrase text: a space sorts before any word character, so tuples do."""
    freq: dict[str, int] = defaultdict(int)
    degree: dict[str, int] = defaultdict(int)
    for phrase in phrases:
        for word in phrase:
            freq[word] += 1
            degree[word] += len(phrase)

    word_score = {w: degree[w] / freq[w] for w in freq}
    scored = {phrase: sum(word_score[w] for w in phrase) for phrase in dict.fromkeys(phrases)}
    return sorted(scored.items(), key=lambda item: (-item[1], item[0]))


def rake_extract(raw: str, stopwords: Iterable[str], top_k: int) -> list[tuple[str, float]]:
    """Top scoring keyword phrases of a single text.

    Returns up to `top_k` distinct phrases as (phrase, score), sorted by
    descending score with lexicographic tie-breaking.  Text containing
    only stopwords and punctuation yields an empty list.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    ranked = _rank_phrases(candidate_phrases(raw, stopwords))[:top_k]
    return [(" ".join(phrase), score) for phrase, score in ranked]


def _keyword_count(phrases: list[tuple[str, ...]]) -> int:
    return max(10, math.ceil(len({w for phrase in phrases for w in phrase}) / 3))


def default_keyword_count(raw: str, stopwords: Iterable[str]) -> int:
    """How many keywords to keep for a text: max(10, ceil(distinct/3)).

    `distinct` is the number of distinct words over all candidate
    phrases, i.e. the vertex count of the co-occurrence graph.
    """
    return _keyword_count(candidate_phrases(raw, stopwords))


def keyword_words(raw: str, stopwords: Iterable[str]) -> set[str]:
    """Distinct words of a text's default keyword phrases.

    The phrases are those `rake_extract(raw, stopwords,
    default_keyword_count(raw, stopwords))` returns, found with a single
    pass over the candidate phrases.
    """
    phrases = candidate_phrases(raw, stopwords)
    kept = _rank_phrases(phrases)[: _keyword_count(phrases)]
    return {word for phrase, _score in kept for word in phrase}
