"""Bundled English stopword list and loader for user-supplied lists.

The default list is the common 179-word English list shipped by a widely
used NLP toolkit, pinned verbatim here so that results do not drift with
toolkit versions.  Entries containing apostrophes (e.g. "you're") never
match the alphanumeric tokenizer output directly; their split pieces
("you", "re", ...) are covered by separate entries.
"""

from __future__ import annotations

from pathlib import Path

from .index import read_text

ENGLISH_STOPWORDS: frozenset[str] = frozenset((
    "i", "me", "my", "myself", "we", "our", "ours", "ourselves",
    "you", "you're", "you've", "you'll", "you'd", "your", "yours",
    "yourself", "yourselves", "he", "him", "his", "himself", "she",
    "she's", "her", "hers", "herself", "it", "it's", "its", "itself",
    "they", "them", "their", "theirs", "themselves", "what", "which",
    "who", "whom", "this", "that", "that'll", "these", "those", "am",
    "is", "are", "was", "were", "be", "been", "being", "have", "has",
    "had", "having", "do", "does", "did", "doing", "a", "an", "the",
    "and", "but", "if", "or", "because", "as", "until", "while", "of",
    "at", "by", "for", "with", "about", "against", "between", "into",
    "through", "during", "before", "after", "above", "below", "to",
    "from", "up", "down", "in", "out", "on", "off", "over", "under",
    "again", "further", "then", "once", "here", "there", "when",
    "where", "why", "how", "all", "any", "both", "each", "few",
    "more", "most", "other", "some", "such", "no", "nor", "not",
    "only", "own", "same", "so", "than", "too", "very", "s", "t",
    "can", "will", "just", "don", "don't", "should", "should've",
    "now", "d", "ll", "m", "o", "re", "ve", "y", "ain", "aren",
    "aren't", "couldn", "couldn't", "didn", "didn't", "doesn",
    "doesn't", "hadn", "hadn't", "hasn", "hasn't", "haven", "haven't",
    "isn", "isn't", "ma", "mightn", "mightn't", "mustn", "mustn't",
    "needn", "needn't", "shan", "shan't", "shouldn", "shouldn't",
    "wasn", "wasn't", "weren", "weren't", "won", "won't", "wouldn",
    "wouldn't",
))


def load_stopword_file(path: str | Path) -> frozenset[str]:
    """Read a stopword list: one lowercase word per line, UTF-8.

    Blank lines and lines beginning with '#' are ignored.
    """
    words = set()
    for line in read_text(path).split("\n"):
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        words.add(word)
    return frozenset(words)
