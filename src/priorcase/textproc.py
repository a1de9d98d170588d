"""Text normalization pipeline: split, lowercase, de-noise, stop, stem.

Stages always apply in that order.  The same configuration must be used
for corpus documents and for queries; `pipeline_fingerprint` captures the
configuration plus the stopword list so an index can detect mismatches.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass
from typing import Iterable

from .porter import porter_stem
from .stopwords import ENGLISH_STOPWORDS

# Maximal runs of alphanumeric characters; everything else separates tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

TokenStream = list[str]


@dataclass(frozen=True)
class PipelineConfig:
    """Switches for the normalization stages.

    `remove_noise` drops all-digit tokens and tokens shorter than
    `min_token_len`.  Stemming runs after stopword removal so the stopword
    list does not need to contain stems.
    """

    lowercase: bool = True
    remove_noise: bool = True
    remove_stopwords: bool = True
    stem: bool = False
    min_token_len: int = 2

    def __post_init__(self) -> None:
        if self.min_token_len < 0:
            raise ValueError("min_token_len must be >= 0")


#: The three standard permutations used throughout the tooling; the
#: defaults are the standard one.
PRESET_NONE = PipelineConfig(lowercase=False, remove_noise=False, remove_stopwords=False)
PRESET_STANDARD = PipelineConfig()
PRESET_FULL = PipelineConfig(stem=True)

PRESETS: dict[str, PipelineConfig] = {
    "none": PRESET_NONE,
    "standard": PRESET_STANDARD,
    "full": PRESET_FULL,
}


def _findall_words(pattern: re.Pattern, raw: str) -> list[str]:
    """`pattern.findall(raw)` for a pattern that matches no whitespace and
    finds an alphanumeric chunk whole: `[^\\W_]` is `str.isalnum` and `\\s`
    is what `str.split()` splits on, so only other chunks need the regex."""
    words: list[str] = []
    for chunk in raw.split():
        if chunk.isalnum():
            words.append(chunk)
        else:
            words += pattern.findall(chunk)
    return words


def split_tokens(raw: str) -> TokenStream:
    """Words of a text, in order: maximal runs of `str.isalnum()` characters,
    found by one whitespace split and the regex on non-alphanumeric chunks."""
    return _findall_words(_TOKEN_RE, raw)


def tokenize_corpus(
    texts: Iterable[str],
    config: PipelineConfig = PRESET_STANDARD,
    stopwords: Iterable[str] = ENGLISH_STOPWORDS,
) -> list[TokenStream]:
    """Run the full pipeline over every text; one token stream per text.

    Each text's tokens are lowercased, de-noised and stopped in one pass
    after the split: lowercasing U+0130 before it would add a split point.

    Porter stemming is a pure function of the word, so each distinct
    token is stemmed once per call through a memo that lives only for
    that call: its memory is bounded by the vocabulary of `texts`, and
    nothing is cached between calls.
    """
    stopset = frozenset()
    if config.remove_stopwords:
        stopset = frozenset(stopwords)
        if not stopset:
            raise ValueError("stopword removal enabled but the stopword list is empty")
    stems: dict[str, str] = {}
    streams = []
    min_len = config.min_token_len
    for raw in texts:
        tokens = split_tokens(raw)
        if config.lowercase:
            tokens = map(str.lower, tokens)
        if config.remove_noise:
            tokens = [t for t in tokens if len(t) >= min_len and not t.isdigit() and t not in stopset]
        else:
            tokens = [t for t in tokens if t not in stopset]
        if config.stem:
            stems.update((t, porter_stem(t)) for t in set(tokens).difference(stems))
            tokens = [stems[t] for t in tokens]
        streams.append(tokens)
    return streams


def tokenize_normalize(
    raw: str,
    config: PipelineConfig = PRESET_STANDARD,
    stopwords: Iterable[str] = ENGLISH_STOPWORDS,
) -> TokenStream:
    """Run the full pipeline over raw text and return unigram tokens."""
    return tokenize_corpus([raw], config, stopwords)[0]


def pipeline_fingerprint(
    config: PipelineConfig,
    stopwords: Iterable[str] = ENGLISH_STOPWORDS,
) -> str:
    """Hash of every `PipelineConfig` field, in declaration order, and the
    sorted stopword list.

    Indexes record this at build time; searching with a different
    fingerprint is rejected, because queries must be normalized exactly
    like the indexed documents.
    """
    payload = json.dumps(
        {**asdict(config), "stopwords": sorted(stopwords)},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
