"""Text normalization pipeline: split, lowercase, de-noise, stop, stem.

Stages always apply in that order.  The same configuration must be used
for corpus documents and for queries; `pipeline_fingerprint` captures the
configuration plus the stopword list so an index can detect mismatches.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
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


#: The three standard permutations used throughout the tooling.
PRESET_NONE = PipelineConfig(
    lowercase=False, remove_noise=False, remove_stopwords=False, stem=False
)
PRESET_STANDARD = PipelineConfig(
    lowercase=True, remove_noise=True, remove_stopwords=True, stem=False
)
PRESET_FULL = PipelineConfig(
    lowercase=True, remove_noise=True, remove_stopwords=True, stem=True
)

PRESETS: dict[str, PipelineConfig] = {
    "none": PRESET_NONE,
    "standard": PRESET_STANDARD,
    "full": PRESET_FULL,
}


def split_tokens(raw: str) -> TokenStream:
    """Split text into maximal alphanumeric runs, preserving order."""
    return _TOKEN_RE.findall(raw)


def tokenize_corpus(
    texts: Iterable[str],
    config: PipelineConfig = PRESET_STANDARD,
    stopwords: Iterable[str] = ENGLISH_STOPWORDS,
) -> list[TokenStream]:
    """Run the full pipeline over every text; one token stream per text.

    Porter stemming is a pure function of the word, so each distinct
    token is stemmed once per call through a memo that lives only for
    that call: its memory is bounded by the vocabulary of `texts`, and
    nothing is cached between calls.
    """
    stopset = frozenset()
    if config.remove_stopwords:
        stopset = stopwords if isinstance(stopwords, (set, frozenset)) else frozenset(stopwords)
        if not stopset:
            raise ValueError("stopword removal enabled but the stopword list is empty")
    stems: dict[str, str] = {}
    streams = []
    for raw in texts:
        tokens = split_tokens(raw)
        if config.lowercase:
            tokens = [t.lower() for t in tokens]
        if config.remove_noise:
            tokens = [
                t for t in tokens
                if len(t) >= config.min_token_len and not t.isdigit()
            ]
        if config.remove_stopwords:
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
    """Hash of the pipeline configuration and stopword list.

    Indexes record this at build time; searching with a different
    fingerprint is rejected, because queries must be normalized exactly
    like the indexed documents.
    """
    payload = json.dumps(
        {
            "lowercase": config.lowercase,
            "remove_noise": config.remove_noise,
            "remove_stopwords": config.remove_stopwords,
            "stem": config.stem,
            "min_token_len": config.min_token_len,
            "stopwords": sorted(stopwords),
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
