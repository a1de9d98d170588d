"""Normalization pipeline behaviour and invariants."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

import priorcase.textproc as textproc
from priorcase.stopwords import ENGLISH_STOPWORDS, load_stopword_file
from priorcase.textproc import (
    PRESET_FULL,
    PRESET_NONE,
    PRESET_STANDARD,
    PipelineConfig,
    pipeline_fingerprint,
    split_tokens,
    tokenize_corpus,
    tokenize_normalize,
)

# a small pool, so words repeat within and across texts; it holds digits,
# '_', non-ASCII letters, stopwords, case variants and stemmable forms
WORD_POOL = [
    "Judges", "judges", "ruling", "RULING", "contracts", "caresses", "ponies",
    "the", "of", "The", "a", "x", "42", "1999", "s42", "snake_case", "_",
    "über", "Straße", "naïve", "ΔΙΚΗ", "δίκη", "café", "relational",
]
SEPARATORS = [" ", "  ", ", ", ".\n", "-", "!"]


class TestPipelineStages:
    def test_standard_pipeline(self):
        out = tokenize_normalize("The Judge ruled on 42 cases!", PRESET_STANDARD)
        assert out == ["judge", "ruled", "cases"]

    def test_empty_input(self):
        for preset in (PRESET_NONE, PRESET_STANDARD, PRESET_FULL):
            assert tokenize_normalize("", preset) == []

    def test_none_preset_only_splits(self):
        assert tokenize_normalize("A b", PRESET_NONE) == ["A", "b"]

    def test_split_boundaries(self):
        assert split_tokens("state-of-the-art, v2.0!") == ["state", "of", "the", "art", "v2", "0"]

    def test_full_preset_stems(self):
        out = tokenize_normalize("The judges were ruling", PRESET_FULL)
        assert out == ["judg", "rule"]

    def test_mixed_alphanumerics_survive_noise_removal(self):
        out = tokenize_normalize("section 42 s42 1999", PRESET_STANDARD)
        assert out == ["section", "s42"]

    def test_min_token_len(self):
        config = PipelineConfig(remove_stopwords=False, min_token_len=4)
        assert tokenize_normalize("a bb ccc dddd eeeee", config) == ["dddd", "eeeee"]
        config0 = PipelineConfig(remove_stopwords=False, min_token_len=0)
        assert tokenize_normalize("a bb", config0) == ["a", "bb"]

    def test_stopword_match_is_case_sensitive_without_lowercasing(self):
        config = PipelineConfig(lowercase=False, remove_noise=False)
        assert tokenize_normalize("The the", config, {"the"}) == ["The"]

    def test_stemming_runs_after_stopword_removal(self):
        # "doing" must be removed as a stopword, not reduced to "do" first
        out = tokenize_normalize("doing damages", PRESET_FULL)
        assert out == ["damag"]

    def test_empty_stopword_list_rejected(self):
        with pytest.raises(ValueError):
            tokenize_normalize("anything", PRESET_STANDARD, frozenset())

    def test_negative_min_token_len_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(min_token_len=-1)


class TestPresets:
    def test_preset_flags(self):
        assert PRESET_NONE == PipelineConfig(False, False, False, False, 2)
        assert PRESET_STANDARD == PipelineConfig(True, True, True, False, 2)
        assert PRESET_FULL == PipelineConfig(True, True, True, True, 2)

    def test_default_min_token_len_is_two(self):
        assert PipelineConfig().min_token_len == 2


class TestProperties:
    @given(st.text(max_size=200))
    def test_idempotent_without_stemming(self, raw):
        for config in (PRESET_NONE, PRESET_STANDARD):
            once = tokenize_normalize(raw, config)
            again = tokenize_normalize(" ".join(once), config)
            assert again == once

    @given(st.text(max_size=200))
    def test_removal_flags_never_add_tokens(self, raw):
        base = PipelineConfig(lowercase=True, remove_noise=False, remove_stopwords=False)
        n_base = len(tokenize_normalize(raw, base))
        with_noise = PipelineConfig(lowercase=True, remove_noise=True, remove_stopwords=False)
        with_stops = PipelineConfig(lowercase=True, remove_noise=False, remove_stopwords=True)
        assert len(tokenize_normalize(raw, with_noise)) <= n_base
        assert len(tokenize_normalize(raw, with_stops)) <= n_base

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=30))
    def test_stemming_never_lengthens(self, word):
        stemmed = tokenize_normalize(word, PipelineConfig(remove_noise=False, remove_stopwords=False, stem=True))
        flat = tokenize_normalize(word, PipelineConfig(remove_noise=False, remove_stopwords=False, stem=False))
        assert sum(map(len, stemmed)) <= sum(map(len, flat))


class TestCorpusBatch:
    @given(
        texts=st.lists(
            st.lists(st.tuples(st.sampled_from(WORD_POOL) | st.text(max_size=8),
                               st.sampled_from(SEPARATORS)), max_size=30)
            .map(lambda pairs: "".join(word + sep for word, sep in pairs)),
            max_size=6,
        ),
        # every combination of stages, so the none/standard/full presets too
        config=st.builds(PipelineConfig, st.booleans(), st.booleans(), st.booleans(),
                         st.booleans(), st.sampled_from([0, 3])),
        stopwords=st.frozensets(st.sampled_from([w.lower() for w in WORD_POOL]), min_size=1),
    )
    def test_batch_equals_one_text_at_a_time(self, texts, config, stopwords):
        assert tokenize_corpus(texts, config, stopwords) == [
            tokenize_normalize(t, config, stopwords) for t in texts
        ]

    def test_each_distinct_token_is_stemmed_once_per_call(self, monkeypatch):
        texts = ["judges ruling judges on contracts", "ruling contracts", "", "judges ponies"]
        distinct = {t for tokens in tokenize_corpus(texts, PRESET_STANDARD) for t in tokens}
        calls = Counter()
        stem = textproc.porter_stem

        def counting_stem(word):
            calls[word] += 1
            return stem(word)

        monkeypatch.setattr(textproc, "porter_stem", counting_stem)
        first = tokenize_corpus(texts, PRESET_FULL)
        assert calls == Counter(distinct)
        # no memo survives the call: a second call stems everything again
        assert tokenize_corpus(texts, PRESET_FULL) == first
        assert calls == Counter({word: 2 for word in distinct})
        calls.clear()
        tokenize_corpus(texts, PRESET_STANDARD)
        assert not calls


class TestStopwords:
    def test_bundled_list_size(self):
        assert len(ENGLISH_STOPWORDS) == 179

    def test_bundled_list_is_lowercase(self):
        assert all(w == w.lower() for w in ENGLISH_STOPWORDS)

    def test_load_stopword_file(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment\nalpha\n\nbeta\n", encoding="utf-8")
        assert load_stopword_file(path) == {"alpha", "beta"}


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        a = pipeline_fingerprint(PRESET_STANDARD, ENGLISH_STOPWORDS)
        b = pipeline_fingerprint(PRESET_STANDARD, set(ENGLISH_STOPWORDS))
        assert a == b

    def test_config_changes_fingerprint(self):
        a = pipeline_fingerprint(PRESET_STANDARD)
        b = pipeline_fingerprint(PRESET_FULL)
        assert a != b

    def test_stopword_changes_fingerprint(self):
        a = pipeline_fingerprint(PRESET_STANDARD, {"the"})
        b = pipeline_fingerprint(PRESET_STANDARD, {"the", "of"})
        assert a != b
