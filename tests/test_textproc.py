"""Normalization pipeline behaviour and invariants."""

import itertools
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

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

from conftest import traced_peak
from oracles import naive_fingerprint, naive_split_tokens, naive_tokenize

# a small pool, so words repeat within and across texts; it holds digits,
# '_', non-ASCII letters, stopwords, case variants and stemmable forms
WORD_POOL = [
    "Judges", "judges", "ruling", "RULING", "contracts", "caresses", "ponies",
    "the", "of", "The", "a", "x", "42", "1999", "s42", "snake_case", "_",
    "über", "Straße", "naïve", "ΔΙΚΗ", "δίκη", "café", "relational",
]
SEPARATORS = [" ", "  ", ", ", ".\n", "-", "!"]
# characters the split is easiest to get wrong on: NBSP and \x1c-\x1f are
# whitespace to str.split() and ZWSP is not; "_" is \w but no word
# character; U+0130 lowercases to "i" plus a combining dot; superscript two
# and roman numeral twelve are alphanumeric, and the first is a digit
TRICKY = " \t\n_-.,\u00a0\u200b\x1c\x1d\x1e\x1f\u0130\u00b2\u216baZ7"


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

    @given(
        texts=st.lists(
            st.lists(st.tuples(st.sampled_from(WORD_POOL) | st.text(max_size=8),
                               st.sampled_from(SEPARATORS)), max_size=30)
            .map(lambda pairs: "".join(word + sep for word, sep in pairs)),
            max_size=6,
        ),
        config=st.sampled_from([PRESET_NONE, PRESET_STANDARD, PRESET_FULL]),
    )
    # two words, one stem: "judg"
    @example(texts=["judge judges", "Judges"], config=PRESET_FULL)
    def test_equal_tokens_of_one_call_are_one_object(self, texts, config):
        streams = tokenize_corpus(texts, config)
        tokens = [t for stream in streams for t in stream]
        assert len({id(t) for t in tokens}) == len(set(tokens))
        assert streams == [naive_tokenize(t, config, ENGLISH_STOPWORDS) for t in texts]

    @pytest.mark.parametrize("config", [PRESET_NONE, PRESET_STANDARD, PRESET_FULL])
    def test_repeated_tokens_cost_a_list_slot(self, config):
        text = ("The tenant paid the rent in March; the landlord said the rent was late, "
                "and the court heard the tenant's appeal of the lease. The judge found the "
                "lease valid, the rent paid and the landlord's appeal without merit. ") * 2
        texts = [text] * 1000
        streams, peak = traced_peak(lambda: tokenize_corpus(texts, config))
        n_tokens = sum(map(len, streams))
        assert n_tokens >= 1000 * 40
        # a list slot is 8 B; a string of its own would be about 56 B more
        assert peak < 12 * n_tokens + 20_000

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


class TestAgainstOracle:
    """split_tokens and tokenize_corpus against the stage-by-stage oracle."""

    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(st.text(), st.text(TRICKY)), min_len=st.sampled_from([0, 1, 2, 3, 5]))
    def test_equals_stage_by_stage_reference(self, raw, min_len):
        assert split_tokens(raw) == naive_split_tokens(raw)
        texts = [raw, raw.upper(), raw[::-1]]
        stops = frozenset({"a", "az", "the", "\u0130", "i\u0307"})
        for flags in itertools.product((False, True), repeat=4):
            config = PipelineConfig(*flags, min_token_len=min_len)
            assert tokenize_corpus(texts, config, stops) == [
                naive_tokenize(t, config, stops) for t in texts
            ]

    def test_character_classes_over_every_code_point(self):
        # the split in textproc relies on these three identities
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"[^\W_]", chars) == list(filter(str.isalnum, chars))
        assert re.findall(r"\s", chars) == list(filter(str.isspace, chars))
        assert "".join(chars.split()) == "".join(itertools.filterfalse(str.isspace, chars))


class TestStopwords:
    def test_bundled_list_size(self):
        assert len(ENGLISH_STOPWORDS) == 179

    def test_bundled_list_is_lowercase(self):
        assert all(w == w.lower() for w in ENGLISH_STOPWORDS)

    def test_load_stopword_file(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment\nalpha\n\nbeta\n", encoding="utf-8")
        assert load_stopword_file(path) == {"alpha", "beta"}

    def test_stopword_file_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_bytes(b"\xef\xbb\xbfalpha\nbeta\n")
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

    @settings(deadline=None)
    @given(config=st.builds(PipelineConfig, st.booleans(), st.booleans(), st.booleans(),
                            st.booleans(), st.integers(0, 10)),
           stopwords=st.lists(st.text(max_size=6), max_size=5))
    def test_equals_the_hand_written_payload(self, config, stopwords):
        # indexes on disk hold these digests, so the field order is fixed
        assert pipeline_fingerprint(config, stopwords) == naive_fingerprint(config, stopwords)
