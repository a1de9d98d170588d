"""RAKE keyword extraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from priorcase.rake import candidate_phrases, default_keyword_count, keyword_words, rake_extract

from conftest import make_random_corpus
from oracles import naive_rake_keywords, naive_rake_phrases


class TestScoring:
    def test_hand_computed_scores(self):
        # deg/freq: minimal=2/1, set=2/1, criteria=1/1
        out = rake_extract("minimal set of criteria", {"of"}, top_k=5)
        assert out == [("minimal set", 4.0), ("criteria", 1.0)]

    def test_only_stopwords(self):
        assert rake_extract("of the of", {"of", "the"}, top_k=3) == []

    def test_single_word(self):
        assert rake_extract("evidence", {"of"}, top_k=1) == [("evidence", 1.0)]

    def test_repeated_word_degree(self):
        # "deep learning" twice and "learning" alone:
        #   freq(deep)=2 deg(deep)=4; freq(learning)=3 deg(learning)=5
        out = dict(rake_extract("deep learning and deep learning and learning", {"and"}, 5))
        assert out["deep learning"] == pytest.approx(2.0 + 5.0 / 3.0)
        assert out["learning"] == pytest.approx(5.0 / 3.0)

    def test_top_k_truncation_and_tie_break(self):
        out = rake_extract("beta and alpha and gamma", {"and"}, top_k=2)
        # all score 1.0; lexicographic order breaks the tie
        assert out == [("alpha", 1.0), ("beta", 1.0)]

    def test_top_k_must_be_positive(self):
        with pytest.raises(ValueError):
            rake_extract("anything", set(), top_k=0)


class TestPhraseSplitting:
    def test_punctuation_breaks_phrases(self):
        phrases = candidate_phrases("red, green", set())
        assert phrases == [("red",), ("green",)]

    def test_stopwords_break_phrases(self):
        phrases = candidate_phrases("heavy damages of punitive kind", {"of"})
        assert phrases == [("heavy", "damages"), ("punitive", "kind")]

    def test_phrases_are_lowercased(self):
        assert candidate_phrases("Heavy Damages", set()) == [("heavy", "damages")]


class TestDefaultKeywordCount:
    def test_floor_of_ten(self):
        assert default_keyword_count("alpha beta", set()) == 10

    def test_third_of_distinct_words(self):
        words = " ".join(f"w{i}" for i in range(60))
        assert default_keyword_count(words, set()) == 20


class TestProperties:
    def test_scores_positive_and_phrases_stopword_free(self):
        rng = random.Random(7)
        stops = {"the", "of", "and", "is", "in", "to", "was", "by"}
        for _ in range(50):
            raw = " ".join(
                rng.choice(["lease", "court", "tax", "the", "of", "and", "x,"])
                for _ in range(rng.randint(1, 40))
            )
            for phrase, score in rake_extract(raw, stops, top_k=10):
                assert score > 0.0
                assert not set(phrase.split()) & stops

    def test_random_corpus_phrases(self):
        rng = random.Random(11)
        stops = {"the", "of", "and", "is", "in", "to", "was", "by"}
        for _ in range(20):
            for raw in make_random_corpus(rng).values():
                for phrase in candidate_phrases(raw, stops):
                    assert phrase  # no empty phrases
                    assert all(w not in stops for w in phrase)


# Texts of words, each followed by up to two separator characters, so
# words also merge with their neighbours.  "\u0130".lower() is "i" plus a
# combining dot, which is neither alphanumeric nor whitespace and so
# breaks the phrase.
_WORDS = ["the", "of", "and", "lease", "Court", "tax", "a1", "7", "42",
          "\u00e9", "\u00df", "\u00b2", "\u216b", "\u0130"]
_SEPARATORS = (" _\t\n\u00a0\u200b\u2014\u201c\u201d"
               + "!\"#$%&'()*+,-./:;<=>?@[\\]^`{|}~")
_STOPS = frozenset({"the", "of", "and"})
_TEXTS = st.lists(
    st.tuples(st.sampled_from(_WORDS), st.text(_SEPARATORS, max_size=2)), max_size=30
).map(lambda pairs: "".join(w + sep for w, sep in pairs))


class TestAgainstOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_TEXTS, st.text()))
    def test_equals_two_level_split_reference(self, raw):
        want = naive_rake_keywords(raw, _STOPS)
        assert candidate_phrases(raw, _STOPS) == naive_rake_phrases(raw, _STOPS)
        assert rake_extract(raw, _STOPS, default_keyword_count(raw, _STOPS)) == want
        assert keyword_words(raw, _STOPS) == {w for phrase, _s in want for w in phrase.split(" ")}
