"""Porter stemmer versus the published reference vocabulary."""

import hashlib
import random
import string

from hypothesis import given, settings, strategies as st

from priorcase.porter import _pattern, porter_stem
from priorcase.textproc import split_tokens

# (word, stem) pairs from the reference vocabulary of the algorithm;
# together they exercise every step
REFERENCE_SAMPLE = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("digitizer", "digit"),
    ("operator", "oper"),
    ("hopefulness", "hope"),
    ("triplicate", "triplic"),
    ("probate", "probat"),
]

EXTRA_PAIRS = [
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologou", "homolog"),
    ("bowdlerize", "bowdler"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # longest-match and guard cases
    ("element", "element"),
    ("opinion", "opinion"),
    ("goodness", "good"),
    ("generalization", "gener"),
    ("oscillate", "oscil"),
]


def test_reference_sample():
    assert len(REFERENCE_SAMPLE) == 30
    for word, expected in REFERENCE_SAMPLE:
        assert porter_stem(word) == expected, word


def test_additional_pairs():
    for word, expected in EXTRA_PAIRS:
        assert porter_stem(word) == expected, word


def test_short_words_left_alone():
    for word in ("a", "is", "be", "on", "to"):
        assert porter_stem(word) == word


def test_common_inflections():
    assert porter_stem("caresses") == "caress"
    assert porter_stem("ponies") == "poni"
    assert porter_stem("cat") == "cat"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=25))
def test_never_lengthens(word):
    assert len(porter_stem(word)) <= len(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=25))
def test_output_is_lowercase_alpha(word):
    stem = porter_stem(word)
    assert stem and stem.isalpha() and stem == stem.lower()


# every suffix the rules test for (steps 2, 3 and 4, then the step 1 and
# step 5 conditions), so the golden list reaches every branch
RULE_SUFFIXES = (
    "ational", "ization", "iveness", "fulness", "ousness", "tional",
    "biliti", "ation", "alism", "aliti", "iviti", "ousli", "entli", "enci",
    "anci", "izer", "alli", "ator", "logi", "bli", "eli",
    "icate", "ative", "alize", "iciti", "ical", "ness", "ful",
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion",
    "ism", "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou",
    "sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
    "e", "ll",
)
ENDINGS = ("", "s", "ed", "ing", "e", "y")
# extra "y" so runs of y, whose class alternates, are common
STEM_LETTERS = string.ascii_lowercase + "yyyy"
# sha256 of the "word\tstem\n" lines of golden_words(), recorded from
# the stemmer that was checked against the reference vocabulary
GOLDEN_SHA256 = "8a0b787f319eb78d02ae5904a8571cf0481d433530f4c3950bf7fa16c4b5a04b"


def golden_words() -> list[str]:
    """49,200 words: a random 0-7 letter stem, a rule suffix, an ending."""
    rng = random.Random(1980)
    words = []
    for _ in range(820):
        for suffix in RULE_SUFFIXES:
            stem = "".join(rng.choices(STEM_LETTERS, k=rng.randint(0, 7)))
            words.append(stem + suffix + rng.choice(ENDINGS))
    return words


def test_golden_stems_are_unchanged():
    lines = "".join(f"{word}\t{porter_stem(word)}\n" for word in golden_words())
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == GOLDEN_SHA256


# any token the pipeline can hand the stemmer: lowercasing may be off,
# and tokens keep digits and non-ASCII letters; a third end in a rule suffix
_LETTERS = "aeiouyYbcdlnrstzAEIZ019\u00e9\u00df"
PIPELINE_TOKENS = st.one_of(
    st.from_regex(r"[^\W_]+", fullmatch=True),
    st.text(alphabet=_LETTERS, min_size=1, max_size=16),
    st.tuples(
        st.text(alphabet=_LETTERS, max_size=4), st.sampled_from(RULE_SUFFIXES)
    ).map("".join),
)


@settings(max_examples=500)
@given(PIPELINE_TOKENS)
def test_any_pipeline_token_is_stemmed_safely(token):
    assert split_tokens(token) == [token]
    stem = porter_stem(token)
    assert len(stem) <= len(token)
    if len(token) <= 2:
        assert stem == token


# sha256 of the "token\tstem\n" lines of pipeline_words(), recorded from
# the stemmer that produced GOLDEN_SHA256, before the pattern got its
# ASCII fast path
PIPELINE_GOLDEN_SHA256 = "c5429049648afed5a849b4456ab3afddcbe3c926a41c23d450260ce3e346b964"


def pipeline_words() -> list[str]:
    """20,000 tokens: 1-16 `_LETTERS`, or a 0-4 letter prefix, a rule suffix, an ending."""
    rng = random.Random(1980)
    words = []
    for _ in range(10_000):
        words.append("".join(rng.choices(_LETTERS, k=rng.randint(1, 16))))
        prefix = "".join(rng.choices(_LETTERS, k=rng.randint(0, 4)))
        words.append(prefix + rng.choice(RULE_SUFFIXES) + rng.choice(ENDINGS))
    return words


def test_pipeline_golden_stems_are_unchanged():
    lines = "".join(f"{word}\t{porter_stem(word)}\n" for word in pipeline_words())
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == PIPELINE_GOLDEN_SHA256


def _pattern_by_definition(word: str) -> str:
    """One class per letter: a, e, i, o, u, and a lowercase "y" after a consonant, are "v"."""
    classes = []
    for ch in word:
        after_consonant = bool(classes) and classes[-1] == "c"
        classes.append("v" if ch in "aeiou" or (ch == "y" and after_consonant) else "c")
    return "".join(classes)


@given(st.text(alphabet=_LETTERS + "yy", max_size=16), st.text(alphabet=_LETTERS + "yy", max_size=8))
def test_pattern_follows_the_letter_classes(word, tail):
    # uppercase "Y", digits and non-ASCII letters are consonants
    assert _pattern("syzygY9\u00e9a") == "cvcvccccv"
    assert _pattern(word) == _pattern_by_definition(word)
    # extending a prefix's pattern gives the whole word's pattern
    assert _pattern(tail, _pattern(word)) == _pattern_by_definition(word + tail)
