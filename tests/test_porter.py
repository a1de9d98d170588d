"""Porter stemmer versus the published reference vocabulary."""

import hashlib
import random
import string

from hypothesis import given, settings, strategies as st

from priorcase.porter import porter_stem
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
