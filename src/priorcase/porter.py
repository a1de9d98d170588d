"""Porter suffix-stripping stemmer.

Implements the classic five-step algorithm, including the three small
departures of the author's reference implementation (words of length one
or two are left alone; step 2 uses "bli" -> "ble" rather than
"abli" -> "able"; step 2 gains "logi" -> "log"), so output matches the
reference vocabulary published alongside that implementation.

Every condition of the algorithm is stated over the form [C](VC)^m[V],
so the stemmer computes the word's consonant/vowel pattern once: a
string with one "c" or "v" per letter.  A letter's class depends only on
the letters before it ("y" is a vowel only after a consonant), so the
pattern of a prefix is a prefix of the pattern, and each condition on a
candidate stem is a slice of it:

- m, the measure, is the number of "vc";
- *v* (the stem holds a vowel) is a "v";
- *d (double consonant) is two equal last letters, the last a "c";
- *o is an ending "cvc" whose last letter is not w, x or y.

A step that writes new letters extends the pattern over just those.

Two shortcuts keep the work per word small.  Every rule suffix has at
least two letters, so a step keys its rules by their last two letters,
longest first: the rules under the word's own last two letters are the
only ones it can end in, and the first of them that it ends in is the
longest match.  A pattern over ASCII letters without a "y" needs no
look-back, so it is one `str.translate`; any other letters take the
per-letter loop.

Any string is accepted: every character but a, e, i, o, u and a "y"
after a consonant counts as a consonant, even uppercase, digits, "é".
"""

from __future__ import annotations

_VOWELS = "aeiou"
_CLASSES = str.maketrans({chr(i): "v" if chr(i) in _VOWELS else "c" for i in range(128)})


class _Rules(dict):
    """Last two letters -> the (suffix, replacement) rules ending in them, longest first."""

    def __init__(self, rules: dict[str, str]) -> None:
        super().__init__()
        for suffix in sorted(rules, key=len, reverse=True):
            self[suffix[-2:]] = self.get(suffix[-2:], ()) + ((suffix, rules[suffix]),)


_STEP2 = _Rules({
    "ational": "ate",
    "ization": "ize",
    "iveness": "ive",
    "fulness": "ful",
    "ousness": "ous",
    "tional": "tion",
    "biliti": "ble",
    "ation": "ate",
    "alism": "al",
    "aliti": "al",
    "iviti": "ive",
    "ousli": "ous",
    "entli": "ent",
    "enci": "ence",
    "anci": "ance",
    "izer": "ize",
    "alli": "al",
    "ator": "ate",
    "logi": "log",
    "bli": "ble",
    "eli": "e",
})

_STEP3 = _Rules({
    "icate": "ic",
    "ative": "",
    "alize": "al",
    "iciti": "ic",
    "ical": "ic",
    "ness": "",
    "ful": "",
})

_STEP4 = _Rules({
    "ement": "",
    "ance": "",
    "ence": "",
    "able": "",
    "ible": "",
    "ment": "",
    "ant": "",
    "ent": "",
    "ion": "",
    "ism": "",
    "ate": "",
    "iti": "",
    "ous": "",
    "ive": "",
    "ize": "",
    "al": "",
    "er": "",
    "ic": "",
    "ou": "",
})


def _pattern(letters: str, p: str = "") -> str:
    """The pattern `p` of a word's prefix, extended over the `letters` after it."""
    if letters.isascii() and "y" not in letters:
        return p + letters.translate(_CLASSES)
    for ch in letters:
        p += "v" if ch in _VOWELS or (ch == "y" and p[-1:] == "c") else "c"
    return p


def _replace(word: str, p: str, n: int, repl: str) -> tuple[str, str]:
    """Replace the last `n` letters of `word` by `repl`; return the word and its pattern."""
    k = len(word) - n
    return word[:k] + repl, _pattern(repl, p[:k])


def _ends_cvc(word: str, p: str) -> bool:
    return p.endswith("cvc") and word[-1] not in "wxy"


def _replace_suffix(word: str, p: str, rules: _Rules, min_measure: int) -> tuple[str, str]:
    """Apply the longest suffix in `rules` if its stem has measure >= `min_measure`."""
    for suffix, repl in rules.get(word[-2:], ()):
        if not word.endswith(suffix):
            continue
        n = len(suffix)
        if p[:-n].count("vc") < min_measure:
            return word, p
        # step 4 removes -ion only after s or t
        if suffix == "ion" and not word[:-n].endswith(("s", "t")):
            return word, p
        return _replace(word, p, n, repl)
    return word, p


def _step1b(word: str, p: str) -> tuple[str, str]:
    if word.endswith("eed"):
        return (word[:-1], p[:-1]) if p[:-3].count("vc") > 0 else (word, p)
    n = 2 if word.endswith("ed") else 3 if word.endswith("ing") else 0
    if not n or "v" not in p[:-n]:
        return word, p
    word, p = word[:-n], p[:-n]
    if word.endswith(("at", "bl", "iz")):
        return _replace(word, p, 0, "e")
    if len(word) > 1 and word[-1] == word[-2] and p[-1] == "c" and word[-1] not in "lsz":
        return word[:-1], p[:-1]
    if p.count("vc") == 1 and _ends_cvc(word, p):
        return _replace(word, p, 0, "e")
    return word, p


def porter_stem(word: str) -> str:
    """Return the Porter stem of a lowercase word."""
    if len(word) <= 2:
        return word
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    word, p = _step1b(word, _pattern(word))
    if word.endswith("y") and "v" in p[:-1]:
        word, p = _replace(word, p, 1, "i")
    word, p = _replace_suffix(word, p, _STEP2, 1)
    word, p = _replace_suffix(word, p, _STEP3, 1)
    word, p = _replace_suffix(word, p, _STEP4, 2)
    if word.endswith("e"):
        m = p[:-1].count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], p[:-1])):
            word, p = word[:-1], p[:-1]
    if word.endswith("ll") and p.count("vc") > 1:
        word = word[:-1]
    return word
