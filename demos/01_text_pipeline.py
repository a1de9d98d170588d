"""Normalization pipeline walkthrough
--------------------------------------

Shows how the three presets transform the same sentence, how the Porter
stemmer behaves on its own, and how the pipeline fingerprint changes
whenever the configuration or stopword list changes.
"""

from priorcase import (
    PRESET_FULL,
    PRESET_NONE,
    PRESET_STANDARD,
    PipelineConfig,
    pipeline_fingerprint,
    porter_stem,
    tokenize_corpus,
    tokenize_normalize,
)

sentence = "The Judges were ruling on 42 breached contracts in 1999!"

print("input:", sentence)
for name, preset in (("none", PRESET_NONE), ("standard", PRESET_STANDARD), ("full", PRESET_FULL)):
    print(f"{name:>9}: {tokenize_normalize(sentence, preset)}")

# The batch call runs the same pipeline over many texts, stemming each
# distinct word once per call; the tokens are the same.
print("batch == per text:", tokenize_corpus([sentence, sentence], PRESET_FULL)
      == [tokenize_normalize(sentence, PRESET_FULL)] * 2)

# The difference between standard and full is the stemmer, which folds
# inflected forms together:
print()
for word in ("ruling", "judges", "breached", "contracts", "caresses", "ponies"):
    print(f"porter_stem({word!r}) = {porter_stem(word)!r}")

# A custom configuration: keep stopwords but drop short tokens aggressively.
custom = PipelineConfig(remove_stopwords=False, min_token_len=4)
print()
print("custom  :", tokenize_normalize(sentence, custom))

# Fingerprints make pipeline mismatches detectable: an index built under
# one configuration refuses queries normalized under another.
print()
print("fingerprint standard:", pipeline_fingerprint(PRESET_STANDARD)[:16], "...")
print("fingerprint full    :", pipeline_fingerprint(PRESET_FULL)[:16], "...")
print("fingerprint w/ tiny stopword list:",
      pipeline_fingerprint(PRESET_STANDARD, {"the", "of"})[:16], "...")
