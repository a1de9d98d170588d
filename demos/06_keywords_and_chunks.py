"""RAKE keywords, token chunking, and precomputed embeddings
-------------------------------------------------------------

The keyword-restricted scorer and the embedding scorer both consume
side inputs: RAKE keyword phrases extracted from raw text, and dense
chunk vectors from a sidecar file.  This demo shows both the way the
scorers read them: `keyword_words` (what `rake_tfidf` keeps of a text)
and `Searcher.score("embed", ...)`.
"""

from pathlib import Path

from priorcase import (
    ENGLISH_STOPWORDS,
    PRESET_STANDARD,
    Searcher,
    build_index,
    load_embeddings,
    pipeline_fingerprint,
    read_corpus_dir,
    tokenize_normalize,
)
from priorcase.rake import keyword_words

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic"

# Each text keeps its top max(10, ceil(distinct words / 3)) RAKE phrases;
# rake_tfidf scores only the words of those phrases.
raw_docs = dict(read_corpus_dir(DATA / "corpus"))
print("RAKE keyword words per document:")
for doc_id, text in raw_docs.items():
    print(f"  {doc_id}: {', '.join(sorted(keyword_words(text, ENGLISH_STOPWORDS)))}")

# Long documents are split into fixed-size token chunks before any
# embedding model sees them (docs/scoring.md); the vectors are computed
# outside priorcase, so the split is a plain slice here.
tokens = [f"tok{i}" for i in range(1030)]
chunks = [tokens[i : i + 512] for i in range(0, len(tokens), 512)]
print("\n1030 tokens chunked at 512 ->", [len(c) for c in chunks])

# The sidecar holds one vector per chunk; `embed` scores a document by
# the mean cosine between the query's vector and its chunks.
store = load_embeddings(DATA / "embeddings.tsv")
index = build_index(
    sorted((d, tokenize_normalize(t, PRESET_STANDARD)) for d, t in raw_docs.items()),
    pipeline_fingerprint(PRESET_STANDARD),
)
searcher = Searcher(index, config=PRESET_STANDARD, embeddings=store)
print(f"\nembedding store: dim={store.dim}; embed ranking for q1:")
# embed reads only the query id's vector, not its tokens
for doc_id, score in searcher.score("embed", [], query_id="q1"):
    print(f"  {doc_id}: mean cosine {score:.4f} over {len(store.chunks(doc_id))} chunk(s)")
