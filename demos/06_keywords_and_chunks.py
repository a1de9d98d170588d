"""RAKE keywords, token chunking, and precomputed embeddings
-------------------------------------------------------------

The keyword-restricted scorer and the embedding scorer both consume
side inputs: RAKE keyword phrases extracted from raw text, and dense
chunk vectors from a sidecar file.
"""

from pathlib import Path

from priorcase import (
    ENGLISH_STOPWORDS,
    aggregate_chunk_similarity,
    load_embeddings,
    rake_extract,
    read_corpus_dir,
)
from priorcase.rake import default_keyword_count

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic"

print("RAKE keywords per document (top 3):")
for doc_id, text in read_corpus_dir(DATA / "corpus"):
    keywords = rake_extract(text, ENGLISH_STOPWORDS, top_k=3)
    printable = ", ".join(f"{phrase!r} ({score:.1f})" for phrase, score in keywords)
    print(f"  {doc_id}: {printable}")

text = (DATA / "corpus" / "case01.txt").read_text(encoding="utf-8")
print("\nhow many keywords would be kept by default:",
      default_keyword_count(text, ENGLISH_STOPWORDS))

# Long documents are split into fixed-size token chunks before any
# embedding model sees them (docs/scoring.md); the vectors are computed
# outside priorcase, so the split is a plain slice here.
tokens = [f"tok{i}" for i in range(1030)]
chunks = [tokens[i : i + 512] for i in range(0, len(tokens), 512)]
print("\n1030 tokens chunked at 512 ->", [len(c) for c in chunks])

# The sidecar holds one vector per chunk; a document's similarity to a
# query is the mean cosine over its chunks.
store = load_embeddings(DATA / "embeddings.tsv")
print(f"\nembedding store: dim={store.dim}")
q1 = store.query_vector("q1")
for doc_id in ("case01", "case02", "case03"):
    sim = aggregate_chunk_similarity(q1, store.chunks(doc_id))
    print(f"  mean cosine(q1, {doc_id}) over {len(store.chunks(doc_id))} chunk(s) = {sim:.4f}")
