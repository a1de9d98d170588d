"""Precomputed dense vectors for chunked documents and queries.

Vectors are produced elsewhere (any embedding model) and consumed from a
sidecar file with lines

    id<TAB>chunk_index<TAB>v1 v2 ... vD

All lines must share the dimension D.  A document may have any number of
chunks (indices contiguous from 0); a query uses chunk 0 only.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .index import read_text


class EmbeddingStore:
    """Chunk vectors keyed by document/query id."""

    def __init__(self, vectors: dict[str, list[np.ndarray]]):
        if not vectors:
            raise ValueError("embedding store is empty")
        dims = {v.shape[0] for chunks in vectors.values() for v in chunks}
        if len(dims) != 1:
            raise ValueError(f"embedding store mixes dimensions: {sorted(dims)}")
        self.dim = dims.pop()
        self.vectors = vectors

    def __contains__(self, key: str) -> bool:
        return key in self.vectors

    def chunks(self, key: str) -> list[np.ndarray]:
        try:
            return self.vectors[key]
        except KeyError:
            raise KeyError(f"no embedding for id {key!r}") from None

    def query_vector(self, key: str) -> np.ndarray:
        return self.chunks(key)[0]


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Parse an embedding sidecar file into a store; a norm that overflows is an error."""
    rows: dict[str, dict[int, np.ndarray]] = {}
    dim: int | None = None
    with np.errstate(over="ignore"):
        for lineno, line in enumerate(read_text(path).split("\n"), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'id<TAB>chunk_index<TAB>values'")
            key, chunk_s, values_s = parts
            try:
                chunk = int(chunk_s)
                vec = np.array([float(x) for x in values_s.split()], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed chunk index or vector") from None
            if vec.size == 0:
                raise ValueError(f"{path}:{lineno}: empty vector")
            if not np.isfinite(np.linalg.norm(vec)):  # the norm `embed` divides by
                cause = ("contains a non-finite value" if not np.isfinite(vec).all()
                         else "norm overflows to inf; scale the vector down")
                raise ValueError(f"{path}:{lineno}: vector {cause}")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(
                    f"{path}:{lineno}: dimension {vec.size} differs from {dim}"
                )
            if chunk < 0 or chunk in rows.setdefault(key, {}):
                raise ValueError(f"{path}:{lineno}: bad chunk index {chunk} for id {key!r}")
            rows[key][chunk] = vec
    if not rows:
        raise ValueError(f"no embeddings found in {path}")

    vectors: dict[str, list[np.ndarray]] = {}
    for key, chunks in rows.items():
        if sorted(chunks) != list(range(len(chunks))):
            raise ValueError(f"{path}: chunk indices for id {key!r} are not contiguous from 0")
        vectors[key] = [chunks[i] for i in range(len(chunks))]
    return EmbeddingStore(vectors)


def aggregate_chunk_similarity(query_vec: np.ndarray, chunks: list[np.ndarray]) -> float:
    """Mean cosine similarity between a query vector and document chunks.

    A chunk's cosine is 0.0 when either norm is 0.
    """
    if not chunks:
        raise ValueError("document has no chunk vectors")
    nq = float(np.linalg.norm(query_vec))
    cosines = []
    for c in chunks:
        if c.shape != query_vec.shape:
            raise ValueError(f"dimension mismatch: {query_vec.shape[0]} vs {c.shape[0]}")
        nc = float(np.linalg.norm(c))
        cosines.append(0.0 if nq == 0.0 or nc == 0.0 else float(np.dot(query_vec, c) / (nq * nc)))
    return sum(cosines) / len(chunks)
