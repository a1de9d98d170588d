"""Embedding sidecar parsing and chunk similarity aggregation."""

import numpy as np
import pytest

from priorcase.embeddings import (
    EmbeddingStore,
    aggregate_chunk_similarity,
    load_embeddings,
)
from priorcase.index import build_index
from priorcase.rankers import Searcher


class TestAggregate:
    def test_identical_single_chunk(self):
        v = np.array([0.4, 1.2, -0.3])
        assert aggregate_chunk_similarity(v, [v.copy()]) == pytest.approx(1.0)

    def test_mean_of_chunk_similarities(self):
        q = np.array([1.0, 0.0])
        chunks = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert aggregate_chunk_similarity(q, chunks) == pytest.approx(0.5)

    def test_zero_query_vector(self):
        q = np.zeros(3)
        chunks = [np.array([1.0, 2.0, 3.0])]
        assert aggregate_chunk_similarity(q, chunks) == 0.0

    def test_empty_chunk_list(self):
        with pytest.raises(ValueError, match="no chunk"):
            aggregate_chunk_similarity(np.ones(3), [])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            aggregate_chunk_similarity(np.ones(3), [np.ones(4)])


class TestDenseCosine:
    def test_orthogonal(self):
        assert aggregate_chunk_similarity(np.array([1.0, 0.0]), [np.array([0.0, 2.0])]) == 0.0

    def test_antiparallel(self):
        score = aggregate_chunk_similarity(np.array([1.0, 1.0]), [np.array([-1.0, -1.0])])
        assert score == pytest.approx(-1.0)

    def test_nonnegative_vectors_stay_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = rng.integers(2, 8)
            q = rng.uniform(0.0, 1.0, size=dim)
            chunks = [rng.uniform(0.0, 1.0, size=dim) for _ in range(rng.integers(1, 4))]
            score = aggregate_chunk_similarity(q, chunks)
            assert -1e-12 <= score <= 1.0 + 1e-12


class TestSidecar:
    def test_load_bundled_sidecar(self, synthetic_dir):
        store = load_embeddings(synthetic_dir / "embeddings.tsv")
        assert store.dim == 4
        assert len(store.chunks("case01")) == 2
        assert len(store.chunks("q1")) == 1
        assert "case06" in store

    def test_query_vector_is_chunk_zero(self, synthetic_dir):
        store = load_embeddings(synthetic_dir / "embeddings.tsv")
        np.testing.assert_allclose(store.query_vector("q1"), [1.0, 0.0, 0.0, 0.1])

    def test_sidecar_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_bytes(b"\xef\xbb\xbfa\t0\t1 2\nb\t0\t3 4\n")
        store = load_embeddings(path)
        assert "a" in store
        np.testing.assert_array_equal(store.query_vector("a"), [1.0, 2.0])

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t0\t1 2 3\nb\t0\t1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="dimension"):
            load_embeddings(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t0\t1 2 3\nb\t0\tx y z\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            load_embeddings(path)

    @pytest.mark.parametrize("text, message", [
        ("a\t0\n", ":1: expected 'id<TAB>chunk_index<TAB>values'"),
        ("a\t0\t\n", ":1: empty vector"),
        ("a\t0\t1 nan\n", ":1: vector contains a non-finite value"),
        ("a\t0\t1 2\nb\t0\t1e200 1e200\n",
         ":2: vector norm overflows to inf; scale the vector down$"),
        ("a\t0\t1 2\nb\t0\t1.3e154 1.3e154\n", ":2: vector norm overflows to inf"),
        ("", "no embeddings found"),
        ("\n\n", "no embeddings found"),
    ], ids=["two-columns", "empty-vector", "nan", "norm-1e200", "norm-1.3e154", "no-lines",
            "blank-lines"])
    # an overflowing norm is the error, not a numpy warning
    @pytest.mark.filterwarnings("error")
    def test_malformed_sidecar_rejected(self, tmp_path, text, message):
        path = tmp_path / "emb.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_embeddings(path)

    def test_largest_finite_norm_loads_and_embed_scores_stay_finite(self, tmp_path):
        # the largest norm is just under sqrt(max float), about 1.34e154
        half = float(np.nextafter(np.sqrt(np.finfo(np.float64).max), 0.0) / np.sqrt(2.0))
        path = tmp_path / "emb.tsv"
        path.write_text(f"q\t0\t{half!r} {half!r}\na\t0\t{half!r} {half!r}\n"
                        f"b\t0\t{-half!r} {half!r}\nb\t1\t1 0\n", encoding="utf-8")
        store = load_embeddings(path)
        assert 1.34e154 < np.linalg.norm(store.query_vector("q")) < np.inf
        index = build_index([("a", ["x"]), ("b", ["y"])], "fp")
        with np.errstate(all="raise"):
            ranking = Searcher(index, embeddings=store).score("embed", [], query_id="q")
        assert [doc for doc, _score in ranking] == ["a", "b"]
        assert all(np.isfinite(score) for _doc, score in ranking)

    def test_non_contiguous_chunks_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t0\t1 2\na\t2\t3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="contiguous"):
            load_embeddings(path)

    def test_duplicate_chunk_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("a\t0\t1 2\na\t0\t3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="chunk index"):
            load_embeddings(path)

    def test_missing_id_raises(self, synthetic_dir):
        store = load_embeddings(synthetic_dir / "embeddings.tsv")
        with pytest.raises(KeyError, match="case77"):
            store.chunks("case77")

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EmbeddingStore({})

    def test_store_mixing_dimensions_rejected(self):
        with pytest.raises(ValueError, match=r"mixes dimensions: \[2, 3\]"):
            EmbeddingStore({"a": [np.ones(2)], "b": [np.ones(2), np.ones(3)]})
