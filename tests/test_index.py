"""Index construction, invariants, and binary persistence."""

import builtins
import errno
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import priorcase.index as index_module
from priorcase.evaluation import write_run
from priorcase.index import (
    CorpusIndex,
    DuplicateDocIdError,
    IndexFormatError,
    IndexVersionError,
    build_index,
    load_index,
    persist_index,
    read_corpus_dir,
    read_queries_file,
)
from priorcase.textproc import PRESET_STANDARD, pipeline_fingerprint, tokenize_normalize

from conftest import make_random_corpus


@pytest.fixture
def two_doc_index() -> CorpusIndex:
    return build_index([("d1", ["a", "a", "b"]), ("d2", ["b", "c"])], "fp-test")


class TestBuild:
    def test_hand_counted_statistics(self, two_doc_index):
        idx = two_doc_index
        assert idx.n_docs == 2
        assert idx.df == {"a": 1, "b": 2, "c": 1}
        assert idx.postings["a"] == [("d1", 2)]
        assert idx.postings["b"] == [("d1", 1), ("d2", 1)]
        assert idx.doc_len == {"d1": 3, "d2": 2}
        assert idx.avg_len == 2.5

    def test_single_document(self):
        idx = build_index([("only", ["x"])], "fp")
        assert idx.n_docs == 1
        assert idx.avg_len == 1.0

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateDocIdError, match="d1"):
            build_index([("d1", ["a"]), ("d1", ["b"])], "fp")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="nothing to index"):
            build_index([], "fp")

    def test_all_empty_documents_rejected(self):
        with pytest.raises(ValueError, match="nothing to index"):
            build_index([("d1", []), ("d2", [])], "fp")

    def test_empty_document_contributes_zero_length(self):
        idx = build_index([("d1", []), ("d2", ["a", "b"])], "fp")
        assert idx.doc_len["d1"] == 0
        assert idx.avg_len == 1.0

    def test_whitespace_id_rejected(self):
        with pytest.raises(ValueError, match="invalid document id"):
            build_index([("d 1", ["a"])], "fp")

    def test_invariants_on_random_corpora(self):
        rng = random.Random(3)
        for _ in range(30):
            raw = make_random_corpus(rng)
            docs = {
                d: tokenize_normalize(t, PRESET_STANDARD) for d, t in raw.items()
            }
            if not any(docs.values()):
                continue
            idx = build_index(sorted(docs.items()), "fp")
            for term, plist in idx.postings.items():
                assert idx.df[term] == len({d for d, _tf in plist})
                assert 1 <= idx.df[term] <= idx.n_docs
                assert [d for d, _tf in plist] == sorted(d for d, _tf in plist)
            for doc_id, length in idx.doc_len.items():
                from_postings = sum(
                    tf for plist in idx.postings.values() for d, tf in plist if d == doc_id
                )
                assert from_postings == length
            assert idx.avg_len > 0
            total_tf = sum(tf for plist in idx.postings.values() for _d, tf in plist)
            assert total_tf == sum(idx.doc_len.values())

    def test_csr_layout(self):
        # input order differs from id order: positions follow the ids
        idx = build_index([("d2", ["b", "c"]), ("d1", ["a", "a", "b"])], "fp")
        assert idx.terms == ["a", "b", "c"]
        assert idx.doc_ids == ["d1", "d2"]
        assert idx.offsets.tolist() == [0, 1, 3, 4]
        assert idx.positions.tolist() == [0, 0, 1, 1]
        assert idx.tfs.tolist() == [2, 1, 1, 1]
        assert idx.lengths.tolist() == [3, 2]
        assert (idx.offsets.dtype, idx.positions.dtype, idx.tfs.dtype) == (
            np.int64, np.int32, np.int32)
        assert "b" in idx.postings and "zzz" not in idx.postings
        assert idx.postings.get("zzz") is None
        assert len(idx.postings) == 3

    def test_equality_compares_doc_ids(self):
        a = build_index([("d1", ["x"]), ("d2", ["y"])], "fp")
        b = build_index([("d1", ["x"]), ("e2", ["y"])], "fp")
        assert a.postings == {"x": [("d1", 1)], "y": [("d2", 1)]}
        assert a != b
        assert a == build_index([("d2", ["y"]), ("d1", ["x"])], "fp")


class TestPersistence:
    def test_round_trip(self, two_doc_index, tmp_path):
        path = tmp_path / "corpus.idx"
        persist_index(two_doc_index, path)
        assert load_index(path) == two_doc_index

    def test_rebuild_is_byte_identical(self, tmp_path):
        rng = random.Random(5)
        raw = make_random_corpus(rng)
        docs = sorted(
            (d, tokenize_normalize(t, PRESET_STANDARD)) for d, t in raw.items()
        )
        fp = pipeline_fingerprint(PRESET_STANDARD)
        a, b = tmp_path / "a.idx", tmp_path / "b.idx"
        persist_index(build_index(docs, fp), a)
        persist_index(build_index(docs, fp), b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file(self, two_doc_index, tmp_path):
        path = tmp_path / "corpus.idx"
        persist_index(two_doc_index, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_bit_flip_detected(self, two_doc_index, tmp_path):
        path = tmp_path / "corpus.idx"
        persist_index(two_doc_index, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_future_version_rejected(self, two_doc_index, tmp_path):
        import struct
        import zlib

        path = tmp_path / "corpus.idx"
        persist_index(two_doc_index, path)
        data = bytearray(path.read_bytes())[:-4]
        data[4:8] = struct.pack("<I", 99)
        data += struct.pack("<I", zlib.crc32(bytes(data)))
        path.write_bytes(bytes(data))
        with pytest.raises(IndexVersionError, match="99"):
            load_index(path)

    def test_not_an_index_file(self, tmp_path):
        path = tmp_path / "nope.idx"
        path.write_bytes(b"this is not an index at all")
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(path)

    def test_fingerprint_survives_round_trip(self, tmp_path):
        idx = build_index([("d", ["x"])], "fingerprint-xyz")
        path = tmp_path / "i.idx"
        persist_index(idx, path)
        assert load_index(path).fingerprint == "fingerprint-xyz"

    def test_unicode_terms_and_ids_round_trip(self, tmp_path):
        idx = build_index(
            [("državni-akt", ["наказание", "статья", "статья"]), ("²doc", ["κανών"])],
            "fp",
        )
        path = tmp_path / "u.idx"
        persist_index(idx, path)
        restored = load_index(path)
        assert restored == idx
        assert restored.postings["статья"] == [("državni-akt", 2)]


def _decode(data: bytes):
    """Split a version-1 index file into (fingerprint, docs, terms)."""
    pos = 8

    def u32():
        nonlocal pos
        pos += 4
        return struct.unpack_from("<I", data, pos - 4)[0]

    def string():
        nonlocal pos
        n = u32()
        pos += n
        return data[pos - n : pos].decode("utf-8")

    fingerprint = string()
    docs = [[string(), u32()] for _ in range(u32())]
    terms = []
    for _ in range(u32()):
        term = string()
        terms.append([term, [[u32(), u32()] for _ in range(u32())]])
    assert pos == len(data) - 4
    return fingerprint, docs, terms


def _encode(fingerprint, docs, terms) -> bytes:
    """The inverse of `_decode`, with a freshly computed checksum."""

    def string(text):
        raw = text.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    out = [b"PCIX", struct.pack("<I", 1), string(fingerprint), struct.pack("<I", len(docs))]
    out += [string(doc_id) + struct.pack("<I", length) for doc_id, length in docs]
    out.append(struct.pack("<I", len(terms)))
    for term, plist in terms:
        out.append(string(term) + struct.pack("<I", len(plist)))
        out += [struct.pack("<II", p, tf) for p, tf in plist]
    payload = b"".join(out)
    return payload + struct.pack("<I", zlib.crc32(payload))


def _swap_doc_ids(docs, terms):
    docs[0][0], docs[1][0] = docs[1][0], docs[0][0]


def _repeat_term(docs, terms):
    terms.insert(1, [terms[0][0], [[0, 1]]])


def _empty_term(docs, terms):
    terms.append(["zzz", []])


def _descending_positions(docs, terms):
    plist = next(plist for _term, plist in terms if len(plist) > 1)
    plist[0], plist[1] = plist[1], plist[0]


def _position_past_table(docs, terms):
    terms[-1][1][-1][0] = len(docs)


def _zero_tf(docs, terms):
    terms[0][1][0][1] = 0


def _length_mismatch(docs, terms):
    docs[0][1] += 1


def _no_documents(docs, terms):
    docs.clear()
    terms.clear()


def _all_documents_empty(docs, terms):
    for doc in docs:
        doc[1] = 0
    terms.clear()


class TestLoaderStructure:
    """Each structural check fires on a payload whose checksum is valid."""

    @pytest.fixture
    def decoded(self, tmp_path):
        idx = build_index(
            [("d1", ["a", "a", "b"]), ("d2", ["b", "c"]), ("d3", ["c", "a", "d"])], "fp"
        )
        path = tmp_path / "valid.idx"
        persist_index(idx, path)
        data = path.read_bytes()
        parts = _decode(data)
        assert _encode(*parts) == data
        return parts

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_swap_doc_ids, "document ids not strictly ascending"),
            (_repeat_term, "terms not strictly ascending"),
            (_empty_term, "term with no postings"),
            (_descending_positions, "positions not strictly ascending"),
            (_position_past_table, "past document table"),
            (_zero_tf, "term frequency"),
            (_length_mismatch, "do not sum to document lengths"),
            (_no_documents, "no documents"),
            (_all_documents_empty, "every document is empty"),
        ],
        ids=lambda value: value.__name__.strip("_") if callable(value) else "",
    )
    def test_check_fires(self, decoded, tmp_path, mutate, message):
        fingerprint, docs, terms = decoded
        mutate(docs, terms)
        path = tmp_path / "mutated.idx"
        path.write_bytes(_encode(fingerprint, docs, terms))
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_resealed_byte_mutations(self, tmp_path_factory, data):
        idx = build_index([("d1", ["a", "a", "b"]), ("d2", ["b", "c"])], "fp")
        path = tmp_path_factory.mktemp("mut") / "i.idx"
        persist_index(idx, path)
        payload = bytearray(path.read_bytes()[:-4])
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(8, len(payload) - 1))
            payload[at] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        try:
            loaded = load_index(path)
        except IndexFormatError:
            return
        assert loaded.terms == sorted(set(loaded.terms))
        assert loaded.doc_ids == sorted(set(loaded.doc_ids))
        for term, plist in loaded.postings.items():
            assert plist and all(tf >= 1 for _d, tf in plist)
            assert [d for d, _tf in plist] == sorted({d for d, _tf in plist})
        for doc_id, length in loaded.doc_len.items():
            assert length == sum(
                tf for plist in loaded.postings.values() for d, tf in plist if d == doc_id)
        assert loaded.avg_len > 0


class _FullDisk:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, real):
        self.real = real

    def write(self, data):
        self.real.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.real.close()


@pytest.mark.parametrize("writer", ["persist_index", "write_run"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    if writer == "persist_index":
        def write():
            persist_index(build_index([("d1", ["a", "b"]), ("d2", ["b"])], "fp"), path)
    else:
        def write():
            write_run({"q1": [("d1", 2.5), ("d2", 1.0)], "q2": [("d2", 0.5)]}, path, "tag")
    path.write_bytes(b"previous contents")
    monkeypatch.setattr(index_module, "open",
                        lambda *a, **k: _FullDisk(builtins.open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write()
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    monkeypatch.undo()
    write()
    assert path.read_bytes() != b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestIngestion:
    def test_read_corpus_dir(self, synthetic_dir):
        docs = read_corpus_dir(synthetic_dir / "corpus")
        assert [d for d, _ in docs] == [f"case0{i}" for i in range(1, 7)]
        assert "defendant" in docs[0][1]

    def test_read_corpus_dir_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_corpus_dir(tmp_path / "absent")

    def test_read_corpus_dir_rejects_duplicate_ids_before_reading(self, tmp_path):
        # no file is valid UTF-8: reading any of them would raise
        # UnicodeDecodeError instead
        for name in ("a.txt", "a.md", "b.txt"):
            (tmp_path / name).write_bytes(b"\xff\xfe")
        with pytest.raises(DuplicateDocIdError, match="'a'"):
            read_corpus_dir(tmp_path)

    def test_read_queries_file(self, synthetic_dir):
        queries = read_queries_file(synthetic_dir / "queries.tsv")
        assert queries[0] == ("q1", "contract breach damages")
        assert len(queries) == 5

    def test_read_queries_rejects_missing_tab(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1 no tab here\n", encoding="utf-8")
        with pytest.raises(ValueError, match="TAB"):
            read_queries_file(path)
