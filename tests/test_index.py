"""Index construction, invariants, and binary persistence."""

import builtins
import errno
import os
import random
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

from conftest import make_postings_corpus, make_random_corpus, traced_peak
from oracles import naive_postings


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

    def test_id_without_utf8_form_rejected(self):
        # how Python names a file whose name has the undecodable byte 0xff
        with pytest.raises(ValueError, match="invalid document id"):
            build_index([("bad\udcffname", ["a"])], "fp")

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

    def test_wide_sort_key_gives_the_same_index(self, monkeypatch):
        docs = make_random_corpus(random.Random(11))
        tokenized = sorted((d, tokenize_normalize(t, PRESET_STANDARD)) for d, t in docs.items())
        narrow = build_index(tokenized, "fp")
        # a limit below n_terms * n_docs forces the int64 sort key
        monkeypatch.setattr(index_module, "_INT32_MAX", 0)
        wide = build_index(tokenized, "fp")
        assert wide == narrow
        assert (wide.positions.dtype, wide.tfs.dtype) == (np.int32, np.int32)

    def test_tf_above_16_bits_matches_oracle(self):
        _assert_matches_naive_postings([("big", ["x"] * 70_000 + ["y"]), ("small", ["y", "z"])])

    def test_equality_compares_doc_ids(self):
        a = build_index([("d1", ["x"]), ("d2", ["y"])], "fp")
        b = build_index([("d1", ["x"]), ("e2", ["y"])], "fp")
        assert a.postings == {"x": [("d1", 1)], "y": [("d2", 1)]}
        assert a != b
        assert a == build_index([("d2", ["y"]), ("d1", ["x"])], "fp")

    def test_equality_with_a_non_index_is_not_implemented(self):
        a = build_index([("d1", ["x"])], "fp")
        assert a.__eq__(3) is NotImplemented
        assert (a == 3) is False


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

    @pytest.mark.parametrize("damage, message", [
        (lambda data: data[:-7], None),
        (lambda data: data[:4] + bytes(4), "truncated"),
        # re-sealed, so only the structure check can see the extra bytes
        (lambda data: data[:-4] + bytes(3) + struct.pack("<I", zlib.crc32(data[:-4] + bytes(3))),
         "trailing bytes"),
    ], ids=["cut", "magic-and-4-bytes", "resealed-trailing-bytes"])
    def test_truncated_file(self, two_doc_index, tmp_path, damage, message):
        path = tmp_path / "corpus.idx"
        persist_index(two_doc_index, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(IndexFormatError, match=message):
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


def _assert_matches_naive_postings(docs):
    terms, offsets, positions, tfs, lengths = naive_postings(docs)
    n_cells = len(terms) * len(docs)
    # the packed sort runs when n_terms * n_docs fits the limit, the int64 argsort otherwise
    for limit in (n_cells, n_cells - 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index_module, "_INT32_MAX", limit)
            index = build_index(docs, "fp")
        assert index.terms == terms
        assert index.offsets.tolist() == offsets
        assert index.positions.tolist() == positions
        assert index.tfs.tolist() == tfs
        assert index.lengths.tolist() == lengths


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdefg") | st.text(max_size=2), max_size=15),
                min_size=1, max_size=9).filter(any), st.randoms(use_true_random=False))
def test_build_matches_naive_postings(token_lists, rng):
    docs = [(f"d{i}", tokens) for i, tokens in enumerate(token_lists)]
    rng.shuffle(docs)
    _assert_matches_naive_postings(docs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdefg") | st.text(max_size=2), max_size=15),
                min_size=1, max_size=9).filter(any), st.randoms(use_true_random=False))
@example([[], ["b", "a", "b"], ["a", "c", "b"]], random.Random(0))
def test_build_ignores_token_and_document_order(token_lists, rng):
    # term ids come from first appearance, so permuting tokens reorders them before the rank remap
    docs = [(f"d{i}", tokens) for i, tokens in enumerate(token_lists)]
    permuted = [(doc_id, rng.sample(tokens, len(tokens))) for doc_id, tokens in docs]
    rng.shuffle(permuted)
    assert build_index(permuted, "fp") == build_index(docs, "fp")


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

    def test_length_check_reads_the_last_partial_slice(self, decoded, tmp_path, monkeypatch):
        fingerprint, docs, terms = decoded
        n_postings = sum(len(plist) for _term, plist in terms)
        monkeypatch.setattr(index_module, "_SLICE", 3)
        assert n_postings % 3 != 0
        path = tmp_path / "sliced.idx"
        path.write_bytes(_encode(fingerprint, docs, terms))
        assert load_index(path).n_docs == len(docs)
        terms[-1][1][-1][1] += 1  # the last posting's tf
        path.write_bytes(_encode(fingerprint, docs, terms))
        with pytest.raises(IndexFormatError, match="do not sum to document lengths"):
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


_TOKENS = st.sampled_from(["a", "b", "c", "é", "日本"]) | st.text(min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(_TOKENS, max_size=12), min_size=1, max_size=8).filter(any))
def test_postings_layout_and_repersist(tmp_path_factory, token_lists):
    built = build_index([(f"d{i}", tokens) for i, tokens in enumerate(token_lists)], "fp")
    path = tmp_path_factory.mktemp("layout") / "index.idx"
    persist_index(built, path)
    loaded = load_index(path)
    for index in (built, loaded):
        for array in (index.positions, index.tfs):
            # a strided view into the file's (position, tf) pairs would slow every gather
            assert array.dtype == np.int32
            assert array.flags.c_contiguous and array.flags.owndata
            assert not array.flags.writeable
    again = path.with_name("again.idx")
    persist_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()


class TestPeakMemory:
    """Traced peak of each whole-index stage on a seeded index of about
    220,000 postings, against the 8 bytes per posting of its postings
    (a u32 position and a u32 tf in the file, int32 pairs in memory).

    Each stage holds about one posting-sized buffer beyond its output;
    int64 temporaries, a byte copy of the postings or a copy of the file
    bytes push it past these bounds.
    """

    @pytest.fixture(scope="class")
    def docs(self):
        return make_postings_corpus()

    @pytest.fixture(scope="class")
    def index(self, docs):
        index = build_index(docs, "fp")
        assert len(index.positions) >= 200_000
        return index

    def test_build_index(self, docs, index):
        built, peak = traced_peak(lambda: build_index(docs, "fp"))
        assert built == index
        assert peak <= 2.5 * 8 * len(index.positions)  # measured 2.2x

    def test_persist_index(self, index, tmp_path):
        _none, peak = traced_peak(lambda: persist_index(index, tmp_path / "index.idx"))
        # the pairs plus file bytes moved out about 1 MB at a time; measured P + 1.2 MB
        assert peak <= 8 * len(index.positions) + 2_500_000

    def test_load_index(self, index, tmp_path):
        path = tmp_path / "index.idx"
        persist_index(index, path)
        loaded, peak = traced_peak(lambda: load_index(path))
        assert loaded == index
        assert peak <= 2.6 * path.stat().st_size  # measured 2.3x


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

    def test_read_corpus_dir_empty(self, tmp_path):
        with pytest.raises(ValueError, match=f"contains no documents: {re.escape(str(tmp_path))}$"):
            read_corpus_dir(tmp_path)

    def test_read_corpus_dir_rejects_duplicate_ids_before_reading(self, tmp_path):
        # no file is valid UTF-8: reading any of them would raise
        # UnicodeDecodeError instead
        for name in ("a.txt", "a.md", "b.txt"):
            (tmp_path / name).write_bytes(b"\xff\xfe")
        with pytest.raises(DuplicateDocIdError, match="'a'"):
            read_corpus_dir(tmp_path)

    def test_read_corpus_dir_rejects_an_id_without_utf8_form_before_reading(self, tmp_path):
        for name in (b"a.txt", b"bad\xffname.txt"):
            (tmp_path / os.fsdecode(name)).write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match="invalid document id: 'bad\\\\udcffname'"):
            read_corpus_dir(tmp_path)

    def test_read_queries_file(self, synthetic_dir):
        queries = read_queries_file(synthetic_dir / "queries.tsv")
        assert queries[0] == ("q1", "contract breach damages")
        assert len(queries) == 5

    def test_read_queries_file_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_bytes(b"\xef\xbb\xbfq1\tcontract breach\nq2\tlease\n")
        assert read_queries_file(path) == [("q1", "contract breach"), ("q2", "lease")]

    @pytest.mark.parametrize("text, message", [
        ("q1\tlease\n\tnotice\n", ":2: invalid query id ''"),
        ("\n\n", "no queries found"),
        ("q1\tlease\nq2\trent\nq1\tnotice\n", ": duplicate query id 'q1'"),
    ], ids=["invalid-id", "no-queries", "repeated-id"])
    def test_read_queries_rejects_bad_files(self, tmp_path, text, message):
        path = tmp_path / "queries.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_queries_file(path)

    def test_read_queries_rejects_missing_tab(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1 no tab here\n", encoding="utf-8")
        with pytest.raises(ValueError, match="TAB"):
            read_queries_file(path)
