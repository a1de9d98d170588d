"""Inverted index over normalized token streams, with binary persistence.

The index is immutable once built.  It records everything the scoring
functions need: document count, per-term postings with term frequencies,
document frequencies, document lengths, the mean document length, and a
fingerprint of the normalization pipeline used at build time.

In memory the postings are CSR arrays (compressed sparse rows):

    terms      ascending; term i's postings are offsets[i]:offsets[i + 1]
    offsets    int64, n_terms + 1 entries, offsets[0] == 0
    positions  int32 document positions, strictly ascending within a term
    tfs        int32 term frequencies, all >= 1
    doc_ids    ascending; position p is document doc_ids[p]
    lengths    int64 token count per position

Every array is contiguous, read-only and owns its data.  Peak working
memory, traced with P = 8 bytes per posting: build 2.2 P, persist P plus
about 2 MB, load 2.3 x the file size, `Searcher` 0.3 P; see
docs/file_formats.md for what each stage holds.

Persisted layout (little-endian, version 1):

    magic   4 bytes  b"PCIX"
    version u32
    fingerprint      u32 length + UTF-8 bytes
    n_docs  u32
    docs    n_docs * (u32 id length + UTF-8 id bytes + u32 doc length),
            sorted ascending by id
    n_terms u32
    terms   n_terms * (u32 term length + UTF-8 term bytes + u32 postings
            count + postings), terms sorted ascending; each posting is
            (u32 doc table position, u32 term frequency), ascending
    crc32   u32 over everything before it

Both tables are written in their in-memory order, so the same documents
and pipeline always produce byte-identical files.
"""

from __future__ import annotations

import io
import os
import secrets
import struct
import zlib
from collections import defaultdict
from collections.abc import Mapping
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

MAGIC = b"PCIX"
FORMAT_VERSION = 1
_INT32_MAX = np.iinfo(np.int32).max
_SLICE = 1 << 14  # postings per slice of the load length check and the `Searcher` norms


class IndexFormatError(ValueError):
    """The file is not a readable index (wrong magic, truncated, corrupt)."""


class IndexVersionError(IndexFormatError):
    """The file uses an index format version this code does not support."""


class DuplicateDocIdError(ValueError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id: {doc_id!r}")
        self.doc_id = doc_id


class PipelineMismatchError(ValueError):
    """Query-side pipeline fingerprint differs from the index's."""


class _PostingsView(Mapping):
    """Read-only `term -> [(doc_id, tf), ...]` view of the CSR arrays.

    Each lookup builds its list; the scorers read the arrays directly.
    """

    def __init__(self, index: CorpusIndex):
        self._index = index

    def __getitem__(self, term: str) -> list[tuple[str, int]]:
        idx = self._index
        tid = idx.term_ids[term]
        lo, hi = idx.offsets[tid], idx.offsets[tid + 1]
        ids = idx.doc_ids
        pairs = zip(idx.positions[lo:hi].tolist(), idx.tfs[lo:hi].tolist())
        return [(ids[p], tf) for p, tf in pairs]

    def __contains__(self, term: object) -> bool:
        return term in self._index.term_ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._index.terms)

    def __len__(self) -> int:
        return len(self._index.terms)


class CorpusIndex:
    """CSR postings plus the corpus statistics derived from them.

    `df`, `doc_len` and `postings` hold the same data keyed by term or
    document id, for callers that look them up by name.
    """

    def __init__(
        self,
        terms: Sequence[str],
        offsets: np.ndarray,
        positions: np.ndarray,
        tfs: np.ndarray,
        doc_ids: Sequence[str],
        lengths: np.ndarray,
        fingerprint: str,
    ):
        self.terms = list(terms)
        self.offsets = offsets
        self.positions = positions
        self.tfs = tfs
        self.doc_ids = list(doc_ids)
        self.lengths = lengths
        self.fingerprint = fingerprint
        for array in (offsets, positions, tfs, lengths):
            array.flags.writeable = False
        self.n_docs = len(self.doc_ids)
        self.avg_len = int(lengths.sum()) / self.n_docs
        self.term_ids = {term: i for i, term in enumerate(self.terms)}
        self.df = dict(zip(self.terms, np.diff(offsets).tolist()))
        self.doc_len = dict(zip(self.doc_ids, lengths.tolist()))
        self.postings = _PostingsView(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorpusIndex):
            return NotImplemented
        return (
            self.fingerprint == other.fingerprint
            and self.doc_ids == other.doc_ids
            and self.terms == other.terms
            and all(
                np.array_equal(a, b)
                for a, b in (
                    (self.lengths, other.lengths),
                    (self.offsets, other.offsets),
                    (self.positions, other.positions),
                    (self.tfs, other.tfs),
                )
            )
        )

    __hash__ = None  # type: ignore[assignment]


def _check_doc_id(doc_id: str) -> None:
    # a lone surrogate (an undecodable byte of a file name) has no UTF-8 form to persist
    if not doc_id or any(ch.isspace() or "\ud800" <= ch <= "\udfff" for ch in doc_id):
        raise ValueError(f"invalid document id: {doc_id!r}")


def build_index(
    docs: Iterable[tuple[str, list[str]]],
    fingerprint: str,
) -> CorpusIndex:
    """Build an index from (doc_id, normalized tokens) pairs.

    Rejects duplicate or malformed ids and corpora with no tokens at all
    (the mean document length would be undefined).
    """
    doc_ids: list[str] = []
    lengths: list[int] = []
    vocab: defaultdict[str, int] = defaultdict(count().__next__)  # id by first appearance
    id_of = vocab.__getitem__
    term_chunks: list[np.ndarray] = []
    tf_chunks: list[np.ndarray] = []
    for doc_id, tokens in sorted(docs, key=lambda doc: doc[0]):
        _check_doc_id(doc_id)
        if doc_ids and doc_ids[-1] == doc_id:
            raise DuplicateDocIdError(doc_id)
        doc_ids.append(doc_id)
        lengths.append(len(tokens))
        ids, tfs = np.unique(np.fromiter(map(id_of, tokens), np.int32, len(tokens)), return_counts=True)
        term_chunks.append(ids)
        tf_chunks.append(tfs.astype(np.int32))

    if not doc_ids:
        raise ValueError("nothing to index: empty corpus")
    if sum(lengths) == 0:
        raise ValueError("nothing to index: every document is empty")

    terms = sorted(vocab)
    n_terms, n_docs = len(terms), len(doc_ids)
    # key = term rank * n_docs + doc position: unique, so any sort gives one order
    key_type = np.int32 if n_terms * n_docs <= _INT32_MAX else np.int64
    key_of_vocab_id = np.empty(n_terms, key_type)
    key_of_vocab_id[[vocab[t] for t in terms]] = np.arange(n_terms) * n_docs
    key = key_of_vocab_id[np.concatenate(term_chunks)]
    del term_chunks
    key += np.repeat(np.arange(n_docs, dtype=key_type), [len(chunk) for chunk in tf_chunks])
    tfs = np.concatenate(tf_chunks)
    del tf_chunks
    if key_type is np.int32:  # sort (key << 32 | tf) in place, then unpack both halves
        packed = np.left_shift(key, 32, dtype=np.int64)
        del key
        packed |= tfs
        packed.sort()
        np.bitwise_and(packed, 0xFFFFFFFF, out=tfs, casting="unsafe")
        positions = np.right_shift(packed, 32, out=np.empty_like(tfs), casting="unsafe")
        del packed
    else:
        by_term_then_doc = np.argsort(key)
        positions, tfs = key[by_term_then_doc], tfs[by_term_then_doc]
        del key, by_term_then_doc
    offsets = np.searchsorted(positions, np.arange(n_terms + 1, dtype=key_type) * n_docs)
    positions %= n_docs
    return CorpusIndex(
        terms=terms,
        offsets=offsets,
        positions=positions.astype(np.int32, copy=False),
        tfs=tfs,
        doc_ids=doc_ids,
        lengths=np.array(lengths, np.int64),
        fingerprint=fingerprint,
    )


# ---------------------------------------------------------------------------
# persistence

@contextmanager
def atomic_open(path: str | Path) -> Iterator[BinaryIO]:
    """Open a temporary binary file beside `path` that replaces it on success.

    If the block raises, the temporary file is removed and `path` is left
    as it was, so readers never see a half-written file.  Callers encode
    text themselves, so no file depends on the platform's newline.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    out = open(tmp, "xb")
    try:
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_u32(out: BinaryIO, value: int) -> None:
    out.write(struct.pack("<I", value))


def _write_bytes(out: BinaryIO, data: bytes) -> None:
    _write_u32(out, len(data))
    out.write(data)


class _Reader:
    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise IndexFormatError("corrupt index file: truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        raw = self.take(self.u32())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"corrupt index file: bad UTF-8 ({exc})") from None


def _flush(buf: io.BytesIO, out: BinaryIO, crc: int) -> int:
    """Move `buf`'s bytes to `out`; returns `crc` continued over them."""
    chunk = buf.getvalue()
    out.write(chunk)
    buf.seek(0)
    buf.truncate()
    return zlib.crc32(chunk, crc)


def persist_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index to `path` in the versioned binary layout.

    The bytes go out in chunks of about 1 MB under a running CRC, so the
    interleaved (position, tf) pairs are the only posting-sized buffer.
    """
    buf = io.BytesIO()
    buf.write(MAGIC)
    _write_u32(buf, FORMAT_VERSION)
    _write_bytes(buf, index.fingerprint.encode("utf-8"))

    _write_u32(buf, index.n_docs)
    for doc_id, length in zip(index.doc_ids, index.lengths.tolist()):
        _write_bytes(buf, doc_id.encode("utf-8"))
        _write_u32(buf, length)

    pairs = np.empty((len(index.positions), 2), "<u4")
    pairs[:, 0] = index.positions
    pairs[:, 1] = index.tfs
    blob = memoryview(pairs).cast("B")
    offsets = index.offsets.tolist()
    crc = 0
    _write_u32(buf, len(index.terms))
    with atomic_open(path) as out:
        for i, term in enumerate(index.terms):
            _write_bytes(buf, term.encode("utf-8"))
            _write_u32(buf, offsets[i + 1] - offsets[i])
            buf.write(blob[8 * offsets[i] : 8 * offsets[i + 1]])
            if buf.tell() >= 1 << 20:
                crc = _flush(buf, out, crc)
        out.write(struct.pack("<I", _flush(buf, out, crc)))


def _corrupt(what: str) -> IndexFormatError:
    return IndexFormatError(f"corrupt index file: {what}")


def _strictly_ascending(items: Sequence[str]) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index written by `persist_index`.

    Raises IndexFormatError for unreadable, corrupt or structurally
    inconsistent files and IndexVersionError when the version tag is
    unsupported.  A file that loads satisfies every CSR invariant listed
    in the module docstring, and its term frequencies sum to each
    document's length.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or not data.startswith(MAGIC):
        raise IndexFormatError("not an index file: bad magic")
    if len(data) < 12:
        raise IndexFormatError("corrupt index file: truncated")
    payload = memoryview(data)[:-4]
    if struct.unpack("<I", data[-4:])[0] != zlib.crc32(payload):
        raise IndexFormatError("corrupt index file: checksum mismatch")

    reader = _Reader(payload)
    reader.take(4)  # magic
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise IndexVersionError(
            f"unsupported index version {version} (this build reads version {FORMAT_VERSION})"
        )
    fingerprint = reader.string()

    n_docs = reader.u32()
    doc_ids: list[str] = []
    lengths: list[int] = []
    for _ in range(n_docs):
        doc_ids.append(reader.string())
        lengths.append(reader.u32())

    n_terms = reader.u32()
    terms: list[str] = []
    counts: list[int] = []
    blocks: list[memoryview] = []
    for _ in range(n_terms):
        terms.append(reader.string())
        counts.append(reader.u32())
        blocks.append(reader.take(8 * counts[-1]))
    if reader.pos != len(payload):
        raise IndexFormatError("corrupt index file: trailing bytes")
    blob = b"".join(blocks)
    del data, payload, reader, blocks  # every view of the file bytes, so they are freed

    if n_docs == 0:
        raise _corrupt("no documents")
    if not _strictly_ascending(doc_ids):
        raise _corrupt("document ids not strictly ascending")
    if not _strictly_ascending(terms):
        raise _corrupt("terms not strictly ascending")
    if 0 in counts:
        raise _corrupt("term with no postings")
    pairs = np.frombuffer(blob, "<u4").reshape(-1, 2)
    positions, tfs = pairs[:, 0], pairs[:, 1]
    offsets = np.zeros(n_terms + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    if positions.size and positions.max() >= n_docs:
        raise _corrupt("posting points past document table")
    ascending = positions[1:] > positions[:-1]
    ascending[offsets[1:-1] - 1] = True  # a new term may start anywhere
    if not ascending.all():
        raise _corrupt("positions not strictly ascending within a term")
    if tfs.size and (tfs.min() == 0 or tfs.max() > _INT32_MAX):
        raise _corrupt("term frequency outside [1, 2**31)")
    positions, tfs = positions.astype(np.int32), tfs.astype(np.int32)
    del pairs, blob
    doc_lengths = np.array(lengths, np.int64)
    # bincount casts to int64 and float64, so sum slice by slice; these sums are exact
    sums = np.zeros(n_docs)
    for lo in range(0, positions.size, _SLICE):
        sums += np.bincount(positions[lo : lo + _SLICE], weights=tfs[lo : lo + _SLICE],
                            minlength=n_docs)
    if not np.array_equal(sums, doc_lengths):
        raise _corrupt("term frequencies do not sum to document lengths")
    if not doc_lengths.any():
        raise _corrupt("every document is empty")

    return CorpusIndex(
        terms=terms,
        offsets=offsets,
        positions=positions,
        tfs=tfs,
        doc_ids=doc_ids,
        lengths=doc_lengths,
        fingerprint=fingerprint,
    )


# ---------------------------------------------------------------------------
# corpus and query ingestion

def read_corpus_dir(path: str | Path) -> list[tuple[str, str]]:
    """Read a directory of UTF-8 text files as (doc_id, raw text) pairs.

    The document id is the filename without its extension.  Hidden files
    are skipped.  Results are sorted by id.  An id that `build_index`
    would reject raises ValueError, and two files with the same id
    (`a.txt`, `a.md`) raise `DuplicateDocIdError`, before any file is read.
    A file that is not UTF-8 raises ValueError naming the file.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    entries = sorted(
        (entry for entry in root.iterdir()
         if entry.is_file() and not entry.name.startswith(".")),
        key=lambda entry: entry.stem,
    )
    if not entries:
        raise ValueError(f"corpus directory contains no documents: {root}")
    for entry in entries:
        _check_doc_id(entry.stem)
    for prev, entry in zip(entries, entries[1:]):
        if prev.stem == entry.stem:
            raise DuplicateDocIdError(entry.stem)
    docs = []
    for entry in entries:
        try:
            text = entry.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{entry}: {exc}") from None
        docs.append((entry.stem, text))
    return docs


def read_queries_file(path: str | Path) -> list[tuple[str, str]]:
    """Read a two-column `query_id<TAB>query_text` file."""
    queries = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'query_id<TAB>query_text'")
            qid, text = line.split("\t", 1)
            if not qid or any(ch.isspace() for ch in qid):
                raise ValueError(f"{path}:{lineno}: invalid query id {qid!r}")
            queries.append((qid, text))
    if not queries:
        raise ValueError(f"no queries found in {path}")
    seen = set()
    for qid, _text in queries:
        if qid in seen:
            raise ValueError(f"{path}: duplicate query id {qid!r}")
        seen.add(qid)
    return queries
