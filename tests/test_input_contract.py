"""The input contract of every command, driven by byte mutations.

Whatever the bytes of an input file, `priorcase` either exits 0, or
exits 1 with exactly one line on stderr and leaves its `--out` as it
was: absent, or byte-identical.  No exception escapes `main`.
"""

import contextlib
import io
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from priorcase.cli import main

from conftest import SYNTHETIC_DIR

INSERTS = [b"\t", b"\r", b"\x00", "\ufeff".encode("utf-8"), b"nan", b"1e999", b"\xff"]
PREVIOUS = b"q1 Q0 case01 1 1.000000 before\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One intact copy of each input file, and the arguments that read it."""
    base = tmp_path_factory.mktemp("intact")
    corpus = str(SYNTHETIC_DIR / "corpus")
    queries, qrels = str(SYNTHETIC_DIR / "queries.tsv"), str(SYNTHETIC_DIR / "qrels.txt")
    index, run = str(base / "index.idx"), str(base / "bm25.run")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["index", "--corpus", corpus, "--out", index]) == 0
        assert main(["search", "--index", index, "--queries", queries, "--scorer", "bm25",
                     "--out", run]) == 0
    (base / "stopwords.txt").write_text("the\nof\nby\n# a comment\n", encoding="utf-8")
    (base / "search.conf").write_text(
        "scorer = bm25\ntop_n = 5\nk1 = 1.2\nb = 0.75\npreset = standard\n", encoding="utf-8")
    search = ["search", "--index", index, "--queries", queries, "--scorer", "bm25"]
    # each kind: the intact file, and the arguments with None where its mutant goes;
    # "{out}" marks where the command writes, if it writes
    return {
        "index": (index, ["search", "--index", None, "--queries", queries, "--scorer", "bm25",
                          "--out", "{out}"]),
        "queries": (queries, search[:3] + ["--queries", None, "--scorer", "bm25",
                                           "--out", "{out}"]),
        "qrels": (qrels, ["eval", "--run", run, "--qrels", None]),
        "run": (run, ["eval", "--run", None, "--qrels", qrels]),
        "sidecar": (str(SYNTHETIC_DIR / "embeddings.tsv"),
                    search[:-1] + ["embed", "--embeddings", None, "--out", "{out}"]),
        "stopwords": (str(base / "stopwords.txt"),
                      ["index", "--corpus", corpus, "--stopwords", None, "--out", "{out}"]),
        "config": (str(base / "search.conf"),
                   ["--config", None, "search", "--index", index, "--queries", queries,
                    "--out", "{out}"]),
    }


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """`data` after one deletion, truncation, byte flip or insertion."""
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["delete", "truncate", "flip", "insert"]))
    if kind == "delete":
        return data[:at] + data[at + draw(st.integers(1, 16)):]
    if kind == "truncate":
        return data[:at]
    if kind == "flip" and at < len(data):
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["index", "queries", "qrels", "run", "sidecar", "stopwords",
                             "config"]),
       out_exists=st.booleans(), data=st.data())
def test_a_mutated_input_exits_0_or_with_one_error_line(inputs, kind, out_exists, data):
    intact, template = inputs[kind]
    mutant = data.draw(mutations(Path(intact).read_bytes()), label="mutant")
    if kind == "index" and data.draw(st.booleans(), label="resealed"):
        # a valid checksum over the mutated bytes, so the structural checks run
        mutant = mutant[:-4] + struct.pack("<I", zlib.crc32(mutant[:-4]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "input").write_bytes(mutant)
        out = work / "out" / "result"
        out.parent.mkdir()
        if out_exists:
            out.write_bytes(PREVIOUS)
        argv = [str(work / "input") if arg is None else arg.format(out=out) for arg in template]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        if code == 0:
            assert err == "" or (err.startswith("warning: ") and err.count("\n") == 1)
            return
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert stdout.getvalue() == ""
        assert sorted(out.parent.iterdir()) == ([out] if out_exists else [])
        if out_exists:
            assert out.read_bytes() == PREVIOUS
