"""End-to-end command-line behaviour on the bundled synthetic corpus."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from priorcase.cli import load_config_file, main
from priorcase.evaluation import load_run, write_run
from priorcase.index import (
    build_index,
    load_index,
    persist_index,
    read_corpus_dir,
    read_queries_file,
)
from priorcase.rankers import SCORER_NAMES, BM25Params, Searcher
from priorcase.textproc import (
    PRESET_FULL,
    PRESET_STANDARD,
    PRESETS,
    PipelineConfig,
    pipeline_fingerprint,
    tokenize_corpus,
    tokenize_normalize,
)

from conftest import REPO_ROOT


@pytest.fixture
def paths(synthetic_dir, tmp_path):
    return {
        "corpus": str(synthetic_dir / "corpus"),
        "queries": str(synthetic_dir / "queries.tsv"),
        "qrels": str(synthetic_dir / "qrels.txt"),
        "embeddings": str(synthetic_dir / "embeddings.tsv"),
        "index": str(tmp_path / "synthetic.idx"),
        "run": str(tmp_path / "out.run"),
        "tmp": tmp_path,
    }


def build_synthetic_index(paths) -> None:
    code = main(["index", "--corpus", paths["corpus"], "--out", paths["index"]])
    assert code == 0


def library_run_bytes(paths, scorer, config=PRESET_STANDARD, params=BM25Params()) -> bytes:
    """The run file `write_run` makes for the library's `search_all` on the index."""
    reference = paths["tmp"] / "reference.run"
    searcher = Searcher(load_index(paths["index"]), config=config, params=params)
    write_run(searcher.search_all(read_queries_file(paths["queries"]), scorer), reference, scorer)
    return reference.read_bytes()


class TestIndexCommand:
    def test_smoke(self, paths, capsys):
        build_synthetic_index(paths)
        out = capsys.readouterr().out
        assert "indexed 6 documents" in out
        idx = load_index(paths["index"])
        assert idx.n_docs == 6

    def test_missing_corpus_dir(self, paths, capsys):
        code = main(["index", "--corpus", str(paths["tmp"] / "nope"), "--out", paths["index"]])
        err = capsys.readouterr().err
        assert code != 0
        assert err.startswith("error:") and err.count("\n") == 1

    def test_duplicate_doc_id_is_a_one_line_error(self, paths, capsys):
        corpus = paths["tmp"] / "dup"
        corpus.mkdir()
        (corpus / "a.txt").write_text("contract breach", encoding="utf-8")
        (corpus / "a.md").write_text("lease tenant", encoding="utf-8")
        code = main(["index", "--corpus", str(corpus), "--out", paths["index"]])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: duplicate document id: 'a'\n"
        assert not Path(paths["index"]).exists()

    def test_file_name_without_utf8_form_is_a_one_line_error(self, paths, capsys):
        corpus = paths["tmp"] / "bad"
        corpus.mkdir()
        (corpus / "a.txt").write_text("contract breach", encoding="utf-8")
        (corpus / os.fsdecode(b"bad\xffname.txt")).write_text("lease tenant", encoding="utf-8")
        code = main(["index", "--corpus", str(corpus), "--out", paths["index"]])
        assert code == 1
        assert capsys.readouterr().err == "error: invalid document id: 'bad\\udcffname'\n"
        assert not Path(paths["index"]).exists()

    @pytest.mark.parametrize("kind", ["corpus", "queries", "qrels", "run", "config",
                                      "stopwords", "embeddings"])
    def test_text_input_that_is_not_utf8_is_named(self, paths, capsys, kind):
        build_synthetic_index(paths)
        write_run({"q1": [("case01", 1.0)]}, paths["run"], "t")
        corpus = paths["tmp"] / "latin1"
        shutil.copytree(paths["corpus"], corpus)
        bad = corpus / "zz.txt" if kind == "corpus" else paths["tmp"] / "bad.txt"
        bad.write_bytes(b"caf\xff\n")
        out = paths["tmp"] / "out"
        index = ["index", "--corpus", paths["corpus"], "--out", str(out)]
        search = ["search", "--index", paths["index"], "--out", str(out)]
        args = {
            "corpus": ["index", "--corpus", str(corpus), "--out", str(out)],
            "queries": search + ["--queries", str(bad), "--scorer", "bm25"],
            "qrels": ["eval", "--run", paths["run"], "--qrels", str(bad)],
            "run": ["eval", "--run", str(bad), "--qrels", paths["qrels"]],
            "config": ["--config", str(bad)] + index,
            "stopwords": index + ["--stopwords", str(bad)],
            "embeddings": search + ["--queries", paths["queries"], "--scorer", "embed",
                                    "--embeddings", str(bad)],
        }[kind]
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_full_preset_bytes_match_the_per_text_pipeline(self, paths):
        code = main(["index", "--preset", "full", "--corpus", paths["corpus"], "--out", paths["index"]])
        assert code == 0
        reference = paths["tmp"] / "reference.idx"
        docs = read_corpus_dir(paths["corpus"])
        persist_index(
            build_index([(d, tokenize_normalize(t, PRESET_FULL)) for d, t in docs],
                        pipeline_fingerprint(PRESET_FULL)),
            reference,
        )
        assert Path(paths["index"]).read_bytes() == reference.read_bytes()

    def test_min_token_len_matches_the_library_build(self, paths, capsys):
        code = main(["index", "--corpus", paths["corpus"], "--out", paths["index"],
                     "--min-token-len", "4"])
        assert code == 0
        config = dataclasses.replace(PRESET_STANDARD, min_token_len=4)
        doc_ids, texts = zip(*read_corpus_dir(paths["corpus"]))
        reference = paths["tmp"] / "reference.idx"
        persist_index(build_index(zip(doc_ids, tokenize_corpus(texts, config)),
                                  pipeline_fingerprint(config)), reference)
        assert Path(paths["index"]).read_bytes() == reference.read_bytes()
        # the standard preset keeps the three-letter "tax"; this index does not
        assert "tax" not in load_index(paths["index"]).term_ids

        search = ["search", "--index", paths["index"], "--queries", paths["queries"],
                  "--scorer", "bm25", "--out", paths["run"]]
        capsys.readouterr()
        assert main(search) == 1
        assert "pipeline mismatch" in capsys.readouterr().err
        assert main(search + ["--min-token-len", "4"]) == 0
        assert Path(paths["run"]).read_bytes() == library_run_bytes(paths, "bm25", config)

    def test_preset_changes_fingerprint(self, paths):
        build_synthetic_index(paths)
        other = str(paths["tmp"] / "full.idx")
        assert main(["index", "--corpus", paths["corpus"], "--out", other, "--preset", "full"]) == 0
        assert load_index(paths["index"]).fingerprint != load_index(other).fingerprint


class TestSearchCommand:
    def test_search_writes_expected_rankings(self, paths, synthetic_dir):
        build_synthetic_index(paths)
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "bm25", "--out", paths["run"], "--top", "10",
        ])
        assert code == 0
        expected = json.loads((synthetic_dir / "expected_metrics.json").read_text())
        run = load_run(paths["run"])
        for qid, ranking in run.items():
            assert [d for d, _ in ranking] == expected["rankings"][qid]

    def test_queries_without_index_terms_warn_once(self, paths, capsys):
        build_synthetic_index(paths)
        queries = paths["tmp"] / "q.tsv"
        queries.write_text("q1\tcontract breach damages\nqa\tthe of 42\nqb\tzzzz qqqq\n",
                           encoding="utf-8")
        argv = ["search", "--index", paths["index"], "--queries", str(queries),
                "--scorer", "bm25", "--out", paths["run"], "--top", "3"]
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: 2 of 3 queries have no in-vocabulary terms")
        assert err.count("\n") == 1
        # the run file is what the API writes: zero-score rows in id order
        direct = paths["tmp"] / "direct.run"
        searcher = Searcher(load_index(paths["index"]), config=PRESET_STANDARD)
        write_run(searcher.search_all(read_queries_file(queries), "bm25", top_n=3), direct, "bm25")
        assert Path(paths["run"]).read_bytes() == direct.read_bytes()
        assert [d for d, _ in load_run(paths["run"])["qa"]] == ["case01", "case02", "case03"]

        matched = paths["tmp"] / "m.tsv"
        matched.write_text("q1\tcontract breach damages\n", encoding="utf-8")
        assert main(argv[:4] + [str(matched)] + argv[5:]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_a_one_line_error(self, paths, capsys, workers):
        build_synthetic_index(paths)
        capsys.readouterr()
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "bm25", "--out", paths["run"], "--workers", workers,
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: workers must be >= 1\n"
        assert not Path(paths["run"]).exists()

    @pytest.mark.parametrize("from_config", [False, True])
    @pytest.mark.parametrize("scorer, flags, params", [
        ("bm25_okapi", ["--k1", "1.2", "--b", "0.3", "--epsilon", "0.1"], BM25Params(1.2, 0.3, 0.1)),
        ("bm25plus", ["--delta", "0.4"], BM25Params(delta=0.4)),
    ])
    def test_bm25_parameters_reach_the_scorer(self, paths, scorer, flags, params, from_config):
        build_synthetic_index(paths)
        args = ["search", "--index", paths["index"], "--queries", paths["queries"],
                "--scorer", scorer, "--out", paths["run"]]
        if from_config:
            config = paths["tmp"] / "bm25.conf"
            config.write_text("".join(f"{flag[2:]} = {value}\n"
                                      for flag, value in zip(flags[::2], flags[1::2])),
                              encoding="utf-8")
            args = ["--config", str(config)] + args
        else:
            args += flags
        assert main(args) == 0
        written = Path(paths["run"]).read_bytes()
        assert written == library_run_bytes(paths, scorer, params=params)
        assert written != library_run_bytes(paths, scorer)

    def test_non_finite_bm25_parameter_is_a_one_line_error(self, paths, capsys):
        build_synthetic_index(paths)
        capsys.readouterr()
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "bm25", "--out", paths["run"], "--k1", "nan",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: k1 must be > 0 and finite\n"
        assert captured.out == ""
        assert not Path(paths["run"]).exists()

    def test_tag_defaults_to_scorer_name(self, paths):
        build_synthetic_index(paths)
        main(["search", "--index", paths["index"], "--queries", paths["queries"],
              "--scorer", "tfidf_cos", "--out", paths["run"]])
        with open(paths["run"], encoding="utf-8") as fh:
            assert fh.readline().strip().endswith("tfidf_cos")

    def test_fingerprint_mismatch_is_an_error(self, paths, capsys):
        build_synthetic_index(paths)
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "bm25", "--out", paths["run"], "--preset", "full",
        ])
        assert code != 0
        assert "pipeline mismatch" in capsys.readouterr().err

    def test_rake_scorer_requires_corpus(self, paths, capsys):
        build_synthetic_index(paths)
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "rake_tfidf", "--out", paths["run"],
        ])
        assert code != 0
        assert "corpus" in capsys.readouterr().err

    def test_rake_scorer_with_corpus(self, paths):
        build_synthetic_index(paths)
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "rake_tfidf", "--out", paths["run"], "--corpus", paths["corpus"],
        ])
        assert code == 0
        assert len(load_run(paths["run"])) == 5

    def test_rake_scorer_rejects_a_corpus_other_than_the_indexed_one(self, paths, capsys):
        build_synthetic_index(paths)
        other = paths["tmp"] / "other"
        other.mkdir()
        (other / "case01.txt").write_text("contract breach damages", encoding="utf-8")
        capsys.readouterr()
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "rake_tfidf", "--out", paths["run"], "--corpus", str(other),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: corpus texts do not match the index") and err.count("\n") == 1
        assert not Path(paths["run"]).exists()

    def test_embed_scorer_with_sidecar(self, paths):
        build_synthetic_index(paths)
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "embed", "--out", paths["run"], "--embeddings", paths["embeddings"],
        ])
        assert code == 0
        run = load_run(paths["run"])
        # q1 is the contract query; case01 has the strongest contract vectors
        assert run["q1"][0][0] == "case01"

    @pytest.mark.parametrize("value", ["1e200", "1.3e154"])
    def test_embed_sidecar_whose_norm_overflows_is_one_error(self, paths, capsys, value):
        build_synthetic_index(paths)
        sidecar = Path(paths["embeddings"]).read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(sidecar) if line.startswith("case02\t0\t"))
        sidecar[at] = f"case02\t0\t{value} {value} 0 0"
        embeddings = paths["tmp"] / "huge.tsv"
        embeddings.write_text("\n".join(sidecar) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "embed", "--out", paths["run"], "--embeddings", str(embeddings),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {embeddings}:{at + 1}: vector norm overflows to inf; scale the vector down\n")
        assert not Path(paths["run"]).exists()

    def test_embed_scorer_requires_sidecar(self, paths, capsys):
        build_synthetic_index(paths)
        code = main([
            "search", "--index", paths["index"], "--queries", paths["queries"],
            "--scorer", "embed", "--out", paths["run"],
        ])
        assert code != 0
        assert "embeddings" in capsys.readouterr().err

    def test_queries_file_is_read_before_the_index(self, paths, capsys):
        # a full-preset index would fail the standard pipeline if it were loaded first
        assert main(["index", "--corpus", paths["corpus"], "--out", paths["index"],
                     "--preset", "full"]) == 0
        capsys.readouterr()
        code = main(["search", "--index", paths["index"], "--queries", str(paths["tmp"]),
                     "--scorer", "bm25", "--out", paths["run"]])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(paths['tmp'])!r}\n"
        assert not Path(paths["run"]).exists()

    @pytest.mark.parametrize("scorer, flag, error", [
        ("embed", "--embeddings", "embedding sidecar not found"),
        ("rake_tfidf", "--corpus", "corpus directory not found"),
    ])
    def test_missing_sidecar_or_corpus_is_found_before_the_index_loads(
            self, paths, capsys, scorer, flag, error):
        Path(paths["index"]).write_bytes(b"not an index")
        missing = paths["tmp"] / "missing"
        capsys.readouterr()
        code = main(["search", "--index", paths["index"], "--queries", paths["queries"],
                     "--scorer", scorer, flag, str(missing), "--out", paths["run"]])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}: {missing}\n"


class TestEvalCommand:
    def test_report_matches_fixture(self, paths, synthetic_dir, capsys):
        build_synthetic_index(paths)
        main(["search", "--index", paths["index"], "--queries", paths["queries"],
              "--scorer", "bm25", "--out", paths["run"], "--top", "10"])
        capsys.readouterr()
        code = main(["eval", "--run", paths["run"], "--qrels", paths["qrels"]])
        assert code == 0
        out = capsys.readouterr().out
        expected = json.loads((synthetic_dir / "expected_metrics.json").read_text())
        for k in (1, 3, 5, 10):
            assert f"P@{k}\tall\t{expected['mean']['precision'][str(k)]:.6f}" in out
            assert f"R@{k}\tall\t{expected['mean']['recall'][str(k)]:.6f}" in out
            assert f"F1@{k}\tall\t{expected['mean']['f1'][str(k)]:.6f}" in out
        assert f"MRR\tall\t{expected['mean']['mrr']:.6f}" in out
        assert "skipped" in out and "q5" in out

    def test_byte_order_mark_in_queries_file(self, paths, capsys):
        # the first query id must read "q1", not "\ufeffq1", or eval finds
        # no judgments for it
        build_synthetic_index(paths)
        queries = paths["tmp"] / "bom.tsv"
        queries.write_bytes(b"\xef\xbb\xbf" + Path(paths["queries"]).read_bytes())
        assert main(["search", "--index", paths["index"], "--queries", str(queries),
                     "--scorer", "bm25", "--out", paths["run"]]) == 0
        assert sorted(load_run(paths["run"])) == ["q1", "q2", "q3", "q4", "q5"]
        capsys.readouterr()
        assert main(["eval", "--run", paths["run"], "--qrels", paths["qrels"]]) == 0

    def test_unknown_query_in_run(self, paths, capsys):
        build_synthetic_index(paths)
        run_path = paths["tmp"] / "mystery.run"
        run_path.write_text("q99 Q0 case01 1 1.000000 tag\n", encoding="utf-8")
        code = main(["eval", "--run", str(run_path), "--qrels", paths["qrels"]])
        assert code != 0
        assert "q99" in capsys.readouterr().err

    def test_score_that_is_not_finite_is_one_error_line(self, paths, capsys):
        run_path = paths["tmp"] / "nan.run"
        run_path.write_text("q1 Q0 case01 1 nan tag\n", encoding="utf-8")
        code = main(["eval", "--run", str(run_path), "--qrels", paths["qrels"]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {run_path}:1: malformed rank or score\n"

    def test_custom_cutoffs(self, paths, capsys):
        build_synthetic_index(paths)
        main(["search", "--index", paths["index"], "--queries", paths["queries"],
              "--scorer", "bm25", "--out", paths["run"]])
        capsys.readouterr()
        assert main(["eval", "--run", paths["run"], "--qrels", paths["qrels"], "--k", "2,4"]) == 0
        out = capsys.readouterr().out
        assert "P@2\tall" in out and "P@4\tall" in out and "P@10\tall" not in out

    def test_repeated_cutoff_is_one_error_line(self, paths, capsys):
        build_synthetic_index(paths)
        main(["search", "--index", paths["index"], "--queries", paths["queries"],
              "--scorer", "bm25", "--out", paths["run"]])
        capsys.readouterr()
        assert main(["eval", "--run", paths["run"], "--qrels", paths["qrels"], "--k", "3,3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cutoff 3 is given more than once\n"

    def test_a_reader_that_has_gone_is_not_an_error(self, paths):
        # as in `priorcase eval ... --per-query | head -1` once `head` has exited
        write_run({"q1": [("case01", 1.0)]}, paths["run"], "t")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "priorcase", "eval", "--run", paths["run"],
                 "--qrels", paths["qrels"], "--per-query"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


class TestCompareCommand:
    def test_rows_sorted_by_p10_then_name(self, paths, capsys):
        build_synthetic_index(paths)
        capsys.readouterr()
        code = main([
            "compare", "--index", paths["index"], "--queries", paths["queries"],
            "--qrels", paths["qrels"],
            "--scorers", "bm25,tfidf_cos,fused,commonwords_bm25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        rows = []
        for line in out.splitlines()[1:]:
            if not line or line.startswith("relevant"):
                break
            name, p10 = line.split()[0], float(line.split()[1])
            rows.append((name, p10))
        assert len(rows) == 4
        assert rows == sorted(rows, key=lambda r: (-r[1], r[0]))
        assert "rank bucket" in out

    def test_pipeline_flags_match_a_full_preset_index(self, paths, capsys):
        assert main(["index", "--preset", "full", "--corpus", paths["corpus"],
                     "--out", paths["index"]]) == 0
        capsys.readouterr()
        code = main([
            "compare", "--index", paths["index"], "--queries", paths["queries"],
            "--qrels", paths["qrels"], "--preset", "full",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{'method':<20}{'P@10':>10}")
        assert "rank bucket" in out

    @pytest.mark.parametrize("top, bucket", [("5", "1-5: 7"), ("100000", "1-6: 7")])
    def test_rank_buckets_end_at_the_longest_ranking(self, paths, capsys, top, bucket):
        # the synthetic corpus has 6 documents, so no ranking is longer than 6
        build_synthetic_index(paths)
        capsys.readouterr()
        assert main(["compare", "--index", paths["index"], "--queries", paths["queries"],
                     "--qrels", paths["qrels"], "--top", top]) == 0
        out = capsys.readouterr().out
        assert out.split("by rank bucket:\n", 1)[1] == "".join(
            f"  {scorer:<18}{bucket}\n"
            for scorer in ("bm25", "commonwords_bm25", "fused", "tfidf_cos"))

    def test_unknown_scorer_listed(self, paths, capsys):
        build_synthetic_index(paths)
        code = main([
            "compare", "--index", paths["index"], "--queries", paths["queries"],
            "--qrels", paths["qrels"], "--scorers", "bm25,wizardry",
        ])
        assert code != 0
        assert "wizardry" in capsys.readouterr().err


    @pytest.mark.parametrize("from_config", [False, True])
    def test_empty_scorer_list_is_a_one_line_error(self, paths, capsys, from_config):
        build_synthetic_index(paths)
        args = ["compare", "--index", paths["index"], "--queries", paths["queries"],
                "--qrels", paths["qrels"]]
        if from_config:
            config = paths["tmp"] / "compare.conf"
            config.write_text("scorers = ,\n", encoding="utf-8")
            args = ["--config", str(config)] + args
        else:
            args += ["--scorers", ","]
        capsys.readouterr()
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: no scorers") and captured.err.count("\n") == 1
        assert captured.out == ""


    @pytest.mark.parametrize("from_config", [False, True])
    def test_repeated_scorer_is_a_one_line_error(self, paths, capsys, from_config):
        build_synthetic_index(paths)
        args = ["compare", "--index", paths["index"], "--queries", paths["queries"],
                "--qrels", paths["qrels"]]
        if from_config:
            config = paths["tmp"] / "compare.conf"
            config.write_text("scorers = bm25,bm25,tfidf_cos\n", encoding="utf-8")
            args = ["--config", str(config)] + args
        else:
            args += ["--scorers", "bm25,bm25,tfidf_cos"]
        capsys.readouterr()
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: scorer bm25 is given more than once\n"
        assert captured.out == ""

    def test_unknown_scorers_are_named_in_one_message(self, paths, capsys):
        build_synthetic_index(paths)
        config = paths["tmp"] / "search.conf"
        config.write_text("scorer = wizardry\n", encoding="utf-8")
        expected = ("error: unknown scorer 'wizardry'; expected one of "
                    f"{', '.join(SCORER_NAMES)}\n")
        capsys.readouterr()
        assert main(["--config", str(config), "search", "--index", paths["index"],
                     "--queries", paths["queries"], "--out", paths["run"]]) == 1
        assert capsys.readouterr().err == expected
        assert not Path(paths["run"]).exists()
        assert main(["compare", "--index", paths["index"], "--queries", paths["queries"],
                     "--qrels", paths["qrels"], "--scorers", "bm25,wizardry,bm26"]) == 1
        assert capsys.readouterr().err == expected.replace("'wizardry'", "'wizardry', 'bm26'")

    def test_searcher_and_compare_write_one_unknown_scorer_message(self, paths, capsys):
        build_synthetic_index(paths)
        with pytest.raises(ValueError) as raised:
            Searcher(load_index(paths["index"])).score("pagerank", ["contract"])
        capsys.readouterr()
        assert main(["compare", "--index", paths["index"], "--queries", paths["queries"],
                     "--qrels", paths["qrels"], "--scorers", "pagerank,bm25"]) == 1
        assert capsys.readouterr().err == f"error: {raised.value}\n"

    def test_unknown_scorers_are_named_before_the_index_is_read(self, paths, capsys):
        # an index file that fails to load: the scorer names are checked first
        Path(paths["index"]).write_bytes(b"not an index")
        assert main(["compare", "--index", paths["index"], "--queries", paths["queries"],
                     "--qrels", paths["qrels"], "--scorers", "nope,bm25,wizardry"]) == 1
        assert capsys.readouterr().err == ("error: unknown scorer 'nope', 'wizardry'; "
                                           f"expected one of {', '.join(SCORER_NAMES)}\n")


class TestConfigFile:
    def test_flags_override_config_values(self, paths, capsys):
        build_synthetic_index(paths)
        cfg = paths["tmp"] / "run.cfg"
        cfg.write_text(
            "# experiment configuration\n"
            f"index = {paths['index']}\n"
            f"queries = {paths['queries']}\n"
            "scorer = bm25\n"
            "top_n = 3\n",
            encoding="utf-8",
        )
        out_a = paths["tmp"] / "a.run"
        assert main(["--config", str(cfg), "search", "--out", str(out_a)]) == 0
        assert all(len(r) == 3 for r in load_run(out_a).values())

        out_b = paths["tmp"] / "b.run"
        assert main(["--config", str(cfg), "search", "--out", str(out_b), "--top", "2"]) == 0
        assert all(len(r) == 2 for r in load_run(out_b).values())

    def test_unknown_key_is_a_one_line_error(self, paths, capsys):
        build_synthetic_index(paths)
        cfg = paths["tmp"] / "c.conf"
        # `top` is the flag's name; the setting is `top_n`
        cfg.write_text(f"index = {paths['index']}\nqueries = {paths['queries']}\n"
                       "scorer = bm25\ntop = 2\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["--config", str(cfg), "search", "--out", paths["run"]])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown setting 'top'\n"
        assert not Path(paths["run"]).exists()

    def test_every_documented_key_is_accepted(self, paths, capsys):
        doc = (REPO_ROOT / "docs" / "file_formats.md").read_text(encoding="utf-8")
        table = doc.split("## Configuration file", 1)[1]
        keys = [key for row in re.findall(r"^\| (.*?) \|", table, re.M)
                for key in re.findall(r"`(\w+)`", row)]
        assert len(keys) == 26
        write_run({"q1": [("case01", 1.0)]}, paths["run"], "t")
        values = {"run": paths["run"], "qrels": paths["qrels"], "k": "1,3",
                  "f1_mode": "per_query", "per_query": "false"}
        cfg = paths["tmp"] / "all.conf"
        cfg.write_text("".join(f"{key} = {values.get(key, 'x')}\n" for key in keys),
                       encoding="utf-8")
        assert main(["--config", str(cfg), "eval"]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("setting, error, from_config", [
        (setting, error, from_config)
        for setting, error in [
            ("top_n = ten", "setting 'top_n' must be an integer, got 'ten'"),
            ("preset = tiny", "unknown preset 'tiny'; expected none, standard or full"),
            ("k = 1,x", "cutoff list must be comma-separated integers, got '1,x'"),
            ("workers = two", "setting 'workers' must be an integer, got 'two'"),
            ("min_token_len = 2.5", "setting 'min_token_len' must be an integer, got '2.5'"),
            ("k1 = high", "setting 'k1' must be a number, got 'high'"),
            ("f1_mode = macro", "f1_mode must be 'per_query' or 'pooled'"),
            ("scorer = pagerank", "unknown scorer 'pagerank'; expected one of "
                                  f"{', '.join(SCORER_NAMES)}"),
            *((f"{key} =", f"setting {key!r} has no value")
              for key in ("k", "per_query", "f1_mode", "scorers", "tag")),
            # Python's `int` and `float` take these forms; no setting does
            ("top_n = 1_0", "setting 'top_n' must be an integer, got '1_0'"),
            ("k1 = 1_5", "setting 'k1' must be a number, got '1_5'"),
            ("workers = \u0662", "setting 'workers' must be an integer, got '\u0662'"),
            ("min_token_len = \u0663", "setting 'min_token_len' must be an integer, got '\u0663'"),
            ("k = 1,1_0", "cutoff list must be comma-separated integers, got '1,1_0'"),
            ("k = \u0661,3", "cutoff list must be comma-separated integers, got '\u0661,3'"),
        ]
        for from_config in (False, True)
        if from_config or setting != "per_query ="  # `--per-query` takes no value
    ])
    def test_malformed_config_value_is_a_one_line_error(self, paths, capsys, setting, error,
                                                        from_config):
        # a flag and a file value go through the same check
        build_synthetic_index(paths)
        write_run({"q1": [("case01", 1.0)]}, paths["run"], "t")
        out = paths["tmp"] / "out"
        search = ["search", "--index", paths["index"], "--queries", paths["queries"],
                  "--out", str(out)]
        index = ["index", "--corpus", paths["corpus"], "--out", str(out)]
        evaluate = ["eval", "--run", paths["run"], "--qrels", paths["qrels"]]
        compare = ["compare", "--index", paths["index"], "--queries", paths["queries"],
                   "--qrels", paths["qrels"]]
        commands = {
            "top_n": (search + ["--scorer", "bm25"], "--top"),
            "tag": (search + ["--scorer", "bm25"], "--tag"),
            "scorers": (compare, "--scorers"),
            "per_query": (evaluate, "--per-query"),
            "workers": (search + ["--scorer", "bm25"], "--workers"),
            "k1": (search + ["--scorer", "bm25"], "--k1"),
            "scorer": (search, "--scorer"),
            "preset": (index, "--preset"),
            "min_token_len": (index, "--min-token-len"),
            "k": (evaluate, "--k"),
            "f1_mode": (evaluate, "--f1-mode"),
        }
        key, value = (part.strip() for part in setting.split("="))
        args, flag = commands[key]
        if from_config:
            cfg = paths["tmp"] / "bad.cfg"
            cfg.write_text(setting + "\n", encoding="utf-8")
            args = ["--config", str(cfg)] + args
        else:
            args = args + [flag, value]
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_preset_name_is_case_blind_from_a_flag_and_a_file(self, paths):
        cfg = paths["tmp"] / "full.cfg"
        cfg.write_text("preset = FULL\n", encoding="utf-8")
        flag_idx = paths["tmp"] / "flag.idx"
        file_idx = paths["tmp"] / "file.idx"
        assert main(["index", "--corpus", paths["corpus"], "--out", str(flag_idx),
                     "--preset", "FULL"]) == 0
        assert main(["--config", str(cfg), "index", "--corpus", paths["corpus"],
                     "--out", str(file_idx)]) == 0
        assert flag_idx.read_bytes() == file_idx.read_bytes()
        assert load_index(flag_idx).fingerprint == pipeline_fingerprint(PRESET_FULL)

    @pytest.mark.parametrize("command", ["search", "index"])
    def test_help_names_every_scorer_and_preset(self, capsys, command):
        with pytest.raises(SystemExit) as raised:
            main([command, "--help"])
        assert raised.value.code == 0
        words = set(re.findall(r"\w+", capsys.readouterr().out))
        assert words >= set(PRESETS)
        if command == "search":
            assert words >= set(SCORER_NAMES)

    def test_a_flag_wins_over_a_malformed_config_value(self, paths):
        build_synthetic_index(paths)
        cfg = paths["tmp"] / "top.cfg"
        cfg.write_text("top_n = ten\n", encoding="utf-8")
        assert main(["--config", str(cfg), "search", "--index", paths["index"],
                     "--queries", paths["queries"], "--scorer", "bm25",
                     "--out", paths["run"], "--top", "3"]) == 0
        assert all(len(r) == 3 for r in load_run(paths["run"]).values())

    def test_a_flag_wins_over_an_empty_config_value(self, paths, capsys):
        write_run({"q1": [("case01", 1.0)]}, paths["run"], "t")
        cfg = paths["tmp"] / "k.cfg"
        cfg.write_text("k =\n", encoding="utf-8")
        evaluate = ["eval", "--run", paths["run"], "--qrels", paths["qrels"], "--k", "1"]
        assert main(evaluate) == 0
        expected = capsys.readouterr().out
        assert "P@1 " in expected and "P@10" not in expected
        assert main(["--config", str(cfg)] + evaluate) == 0
        assert capsys.readouterr().out == expected

    def test_malformed_config_line(self, paths, capsys):
        cfg = paths["tmp"] / "bad.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        code = main(["--config", str(cfg), "eval", "--run", "x", "--qrels", "y"])
        assert code != 0
        assert "key = value" in capsys.readouterr().err

    def test_parse_helper(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 1\n# note\nbeta = two words # trailing\n", encoding="utf-8")
        assert load_config_file(cfg) == {"alpha": "1", "beta": "two words"}

    def test_config_drops_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfalpha = 1\n")
        assert load_config_file(cfg) == {"alpha": "1"}

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("corpus = /data/case#1\n  # indented note\n"
                       "tag = run#2\t# tab comment\nout=x.run #trailing\n", encoding="utf-8")
        assert load_config_file(cfg) == {"corpus": "/data/case#1", "tag": "run#2", "out": "x.run"}

    def test_pipeline_booleans_in_config(self, paths):
        # standard preset with stemming switched on == the full preset
        cfg = paths["tmp"] / "stem.cfg"
        cfg.write_text("stem = true\n", encoding="utf-8")
        stem_idx = paths["tmp"] / "stem.idx"
        full_idx = paths["tmp"] / "full.idx"
        assert main(["--config", str(cfg), "index", "--corpus", paths["corpus"],
                     "--out", str(stem_idx)]) == 0
        assert main(["index", "--corpus", paths["corpus"], "--out", str(full_idx),
                     "--preset", "full"]) == 0
        assert load_index(stem_idx).fingerprint == load_index(full_idx).fingerprint

    def test_every_boolean_field_is_a_config_key(self, paths):
        # each bool field of the pipeline set away from the standard preset
        flipped = {f.name: not getattr(PRESET_STANDARD, f.name)
                   for f in dataclasses.fields(PipelineConfig) if isinstance(f.default, bool)}
        assert flipped.keys() >= {"lowercase", "remove_noise", "remove_stopwords", "stem"}
        cfg = paths["tmp"] / "flags.cfg"
        cfg.write_text("".join(f"{key} = {str(value).lower()}\n" for key, value in flipped.items()),
                       encoding="utf-8")
        assert main(["--config", str(cfg), "index", "--corpus", paths["corpus"],
                     "--out", paths["index"]]) == 0
        config = dataclasses.replace(PRESET_STANDARD, **flipped)
        assert load_index(paths["index"]).fingerprint == pipeline_fingerprint(config)

    def test_bad_boolean_in_config(self, paths, capsys):
        cfg = paths["tmp"] / "bad.cfg"
        cfg.write_text("stem = maybe\n", encoding="utf-8")
        code = main(["--config", str(cfg), "index", "--corpus", paths["corpus"],
                     "--out", str(paths["tmp"] / "x.idx")])
        assert code != 0
        assert capsys.readouterr().err == "error: setting 'stem' must be true/false, got 'maybe'\n"


class TestStopwordOverride:
    def test_override_applies_to_index_and_search(self, paths, capsys):
        stops = paths["tmp"] / "stops.txt"
        stops.write_text("# tiny list\nthe\nof\nby\nfor\nand\nto\nwas\nin\na\n", encoding="utf-8")
        idx = paths["tmp"] / "custom.idx"
        assert main(["index", "--corpus", paths["corpus"], "--out", str(idx),
                     "--stopwords", str(stops)]) == 0
        # searching with the bundled list must be refused...
        code = main(["search", "--index", str(idx), "--queries", paths["queries"],
                     "--scorer", "bm25", "--out", paths["run"]])
        assert code != 0
        assert "pipeline mismatch" in capsys.readouterr().err
        # ...and accepted with the same file
        assert main(["search", "--index", str(idx), "--queries", paths["queries"],
                     "--scorer", "bm25", "--out", paths["run"],
                     "--stopwords", str(stops)]) == 0
