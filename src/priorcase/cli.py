"""Command-line interface: index, search, eval, compare.

Every option can also come from a configuration file of `key = value`
lines (see docs/file_formats.md); command-line flags win over file
values.  All failures exit non-zero with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path
from typing import Callable

from .embeddings import load_embeddings
from .evaluation import (
    DEFAULT_KS,
    evaluate_run,
    format_report,
    load_qrels,
    load_run,
    write_run,
)
from .index import (
    build_index,
    load_index,
    persist_index,
    read_corpus_dir,
    read_queries_file,
)
from .rankers import BM25Params, SCORER_NAMES, Searcher
from .stopwords import ENGLISH_STOPWORDS, load_stopword_file
from .textproc import PRESETS, PipelineConfig, pipeline_fingerprint, tokenize_corpus, tokenize_normalize

DEFAULT_TOP_N = 100
DEFAULT_COMPARE_SCORERS = "fused,tfidf_cos,bm25,commonwords_bm25"

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# '#' opens a comment at line start or after whitespace, so values such
# as `corpus = /data/case#1` keep their '#'.
_COMMENT_RE = re.compile(r"(?:^|\s)#")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a `key = value` configuration file ('#' starts a comment)."""
    settings: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _COMMENT_RE.split(line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings


def _as_bool(settings: dict, key: str) -> bool:
    raw = str(settings[key]).lower()
    if raw not in _BOOL_VALUES:
        raise ValueError(f"config value {key!r} must be true/false, got {settings[key]!r}")
    return _BOOL_VALUES[raw]


def _as_int(settings: dict, key: str) -> int:
    try:
        return int(settings[key])
    except (TypeError, ValueError):
        raise ValueError(f"config value {key!r} must be an integer, got {settings[key]!r}") from None


def _as_float(settings: dict, key: str) -> float:
    try:
        return float(settings[key])
    except (TypeError, ValueError):
        raise ValueError(f"config value {key!r} must be a number, got {settings[key]!r}") from None


def _require(settings: dict, key: str, flag: str) -> str:
    value = settings.get(key)
    if value in (None, ""):
        raise ValueError(f"missing required setting {key!r} (flag {flag})")
    return str(value)


def _existing_path(raw: str, kind: str) -> Path:
    path = Path(raw)
    if not path.exists():
        raise ValueError(f"{kind} not found: {path}")
    return path


def _build_pipeline(settings: dict) -> tuple[PipelineConfig, frozenset[str]]:
    preset_name = str(settings.get("preset", "standard")).lower()
    if preset_name not in PRESETS:
        raise ValueError(f"unknown preset {preset_name!r}; expected none, standard or full")
    overrides = {
        key: _as_bool(settings, key)
        for key in ("lowercase", "remove_noise", "remove_stopwords", "stem")
        if settings.get(key) is not None
    }
    if settings.get("min_token_len") is not None:
        overrides["min_token_len"] = _as_int(settings, "min_token_len")
    config = dataclasses.replace(PRESETS[preset_name], **overrides)

    if settings.get("stopword_file"):
        stopwords = load_stopword_file(_existing_path(settings["stopword_file"], "stopword file"))
    else:
        stopwords = ENGLISH_STOPWORDS
    return config, stopwords


def _build_params(settings: dict) -> BM25Params:
    kwargs = {}
    for key in ("k1", "b", "epsilon", "delta"):
        if settings.get(key) is not None:
            kwargs[key] = _as_float(settings, key)
    return BM25Params(**kwargs)


def _parse_ks(settings: dict) -> tuple[int, ...]:
    raw = settings.get("k")
    if raw in (None, ""):
        return DEFAULT_KS
    try:
        ks = tuple(int(part) for part in str(raw).split(","))
    except ValueError:
        raise ValueError(f"cutoff list must be comma-separated integers, got {raw!r}") from None
    return ks


def _build_searcher(settings: dict, scorers: list[str], index_path: Path) -> Searcher:
    index = load_index(index_path)
    config, stopwords = _build_pipeline(settings)
    params = _build_params(settings)
    embeddings = None
    if "embed" in scorers:
        path = _existing_path(
            _require(settings, "embeddings", "--embeddings"), "embedding sidecar"
        )
        embeddings = load_embeddings(path)
    corpus_texts = None
    if "rake_tfidf" in scorers:
        corpus_dir = _existing_path(
            _require(settings, "corpus", "--corpus"), "corpus directory"
        )
        corpus_texts = dict(read_corpus_dir(corpus_dir))
    return Searcher(
        index,
        config=config,
        stopwords=stopwords,
        params=params,
        embeddings=embeddings,
        corpus_texts=corpus_texts,
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_index(settings: dict) -> int:
    corpus_dir = _existing_path(_require(settings, "corpus", "--corpus"), "corpus directory")
    out = _require(settings, "out", "--out")
    config, stopwords = _build_pipeline(settings)
    doc_ids, texts = zip(*read_corpus_dir(corpus_dir))
    tokenized = zip(doc_ids, tokenize_corpus(texts, config, stopwords))
    index = build_index(tokenized, pipeline_fingerprint(config, stopwords))
    persist_index(index, out)
    print(f"indexed {index.n_docs} documents, {len(index.terms)} terms -> {out}")
    return 0


def cmd_search(settings: dict) -> int:
    index_path = _existing_path(_require(settings, "index", "--index"), "index file")
    queries_path = _existing_path(_require(settings, "queries", "--queries"), "queries file")
    scorer = _require(settings, "scorer", "--scorer")
    if scorer not in SCORER_NAMES:
        raise ValueError(f"unknown scorer {scorer!r}; expected one of {', '.join(SCORER_NAMES)}")
    out = _require(settings, "out", "--out")
    top_n = _as_int(settings, "top_n") if settings.get("top_n") is not None else DEFAULT_TOP_N
    workers = _as_int(settings, "workers") if settings.get("workers") is not None else 1
    tag = settings.get("tag") or scorer

    searcher = _build_searcher(settings, [scorer], index_path)
    queries = read_queries_file(queries_path)
    run = searcher.search_all(queries, scorer, top_n=top_n, workers=workers)
    write_run(run, out, tag)
    print(f"ranked {len(run)} queries with {scorer} -> {out}")
    # queries that normalize to no tokens, or to none in the index
    unmatched = sum(
        not any(t in searcher.index.term_ids
                for t in tokenize_normalize(text, searcher.config, searcher.stopwords))
        for _qid, text in queries
    )
    if unmatched:
        print(f"warning: {unmatched} of {len(queries)} queries have no in-vocabulary "
              "terms after normalization; lexical scorers rank every document at 0 "
              "for them", file=sys.stderr)
    return 0


def cmd_eval(settings: dict) -> int:
    run_path = _existing_path(_require(settings, "run", "--run"), "run file")
    qrels_path = _existing_path(_require(settings, "qrels", "--qrels"), "qrels file")
    ks = _parse_ks(settings)
    f1_mode = str(settings.get("f1_mode") or "per_query")
    per_query = settings.get("per_query") or False
    if isinstance(per_query, str):
        per_query = _as_bool(settings, "per_query")
    run = load_run(run_path)
    qrels = load_qrels(qrels_path)
    report = evaluate_run(run, qrels, ks, f1_mode=f1_mode)
    print(format_report(report, per_query=per_query))
    return 0


def _rank_buckets(run: dict, qrels: dict, top_n: int, width: int = 10) -> list[tuple[str, int]]:
    """Count relevant documents by retrieval-rank bucket across queries."""
    counts = [0] * ((top_n + width - 1) // width)
    for qid, ranking in run.items():
        relevant = qrels.get(qid, set())
        for position, (doc_id, _score) in enumerate(ranking, start=1):
            if doc_id in relevant:
                counts[(position - 1) // width] += 1
    return [
        (f"{i * width + 1}-{min((i + 1) * width, top_n)}", count)
        for i, count in enumerate(counts)
    ]


def cmd_compare(settings: dict) -> int:
    index_path = _existing_path(_require(settings, "index", "--index"), "index file")
    queries_path = _existing_path(_require(settings, "queries", "--queries"), "queries file")
    qrels_path = _existing_path(_require(settings, "qrels", "--qrels"), "qrels file")
    scorers = [s.strip() for s in str(settings.get("scorers") or DEFAULT_COMPARE_SCORERS).split(",") if s.strip()]
    if not scorers:
        raise ValueError("no scorers given: --scorers needs at least one name")
    unknown = [s for s in scorers if s not in SCORER_NAMES]
    if unknown:
        raise ValueError(f"unknown scorers: {', '.join(unknown)}")
    top_n = _as_int(settings, "top_n") if settings.get("top_n") is not None else DEFAULT_TOP_N
    workers = _as_int(settings, "workers") if settings.get("workers") is not None else 1

    searcher = _build_searcher(settings, scorers, index_path)
    queries = read_queries_file(queries_path)
    qrels = load_qrels(qrels_path)

    results = []
    for scorer in scorers:
        run = searcher.search_all(queries, scorer, top_n=top_n, workers=workers)
        report = evaluate_run(run, qrels, ks=(10,))
        results.append(
            (
                scorer,
                report.mean_precision.get(10, 0.0),
                report.mean_recall.get(10, 0.0),
                report.mean_f1.get(10, 0.0),
                report.mrr,
                _rank_buckets(run, qrels, top_n),
            )
        )
    results.sort(key=lambda row: (-row[1], row[0]))

    print(f"{'method':<20}{'P@10':>10}{'R@10':>10}{'F1@10':>10}{'MRR':>10}")
    for scorer, p10, r10, f1, mrr, _buckets in results:
        print(f"{scorer:<20}{p10:>10.4f}{r10:>10.4f}{f1:>10.4f}{mrr:>10.4f}")
    print()
    print("relevant documents found, by rank bucket:")
    for scorer, _p, _r, _f, _m, buckets in results:
        parts = "  ".join(f"{label}: {count}" for label, count in buckets)
        print(f"  {scorer:<18}{parts}")
    return 0


_COMMANDS: dict[str, Callable[[dict], int]] = {
    "index": cmd_index,
    "search": cmd_search,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=["none", "standard", "full"],
                        help="normalization preset (default: standard)")
    parser.add_argument("--stopwords", dest="stopword_file", metavar="FILE",
                        help="override the bundled stopword list")
    parser.add_argument("--min-token-len", dest="min_token_len", type=int, metavar="N",
                        help="drop tokens shorter than N during noise removal")


def _add_ranking_flags(parser: argparse.ArgumentParser) -> None:
    """The flags `search` and `compare` share: one place, so they cannot drift."""
    parser.add_argument("--index", metavar="FILE")
    parser.add_argument("--queries", metavar="FILE", help="query_id<TAB>query_text lines")
    parser.add_argument("--top", dest="top_n", type=int, metavar="N",
                        help=f"results per query (default {DEFAULT_TOP_N})")
    parser.add_argument("--corpus", metavar="DIR", help="the indexed raw corpus (rake_tfidf "
                        "only; its ids are checked against the index, its text is not)")
    parser.add_argument("--embeddings", metavar="FILE", help="embedding sidecar (embed only)")
    parser.add_argument("--workers", type=int, help="parallel query scoring threads")
    _add_pipeline_flags(parser)
    parser.add_argument("--k1", type=float, help="BM25 k1 (default 1.5)")
    parser.add_argument("--b", type=float, help="BM25 b (default 0.75)")
    parser.add_argument("--epsilon", type=float, help="Okapi negative-IDF floor factor (default 0.25)")
    parser.add_argument("--delta", type=float, help="BM25L/BM25+ delta (defaults 0.5/1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priorcase",
        description="Lexical prior-case retrieval and evaluation",
    )
    parser.add_argument("--config", metavar="FILE", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and persist a corpus index")
    p.add_argument("--corpus", metavar="DIR", help="directory of UTF-8 text files")
    p.add_argument("--out", metavar="FILE", help="where to write the index")
    _add_pipeline_flags(p)

    p = sub.add_parser("search", help="rank all queries and write a run file")
    _add_ranking_flags(p)
    p.add_argument("--scorer", choices=list(SCORER_NAMES))
    p.add_argument("--out", metavar="RUN")
    p.add_argument("--tag", help="run tag (default: scorer name)")

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", metavar="RUN")
    p.add_argument("--qrels", metavar="FILE")
    p.add_argument("--k", metavar="LIST", help="cutoffs, e.g. 1,3,5,10")
    p.add_argument("--per-query", dest="per_query", action="store_true", default=None,
                   help="also print one row per query")
    p.add_argument("--f1-mode", dest="f1_mode", choices=["per_query", "pooled"],
                   help="aggregate F1 as mean of per-query F1 (default) or "
                        "harmonic mean of mean P and mean R")

    p = sub.add_parser("compare", help="run several scorers and tabulate quality")
    _add_ranking_flags(p)
    p.add_argument("--qrels", metavar="FILE")
    p.add_argument("--scorers", metavar="LIST",
                   help=f"comma-separated scorer names (default {DEFAULT_COMPARE_SCORERS})")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    settings: dict = {}
    try:
        if args.config:
            settings.update(load_config_file(_existing_path(args.config, "config file")))
        for key, value in vars(args).items():
            if key in ("config", "command") or value is None:
                continue
            settings[key] = value
        return _COMMANDS[args.command](settings)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
