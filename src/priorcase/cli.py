"""Command-line interface: index, search, eval, compare.

Every option comes from a flag or a `key = value` configuration file
(see docs/file_formats.md); a flag wins.  Either is text, converted and
checked in one place, so a bad or empty value (`k =`), or a text input
that is not UTF-8, gives one `error:` line and exit 1; argparse exits 2
only for an unknown flag, a flag with no value, or no command.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from pathlib import Path
from typing import Callable

from .embeddings import load_embeddings
from .evaluation import (
    DEFAULT_KS,
    check_run_tag,
    evaluate_run,
    format_report,
    load_qrels,
    load_run,
    write_run,
)
from .index import (
    build_index,
    load_index,
    number_text,
    persist_index,
    read_corpus_dir,
    read_queries_file,
    read_text,
)
from .rankers import BM25Params, SCORER_NAMES, Searcher, check_ranking_options, check_scorers
from .stopwords import ENGLISH_STOPWORDS, load_stopword_file
from .textproc import PRESETS, PipelineConfig, pipeline_fingerprint, tokenize_corpus

DEFAULT_TOP_N = 100
DEFAULT_COMPARE_SCORERS = "fused,tfidf_cos,bm25,commonwords_bm25"

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# '#' opens a comment at line start or after whitespace, so values such
# as `corpus = /data/case#1` keep their '#'.
_COMMENT_RE = re.compile(r"(?:^|\s)#")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a `key = value` configuration file ('#' starts a comment)."""
    settings: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = _COMMENT_RE.split(line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


def _as_bool(settings: dict, key: str) -> bool:
    raw = settings[key].lower()
    if raw not in _BOOL_VALUES:
        raise ValueError(f"setting {key!r} must be true/false, got {settings[key]!r}")
    return _BOOL_VALUES[raw]


def _as_number(settings: dict, key: str, kind: type = float, default=None):
    """`settings[key]` as `kind` (int or float), or `default` when it is unset."""
    if settings.get(key) is None:
        return default
    try:
        return kind(number_text(settings[key]))
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"setting {key!r} must be {noun}, got {settings[key]!r}") from None


def _require(settings: dict, key: str, flag: str) -> str:
    if key not in settings:
        raise ValueError(f"missing required setting {key!r} (flag {flag})")
    return settings[key]


def _existing_path(raw: str, kind: str) -> Path:
    path = Path(raw)
    if not path.exists():
        raise ValueError(f"{kind} not found: {path}")
    return path


def _build_pipeline(settings: dict) -> tuple[PipelineConfig, frozenset[str]]:
    preset_name = settings.get("preset", "standard").lower()
    if preset_name not in PRESETS:
        raise ValueError(f"unknown preset {preset_name!r}; expected none, standard or full")
    overrides = {
        f.name: _as_bool(settings, f.name) if isinstance(f.default, bool)
        else _as_number(settings, f.name, int)
        for f in dataclasses.fields(PipelineConfig)
        if settings.get(f.name) is not None
    }
    config = dataclasses.replace(PRESETS[preset_name], **overrides)

    if "stopword_file" in settings:
        stopwords = load_stopword_file(_existing_path(settings["stopword_file"], "stopword file"))
    else:
        stopwords = ENGLISH_STOPWORDS
    return config, stopwords


def _build_params(settings: dict) -> BM25Params:
    values = {key: _as_number(settings, key) for key in ("k1", "b", "epsilon", "delta")}
    return BM25Params(**{key: value for key, value in values.items() if value is not None})


def _parse_ks(settings: dict) -> tuple[int, ...]:
    raw = settings.get("k")
    if raw is None:
        return DEFAULT_KS
    try:
        return tuple(int(number_text(part)) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"cutoff list must be comma-separated integers, got {raw!r}") from None


def _build_searcher(settings: dict, scorers: list[str], index_path: Path) -> Searcher:
    """Every cheap setting is checked before the index loads."""
    config, stopwords = _build_pipeline(settings)
    params = _build_params(settings)
    sidecar = corpus_dir = None
    if "embed" in scorers:
        sidecar = _existing_path(
            _require(settings, "embeddings", "--embeddings"), "embedding sidecar"
        )
    if "rake_tfidf" in scorers:
        corpus_dir = _existing_path(
            _require(settings, "corpus", "--corpus"), "corpus directory"
        )
    index = load_index(index_path)
    return Searcher(
        index,
        config=config,
        stopwords=stopwords,
        params=params,
        embeddings=load_embeddings(sidecar) if sidecar else None,
        corpus_texts=dict(read_corpus_dir(corpus_dir)) if corpus_dir else None,
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


def _rank_all(settings: dict, scorers: list[str]) -> tuple[dict, int]:
    """Rank every query under each scorer, each tokenized once, and count the
    queries with no token in the index: the half `search` and `compare` share."""
    index_path = _existing_path(_require(settings, "index", "--index"), "index file")
    queries_path = _existing_path(_require(settings, "queries", "--queries"), "queries file")
    check_scorers(scorers)
    for i, scorer in enumerate(scorers):
        if scorer in scorers[:i]:
            raise ValueError(f"scorer {scorer} is given more than once")
    top_n = _as_number(settings, "top_n", int, DEFAULT_TOP_N)
    workers = _as_number(settings, "workers", int, 1)
    check_ranking_options(top_n, workers)

    queries = read_queries_file(queries_path)
    searcher = _build_searcher(settings, scorers, index_path)
    tokens = tokenize_corpus([text for _qid, text in queries], searcher.config, searcher.stopwords)
    unmatched = sum(searcher.index.term_ids.keys().isdisjoint(stream) for stream in tokens)
    return {s: searcher._rank(queries, tokens, s, top_n, workers) for s in scorers}, unmatched


def cmd_search(settings: dict) -> int:
    scorer = _require(settings, "scorer", "--scorer")
    out = _require(settings, "out", "--out")
    if "tag" in settings:  # the default, the scorer's name, is checked as a scorer
        check_run_tag(settings["tag"])
    runs, unmatched = _rank_all(settings, [scorer])
    write_run(runs[scorer], out, settings.get("tag", scorer))
    print(f"ranked {len(runs[scorer])} queries with {scorer} -> {out}")
    if unmatched:
        print(f"warning: {unmatched} of {len(runs[scorer])} queries have no in-vocabulary "
              "terms after normalization; lexical scorers rank every document at 0 "
              "for them", file=sys.stderr)
    return 0


def cmd_eval(settings: dict) -> int:
    run_path = _existing_path(_require(settings, "run", "--run"), "run file")
    qrels_path = _existing_path(_require(settings, "qrels", "--qrels"), "qrels file")
    ks = _parse_ks(settings)
    f1_mode = settings.get("f1_mode", "per_query")
    per_query = "per_query" in settings and _as_bool(settings, "per_query")
    run = load_run(run_path)
    qrels = load_qrels(qrels_path)
    report = evaluate_run(run, qrels, ks, f1_mode=f1_mode)
    print(format_report(report, per_query=per_query))
    return 0


def _rank_buckets(run: dict, qrels: dict) -> list[tuple[str, int]]:
    """Count relevant documents in buckets of ten ranks, up to the longest ranking."""
    longest = max(map(len, run.values()), default=0)
    counts = [0] * ((longest + 9) // 10)
    for qid, ranking in run.items():
        relevant = qrels.get(qid, set())
        for position, (doc_id, _score) in enumerate(ranking):
            if doc_id in relevant:
                counts[position // 10] += 1
    return [(f"{i * 10 + 1}-{min(i * 10 + 10, longest)}", count) for i, count in enumerate(counts)]


def cmd_compare(settings: dict) -> int:
    scorers = [s.strip() for s in settings.get("scorers", DEFAULT_COMPARE_SCORERS).split(",") if s.strip()]
    if not scorers:
        raise ValueError("no scorers given: --scorers needs at least one name")
    qrels = load_qrels(_existing_path(_require(settings, "qrels", "--qrels"), "qrels file"))
    runs, _unmatched = _rank_all(settings, scorers)
    reports = {scorer: evaluate_run(run, qrels, ks=(10,)) for scorer, run in runs.items()}
    order = sorted(reports, key=lambda name: (-reports[name].mean_precision.get(10, 0.0), name))

    print(f"{'method':<20}{'P@10':>10}{'R@10':>10}{'F1@10':>10}{'MRR':>10}")
    for scorer in order:
        r = reports[scorer]
        print(f"{scorer:<20}{r.mean_precision.get(10, 0.0):>10.4f}"
              f"{r.mean_recall.get(10, 0.0):>10.4f}{r.mean_f1.get(10, 0.0):>10.4f}{r.mrr:>10.4f}")
    print()
    print("relevant documents found, by rank bucket:")
    for scorer in order:
        buckets = _rank_buckets(runs[scorer], qrels)
        print(f"  {scorer:<18}" + "  ".join(f"{label}: {count}" for label, count in buckets))
    return 0


_COMMANDS: dict[str, Callable[[dict], int]] = {
    "index": cmd_index,
    "search": cmd_search,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help=f"normalization preset: {', '.join(PRESETS)} (default: standard)")
    parser.add_argument("--stopwords", dest="stopword_file", metavar="FILE",
                        help="override the bundled stopword list")
    parser.add_argument("--min-token-len", dest="min_token_len", metavar="N",
                        help="drop tokens shorter than N during noise removal")


def _add_ranking_flags(parser: argparse.ArgumentParser) -> None:
    """The flags `search` and `compare` share: one place, so they cannot drift."""
    parser.add_argument("--index", metavar="FILE")
    parser.add_argument("--queries", metavar="FILE", help="query_id<TAB>query_text lines")
    parser.add_argument("--top", dest="top_n", metavar="N",
                        help=f"results per query (default {DEFAULT_TOP_N})")
    parser.add_argument("--corpus", metavar="DIR", help="the indexed raw corpus (rake_tfidf "
                        "only; its ids are checked against the index, its text is not)")
    parser.add_argument("--embeddings", metavar="FILE", help="embedding sidecar (embed only)")
    parser.add_argument("--workers", help="parallel query scoring threads")
    _add_pipeline_flags(parser)
    parser.add_argument("--k1", help="BM25 k1 (default 1.5)")
    parser.add_argument("--b", help="BM25 b (default 0.75)")
    parser.add_argument("--epsilon", help="Okapi negative-IDF floor factor (default 0.25)")
    parser.add_argument("--delta", help="BM25L/BM25+ delta (defaults 0.5/1.0)")


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
    p.add_argument("--scorer", help=f"one of {', '.join(SCORER_NAMES)}")
    p.add_argument("--out", metavar="RUN")
    p.add_argument("--tag", help="run tag (default: scorer name)")

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", metavar="RUN")
    p.add_argument("--qrels", metavar="FILE")
    p.add_argument("--k", metavar="LIST", help="cutoffs, e.g. 1,3,5,10")
    p.add_argument("--per-query", dest="per_query", action="store_const", const="true",
                   help="also print one row per query")
    p.add_argument("--f1-mode", dest="f1_mode", help="per_query: mean of per-query F1 "
                   "(default); pooled: harmonic mean of mean P and mean R")

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
            # every command's settings are known, so one file serves them all
            known = {key for name in _COMMANDS for key in vars(parser.parse_args([name]))}
            known = (known - {"config", "command"}).union(
                f.name for f in dataclasses.fields(PipelineConfig))
            for key in settings:
                if key not in known:
                    raise ValueError(f"{args.config}: unknown setting {key!r}")
        for key, value in vars(args).items():
            if key in ("config", "command") or value is None:
                continue
            settings[key] = value
        for key, value in settings.items():
            if not value:
                raise ValueError(f"setting {key!r} has no value")
        code = _COMMANDS[args.command](settings)
        sys.stdout.flush()  # a reader that has gone is seen here, not in the flush at exit
        return code
    except BrokenPipeError:  # stdout's reader left: devnull takes the rest (Python's recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1

