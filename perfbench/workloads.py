"""The three workloads: set-up, timed phase, output checks, layer timings.

Every workload is closed-loop with one client: the next request is sent
only after the previous one returned.  A request is a one-query
`Searcher.search_all` call on `desk-short` and `legal-long`, and one
in-process `priorcase index` command on `ingest`.

The untraced run (`trace=False`) produces the end-to-end metrics.  The
traced run repeats the timed phase with spans around every call into a
layer's public functions, times a few layer functions on their own
(porter_stem, rank_documents, RAKE extraction, chunk aggregation,
loading under tracemalloc) and produces the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from priorcase.cli import main as cli_main
from priorcase.embeddings import aggregate_chunk_similarity, load_embeddings
from priorcase.evaluation import evaluate_run, load_qrels, load_run, write_run
from priorcase.index import build_index, load_index, persist_index, read_corpus_dir, read_queries_file
from priorcase.porter import porter_stem
from priorcase.rake import default_keyword_count, rake_extract
from priorcase.rankers import Searcher, build_rake_vocabulary, rank_documents
from priorcase.stopwords import ENGLISH_STOPWORDS
from priorcase.textproc import (
    PRESET_FULL,
    PRESET_STANDARD,
    pipeline_fingerprint,
    split_tokens,
    tokenize_normalize,
)

import gen
from spans import Tracer

DESK_SCORERS = ("tfidf_cos", "bm25", "bm25_okapi", "bm25l", "bm25plus", "fused", "commonwords_bm25")
LEGAL_SCORERS = ("fused", "bm25", "tfidf_cos", "rake_tfidf", "embed")
TOP_N = 100
SETUP_REPEATS = 3
# Enough samples beyond a tail percentile to say something about it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Scale:
    desk_docs: int
    desk_queries: int
    legal_docs: int
    legal_queries: int
    ingest_docs: int
    warmup_docs: int


SCALES = {
    "full": Scale(desk_docs=3000, desk_queries=50, legal_docs=1000, legal_queries=40,
                  ingest_docs=100, warmup_docs=100),
    "smoke": Scale(desk_docs=200, desk_queries=10, legal_docs=60, legal_queries=6,
                   ingest_docs=30, warmup_docs=5),
}


@dataclass
class Metric:
    value: float | None
    unit: str
    note: str = ""


@dataclass
class Run:
    """One benchmark invocation: its settings, counts and results."""

    workload: str
    seed: int
    seconds: float
    scale: Scale
    tracer: Tracer
    work: Path
    expected: dict[str, str]
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    observed: dict[str, str] = field(default_factory=dict)
    report: dict[str, Metric] = field(default_factory=dict)
    gate: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    facts: dict[str, object] = field(default_factory=dict)
    samples: dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def expect_digest(self, key: str, digest: str, required: bool = True) -> None:
        """Compare an output digest with the one recorded for this seed."""
        self.observed[key] = digest
        want = self.expected.get(key)
        if want is None:
            if required and self.expected:
                self.check(False, f"no recorded digest for {key}")
            return
        self.check(digest == want, f"{key}: digest {digest[:12]} != recorded {want[:12]}")

    def attempt(self, what: str, fn: Callable[[], object]) -> tuple[bool, object]:
        """Run one request; an exception counts as a failed request."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # a failing request must not stop the run
            self.failed += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return False, None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(argv: list[str]) -> None:
    """Run one in-process CLI command with its stdout captured; raise if it fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"priorcase {argv[0]} exited {code}")


def tail_percentile(samples_per_pass: int) -> int:
    """Highest whole percentile with >= TAIL_BEYOND samples beyond it."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / samples_per_pass)))


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak RSS in MB (10**6 bytes); Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def heap_mb_of_load(path: Path) -> float:
    """Python heap retained by one `load_index` call (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        index = load_index(path)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del index
    return retained / 1e6


def index_shape(run: Run, index, path: Path) -> None:
    postings = sum(index.df.values())
    run.layers["index.terms"] = Metric(len(index.postings), "count")
    run.layers["index.postings"] = Metric(postings, "count")
    run.layers["index.bytes_per_posting"] = Metric(path.stat().st_size / postings, "B")


# ---------------------------------------------------------------------------
# output checks shared by every workload

def check_metric_fixture(run: Run, data_dir: Path) -> None:
    """Reproduce data/synthetic/expected_metrics.json through the CLI."""
    synthetic = data_dir / "synthetic"
    expected = json.loads((synthetic / "expected_metrics.json").read_text())
    out = run.work / "fixture"
    out.mkdir(exist_ok=True)
    ok, _ = run.attempt("fixture: index", lambda: cli(
        ["index", "--corpus", str(synthetic / "corpus"), "--out", str(out / "s.idx")]))
    ok = ok and run.attempt("fixture: search", lambda: cli(
        ["search", "--index", str(out / "s.idx"), "--queries", str(synthetic / "queries.tsv"),
         "--scorer", expected["scorer"], "--out", str(out / "s.run"),
         "--top", str(expected["top_n"])]))[0]
    if not ok:
        return
    ranked = load_run(out / "s.run")
    for qid, ids in expected["rankings"].items():
        got = [d for d, _ in ranked.get(qid, [])]
        run.check(got == ids, f"fixture: ranking of {qid}")
    report = evaluate_run(ranked, load_qrels(synthetic / "qrels.txt"), ks=expected["ks"])
    run.check(report.skipped == expected["skipped"], "fixture: skipped queries")
    for qid, exp in expected["per_query"].items():
        q = report.queries.get(qid)
        ok = q is not None and q.reciprocal_rank == exp["rr"] and all(
            q.precision[k] == exp["precision"][str(k)]
            and q.recall[k] == exp["recall"][str(k)]
            and q.f1[k] == exp["f1"][str(k)]
            for k in expected["ks"]
        )
        run.check(ok, f"fixture: metrics of {qid}")
    mean = expected["mean"]
    run.check(
        report.mrr == mean["mrr"] and all(
            report.mean_precision[k] == mean["precision"][str(k)]
            and report.mean_recall[k] == mean["recall"][str(k)]
            and report.mean_f1[k] == mean["f1"][str(k)]
            for k in expected["ks"]
        ),
        "fixture: mean metrics",
    )


# ---------------------------------------------------------------------------
# search workloads (desk-short, legal-long)

@dataclass
class SearchSetup:
    searcher: Searcher
    index_path: Path
    warm_query: tuple[str, str]


@dataclass
class Passes:
    """Samples of the timed phase, accumulated over one or more segments."""

    scorers: tuple[str, ...]
    order_rng: random.Random
    n: int = 0
    wall_s: float = 0.0
    latencies: dict[str, list[float]] = field(default_factory=dict)
    by_query: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def latency_ms(self) -> float:
        """Geometric mean over scorers of each scorer's median latency.

        Unlike the median over all samples, it does not jump between the
        scorers' latency clusters, and it weighs every scorer alike.
        """
        logs = [math.log(statistics.median(self.latencies[s])) for s in self.scorers]
        return math.exp(statistics.fmean(logs)) * 1000


def run_passes(run: Run, setup: SearchSetup, passes: Passes, queries: list[tuple[str, str]],
               qrels: dict[str, set[str]], until_s: float,
               n_passes: int | None = None) -> None:
    """Whole passes over every (scorer, query), closed loop.

    Runs `n_passes` passes, or as many as it takes until the timed phase
    of `passes`, summed over every call, reaches `until_s`; at least one.
    Each scorer's pass ends in write_run -> load_run -> evaluate_run, and
    its run file must not change from one pass to the next.  The query
    order of each pass is a permutation drawn from the seed.
    """
    tracer = run.tracer
    searcher = setup.searcher
    gc.collect()
    started = time.perf_counter()
    done = 0

    def more() -> bool:
        if n_passes is not None:
            return done < n_passes
        return done == 0 or passes.wall_s + time.perf_counter() - started < until_s

    with tracer.span("bench.workload", run.workload):
        while more():
            order = list(queries)
            passes.order_rng.shuffle(order)
            with tracer.span("bench.pass", f"pass{passes.n}"):
                for scorer in passes.scorers:
                    ranked: dict = {}
                    for item in order:
                        with tracer.span("bench.query", item[0]):
                            with tracer.span(f"rankers.search_all/{scorer}", item[0]):
                                t0 = time.perf_counter()
                                ok, result = run.attempt(
                                    f"{scorer} {item[0]}",
                                    lambda: searcher.search_all([item], scorer, top_n=TOP_N),
                                )
                                elapsed = time.perf_counter() - t0
                        if ok:
                            ranked.update(result)
                            passes.latencies.setdefault(scorer, []).append(elapsed)
                            passes.by_query.setdefault((scorer, item[0]), []).append(elapsed)
                    path = run.work / f"{scorer}.run"
                    with tracer.span("evaluation.write_run", scorer):
                        write_run(ranked, path, scorer)
                    with tracer.span("evaluation.load_run", scorer):
                        loaded = load_run(path)
                    with tracer.span("evaluation.evaluate_run", scorer):
                        evaluate_run(loaded, qrels, ks=(10,))
                    digest = sha256_file(path)
                    if scorer in passes.digests:
                        run.check(digest == passes.digests[scorer],
                                  f"run/{scorer} changed between passes")
                    else:
                        passes.digests[scorer] = digest
                        run.expect_digest(f"run/{scorer}", digest)
            passes.n += 1
            done += 1
    passes.wall_s += time.perf_counter() - started


def warm_up(run: Run, searcher: Searcher, query: tuple[str, str], scorers) -> None:
    for scorer in scorers:
        with run.tracer.span(f"rankers.warmup/{scorer}", query[0]):
            searcher.search_all([query], scorer, top_n=TOP_N)


def cold_search(run: Run, index_path: Path, queries_path: Path) -> tuple[float, Path]:
    """One in-process `priorcase search --scorer fused`, timed whole."""
    out = run.work / "cold.run"
    argv = ["search", "--index", str(index_path), "--queries", str(queries_path),
            "--scorer", "fused", "--out", str(out), "--top", str(TOP_N)]
    gc.collect()
    with run.tracer.span("cli.search", "fused"):
        t0 = time.perf_counter()
        run.attempt("cold search", lambda: cli(argv))
        elapsed = time.perf_counter() - t0
    return elapsed, out


def search_report(run: Run, setup_times: list[float], passes: Passes, n_queries: int,
                  scorers, cold_s: float, index_path: Path) -> None:
    samples = [x for s in scorers for x in passes.latencies[s]]
    per_pass = n_queries * len(scorers)
    pct = tail_percentile(per_pass)
    rankings = sum(len(passes.latencies[s]) for s in scorers)
    p50_ms = statistics.median(samples) * 1000
    qps = rankings / passes.wall_s
    run.report["setup_s"] = Metric(statistics.median(setup_times), "s",
                                   f"median of {len(setup_times)} set-ups")
    run.report["query_p50_ms"] = Metric(p50_ms, "ms", f"{len(samples)} samples")
    run.report["query_tail_ms"] = Metric(
        percentile(samples, pct) * 1000, "ms",
        f"p{pct} of {len(samples)} samples ({per_pass} per pass, {passes.n} passes)")
    run.report["queries_per_s"] = Metric(qps, "1/s", "incl. write/load/evaluate per pass")
    run.report["cold_search_s"] = Metric(cold_s, "s", "priorcase search --scorer fused")
    run.report["ingest_docs_per_s"] = Metric(None, "docs/s", "no priorcase index on this workload")
    run.report["index_mb"] = Metric(index_path.stat().st_size / 1e6, "MB")
    run.samples = {"latency_s": passes.latencies}
    run.gate["latency_p50_ms"] = Metric(passes.latency_ms(), "ms")
    run.gate["throughput_per_s"] = Metric(qps, "1/s")


def rankers_layers(run: Run, setup: SearchSetup, passes: Passes, queries, scorers) -> None:
    """Per-scorer latency from the traced passes plus rankers micro-timings."""
    tracer = run.tracer
    searcher = setup.searcher
    index = searcher.index
    n_queries = len(queries)
    pct = tail_percentile(n_queries)
    for scorer in scorers:
        times = tracer.durations(f"rankers.search_all/{scorer}")
        run.layers[f"rankers.score_p50_ms.{scorer}"] = Metric(statistics.median(times) * 1000, "ms")
        run.layers[f"rankers.score_tail_ms.{scorer}"] = Metric(
            percentile(times, pct) * 1000, "ms", f"p{pct} of {len(times)}")
        first = tracer.durations(f"rankers.warmup/{scorer}")[-1]
        steady = statistics.median(passes.by_query[(scorer, setup.warm_query[0])])
        run.layers[f"rankers.warmup_ms.{scorer}"] = Metric((first - steady) * 1000, "ms")
    run.layers["rankers.searcher_init_ms"] = Metric(
        tracer.durations("rankers.Searcher")[0] * 1000, "ms")

    postings = {}
    for qid, text in queries:
        tokens = set(tokenize_normalize(text, PRESET_STANDARD))
        postings[qid] = sum(index.df.get(t, 0) for t in tokens)
    run.layers["rankers.postings_per_query"] = Metric(statistics.mean(postings.values()), "count")
    if "bm25" in scorers:
        per = [statistics.median(passes.by_query[("bm25", qid)]) / postings[qid] * 1e9
               for qid, _ in queries if postings[qid]]
        run.layers["rankers.ns_per_posting.bm25"] = Metric(statistics.median(per), "ns")

    shares = []
    for qid, text in queries:
        ranking = searcher.score("bm25", tokenize_normalize(text, PRESET_STANDARD))
        shares.append(sum(1 for _d, s in ranking if s != 0.0) / index.n_docs)
    run.layers["rankers.nonzero_share"] = Metric(statistics.mean(shares), "ratio")

    scores = dict(searcher.score("bm25", tokenize_normalize(setup.warm_query[1], PRESET_STANDARD)))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        rank_documents(scores, index.doc_len)
        times.append(time.perf_counter() - t0)
    run.layers["rankers.rank_documents_ms"] = Metric(statistics.median(times) * 1000, "ms")


def evaluation_layers(run: Run) -> None:
    for name, key in (("write_run", "evaluation.write_run_ms"),
                      ("load_run", "evaluation.load_run_ms"),
                      ("evaluate_run", "evaluation.evaluate_ms")):
        times = run.tracer.durations(f"evaluation.{name}")
        run.layers[key] = Metric(statistics.median(times) * 1000, "ms")


def textproc_layers(run: Run, texts: list[str], config) -> None:
    """Tokenize timing per input token, and tokens kept / tokens in."""
    tokens_in = sum(len(split_tokens(t)) for t in texts)
    kept = 0
    busy = 0.0
    reps = 0
    while busy < 0.2 or reps == 0:
        t0 = time.perf_counter()
        kept = sum(len(tokenize_normalize(t, config)) for t in texts)
        busy += time.perf_counter() - t0
        reps += 1
    run.layers["textproc.tokenize_us_per_token"] = Metric(busy / (reps * tokens_in) * 1e6, "us")
    run.layers["textproc.kept_ratio"] = Metric(kept / tokens_in, "ratio")


def textproc_from_spans(run: Run, docs: list[tuple[str, str]], index) -> None:
    """Tokenize time per input token and tokens kept / in, from set-up spans."""
    tokens_in = sum(len(split_tokens(text)) for _d, text in docs)
    busy = sum(run.tracer.durations("textproc.tokenize_normalize")[:len(docs)])
    run.layers["textproc.tokenize_us_per_token"] = Metric(busy / tokens_in * 1e6, "us")
    run.layers["textproc.kept_ratio"] = Metric(sum(index.doc_len.values()) / tokens_in, "ratio")


def cli_search_layers(run: Run, setup: SearchSetup, queries_path: Path, cli_s: float) -> None:
    """The search command's layer calls, timed one by one on its inputs."""
    tracer = run.tracer
    gc.collect()
    t0 = time.perf_counter()
    with tracer.span("index.load_index", "cli"):
        index = load_index(setup.index_path)
    with tracer.span("rankers.Searcher", "cli"):
        searcher = Searcher(index, config=PRESET_STANDARD)
    with tracer.span("index.read_queries_file", "cli"):
        queries = read_queries_file(queries_path)
    with tracer.span("rankers.search_all", "cli"):
        ranked = searcher.search_all(queries, "fused", top_n=TOP_N)
    with tracer.span("evaluation.write_run", "cli"):
        write_run(ranked, run.work / "glue.run", "fused")
    layers = time.perf_counter() - t0
    run.layers["cli.search_s"] = Metric(cli_s, "s")
    run.layers["cli.command_s"] = Metric(cli_s, "s", "priorcase search --scorer fused")
    run.layers["cli.glue_share"] = Metric((cli_s - layers) / cli_s, "ratio")


def search_workload(run: Run, scorers: tuple[str, ...], queries: list[tuple[str, str]],
                    qrels: dict[str, set[str]], queries_path: Path,
                    make_setup: Callable[[], SearchSetup],
                    extra_layers: Callable[[SearchSetup], None]) -> None:
    """Shared flow of desk-short and legal-long."""
    tracer = run.tracer
    passes = Passes(scorers, random.Random(run.seed))
    setup_times = []
    if tracer.enabled:
        setup = make_setup()
        # The same passes with spans off and on, alternating which goes
        # first: the difference is what the tracing costs.
        plain = Passes(scorers, random.Random(run.seed))
        untraced = Tracer(enabled=False)
        while not plain.n or plain.wall_s + passes.wall_s < run.seconds:
            pair = ((untraced, plain), (tracer, passes))
            for segment_tracer, samples in pair if plain.n % 2 == 0 else pair[::-1]:
                run.tracer = segment_tracer
                run_passes(run, setup, samples, queries, qrels, 0, n_passes=1)
        run.tracer = tracer
        run.layers["trace_overhead_pct"] = Metric(
            (passes.wall_s / plain.wall_s - 1) * 100, "%", f"{plain.n} passes each")
    else:
        # A third of the timed phase follows each set-up, so the samples
        # span three index builds and the whole run rather than one heap
        # layout and one moment of a shared machine.
        for k in range(1, SETUP_REPEATS + 1):
            setup = None
            gc.collect()
            t0 = time.perf_counter()
            setup = make_setup()
            setup_times.append(time.perf_counter() - t0)
            run_passes(run, setup, passes, queries, qrels, run.seconds * k / SETUP_REPEATS)

    cold_s, cold_run = cold_search(run, setup.index_path, queries_path)
    run.check(cold_run.read_bytes() == (run.work / "fused.run").read_bytes(),
              "cold search run file differs from the timed fused run")

    if tracer.enabled:
        cli_search_layers(run, setup, queries_path, cold_s)
        rankers_layers(run, setup, passes, queries, scorers)
        evaluation_layers(run)
        for name in ("build_index", "persist_index", "load_index"):
            run.layers[f"index.{name.split('_')[0]}_s"] = Metric(
                tracer.durations(f"index.{name}")[0], "s")
        run.layers["index.load_heap_mb"] = Metric(heap_mb_of_load(setup.index_path), "MB")
        index_shape(run, setup.searcher.index, setup.index_path)
        extra_layers(setup)
    else:
        search_report(run, setup_times, passes, len(queries), scorers, cold_s, setup.index_path)


def desk_short(run: Run) -> None:
    scale = run.scale
    data = gen.desk_short_data(scale.desk_docs, scale.desk_queries)
    run.facts["data_sha256"] = gen.desk_short_digest(data)
    run.expect_digest("data", run.facts["data_sha256"])
    queries_path = run.work / "queries.tsv"
    queries_path.write_text("".join(f"{q}\t{t}\n" for q, t in data.queries), encoding="utf-8")
    index_path = run.work / "desk.idx"
    fingerprint = pipeline_fingerprint(PRESET_STANDARD)
    tracer = run.tracer

    def make_setup() -> SearchSetup:
        with tracer.span("index.build_index", "desk"):
            index = build_index(data.docs, fingerprint)
        with tracer.span("index.persist_index", "desk"):
            persist_index(index, index_path)
        del index
        with tracer.span("index.load_index", "desk"):
            index = load_index(index_path)
        with tracer.span("rankers.Searcher", "desk"):
            searcher = Searcher(index, config=PRESET_STANDARD)
        warm_up(run, searcher, data.queries[0], DESK_SCORERS)
        return SearchSetup(searcher, index_path, data.queries[0])

    def extra_layers(setup: SearchSetup) -> None:
        textproc_layers(run, [t for _q, t in data.queries], PRESET_STANDARD)
        workers = min(2, len(os.sched_getaffinity(0)))
        timings = {1: [], workers: []}
        results = {}
        for _ in range(3):
            for w in (1, workers):
                gc.collect()
                t0 = time.perf_counter()
                results[w] = setup.searcher.search_all(data.queries, "bm25", top_n=TOP_N, workers=w)
                timings[w].append(time.perf_counter() - t0)
        run.check(results[1] == results[workers], "search_all differs between worker counts")
        run.layers["rankers.workers2_speedup"] = Metric(
            statistics.median(timings[1]) / statistics.median(timings[workers]), "x",
            f"bm25, {len(data.queries)} queries, workers={workers} vs 1")

    search_workload(run, DESK_SCORERS, data.queries, data.qrels, queries_path, make_setup,
                    extra_layers)


def legal_long(run: Run) -> None:
    scale = run.scale
    textgen = gen.TextGenerator()
    data = gen.legal_long_data(textgen, run.seed, run.work / "legal", scale.legal_docs,
                               scale.legal_queries)
    run.facts["data_sha256"] = data.digest
    run.expect_digest("data", data.digest)
    run.facts["corpus_words"] = data.corpus.words
    index_path = run.work / "legal.idx"
    fingerprint = pipeline_fingerprint(PRESET_STANDARD)
    tracer = run.tracer
    state = {}

    def make_setup() -> SearchSetup:
        with tracer.span("index.read_corpus_dir", "legal"):
            docs = read_corpus_dir(data.corpus.corpus_dir)
        tokenized = []
        for doc_id, text in docs:
            with tracer.span("textproc.tokenize_normalize", doc_id):
                tokenized.append((doc_id, tokenize_normalize(text, PRESET_STANDARD)))
        with tracer.span("index.build_index", "legal"):
            index = build_index(tokenized, fingerprint)
        del tokenized
        with tracer.span("index.persist_index", "legal"):
            persist_index(index, index_path)
        del index
        with tracer.span("index.load_index", "legal"):
            index = load_index(index_path)
        with tracer.span("embeddings.load_embeddings", "legal"):
            store = load_embeddings(data.embeddings_path)
        with tracer.span("rankers.Searcher", "legal"):
            searcher = Searcher(index, config=PRESET_STANDARD, embeddings=store,
                                corpus_texts=dict(docs))
        warm_up(run, searcher, data.queries[0], LEGAL_SCORERS)
        state["docs"] = docs
        return SearchSetup(searcher, index_path, data.queries[0])

    def extra_layers(setup: SearchSetup) -> None:
        docs = state["docs"]
        textproc_from_spans(run, docs, setup.searcher.index)
        run.layers["index.read_corpus_s"] = Metric(tracer.durations("index.read_corpus_dir")[0], "s")
        store = setup.searcher.embeddings
        run.layers["embeddings.load_s"] = Metric(tracer.durations("embeddings.load_embeddings")[0], "s")

        t0 = time.perf_counter()
        build_rake_vocabulary(sorted(docs), PRESET_STANDARD, ENGLISH_STOPWORDS)
        run.layers["rankers.rake_vocab_s"] = Metric(time.perf_counter() - t0, "s")
        stopset = frozenset(ENGLISH_STOPWORDS)
        times = []
        for qid, text in data.queries:
            with tracer.span("rake.rake_extract", qid):
                t0 = time.perf_counter()
                rake_extract(text, stopset, default_keyword_count(text, stopset))
                times.append(time.perf_counter() - t0)
        run.layers["rake.extract_ms_per_query"] = Metric(statistics.median(times) * 1000, "ms")

        qvec = store.query_vector(data.queries[0][0])
        chunks = 0
        t0 = time.perf_counter()
        for doc_id, _text in docs:
            doc_chunks = store.chunks(doc_id)
            aggregate_chunk_similarity(qvec, doc_chunks)
            chunks += len(doc_chunks)
        run.layers["embeddings.aggregate_us_per_chunk"] = Metric(
            (time.perf_counter() - t0) / chunks * 1e6, "us")

    search_workload(run, LEGAL_SCORERS, data.queries, data.qrels, data.queries_path, make_setup,
                    extra_layers)


# ---------------------------------------------------------------------------
# ingest

def ingest(run: Run) -> None:
    scale = run.scale
    tracer = run.tracer
    textgen = gen.TextGenerator()
    root = run.work / "ingest"

    def corpus(i: int) -> gen.LegalCorpus:
        rng = np.random.default_rng([run.seed, 2, i])
        made, _words = gen.write_legal_corpus(textgen, rng, root / f"c{i}", scale.ingest_docs)
        return made

    def index_cmd(corpus_dir: Path, out: Path) -> None:
        cli(["index", "--preset", "full", "--corpus", str(corpus_dir), "--out", str(out)])

    warm = gen.write_legal_corpus(textgen, np.random.default_rng([run.seed, 3]),
                                  root / "warm", scale.warmup_docs, prefix="warm")[0]
    setup_times = []
    for _ in range(1 if tracer.enabled else SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        index_cmd(warm.corpus_dir, root / "warm.idx")
        load_index(root / "warm.idx")
        setup_times.append(time.perf_counter() - t0)

    corpora: list[gen.LegalCorpus] = []
    digests: list[str] = []
    glue: list[float] = []

    def check_against_api(i: int, cli_s: float) -> None:
        """Build corpus i through the public API, timing its layer calls
        for the glue share, and compare it with the index the CLI wrote."""
        out = root / f"c{i}.idx"
        t0 = time.perf_counter()
        with tracer.span("index.read_corpus_dir", f"corpus{i}"):
            docs_raw = read_corpus_dir(corpora[i].corpus_dir)
        tokenized = []
        for doc_id, text in docs_raw:
            with tracer.span("textproc.tokenize_normalize", doc_id):
                tokenized.append((doc_id, tokenize_normalize(text, PRESET_FULL)))
        with tracer.span("index.build_index", f"corpus{i}"):
            built = build_index(tokenized, pipeline_fingerprint(PRESET_FULL))
        with tracer.span("index.persist_index", f"corpus{i}"):
            persist_index(built, root / "ref.idx")
        glue.append((cli_s - (time.perf_counter() - t0)) / cli_s)
        with tracer.span("index.load_index", f"corpus{i}"):
            loaded = load_index(out)
        run.check(loaded == built and loaded.doc_ids == built.doc_ids,
                  f"corpus{i}: loaded index differs from the built one")
        if i == 0 and tracer.enabled:
            textproc_from_spans(run, docs_raw, built)
            index_shape(run, loaded, out)
            run.layers["index.load_heap_mb"] = Metric(heap_mb_of_load(out), "MB")
            porter_layers(run, docs_raw)

    def index_run(i: int, check: bool) -> float:
        """Index corpus i once; only the index run is timed.

        With `check`, the index is then compared with one built through
        the public API; without it, with the bytes an earlier index run
        wrote for the same corpus.
        """
        if i == len(corpora):
            corpora.append(corpus(i))
        out = root / f"c{i}.idx"
        gc.collect()
        with run.tracer.span("cli.index", f"corpus{i}"):
            t0 = time.perf_counter()
            ok, _ = run.attempt(f"index corpus{i}", lambda: index_cmd(corpora[i].corpus_dir, out))
            elapsed = time.perf_counter() - t0
        if ok:
            digest = sha256_file(out)
            if i < len(digests):
                run.check(digest == digests[i], f"index/{i} changed between index runs")
            else:
                digests.append(digest)
                run.expect_digest(f"index/{i}", digest, required=False)
            if check:
                check_against_api(i, elapsed)
        return elapsed

    if tracer.enabled:
        # Each corpus is indexed with spans off and on, alternating which
        # goes first; the difference is what the tracing costs.
        plain: list[float] = []
        timed: list[float] = []
        untraced = Tracer(enabled=False)
        while not plain or sum(plain) + sum(timed) < run.seconds:
            i = len(plain)
            for traced in (False, True) if i % 2 == 0 else (True, False):
                run.tracer = tracer if traced else untraced
                with run.tracer.span("bench.workload", run.workload):
                    (timed if traced else plain).append(index_run(i, check=traced))
        run.tracer = tracer
        run.layers["trace_overhead_pct"] = Metric(
            (sum(timed) / sum(plain) - 1) * 100, "%", f"{len(plain)} index runs each")
        for name, key in (("read_corpus_dir", "index.read_corpus_s"), ("build_index", "index.build_s"),
                          ("persist_index", "index.persist_s"), ("load_index", "index.load_s")):
            run.layers[key] = Metric(statistics.median(tracer.durations(f"index.{name}")), "s")
        run.layers["cli.index_s"] = Metric(statistics.median(timed), "s")
        run.layers["cli.command_s"] = Metric(statistics.median(timed), "s",
                                             "priorcase index --preset full")
        run.layers["cli.glue_share"] = Metric(statistics.median(glue), "ratio")
        return

    timed = []
    with tracer.span("bench.workload", run.workload):
        while not timed or sum(timed) < run.seconds:
            timed.append(index_run(len(timed), check=True))
    docs_per_s = scale.ingest_docs * len(timed) / sum(timed)
    index_mb = statistics.median((root / f"c{i}.idx").stat().st_size for i in range(len(timed))) / 1e6
    run.facts["corpus_docs"] = scale.ingest_docs
    run.report["setup_s"] = Metric(statistics.median(setup_times), "s",
                                   f"median of {len(setup_times)} warm-up index runs")
    for name, unit in (("query_p50_ms", "ms"), ("query_tail_ms", "ms"), ("queries_per_s", "1/s"),
                       ("cold_search_s", "s")):
        run.report[name] = Metric(None, unit, "ingest runs no queries")
    run.report["ingest_docs_per_s"] = Metric(docs_per_s, "docs/s", f"{len(timed)} index runs")
    run.report["index_mb"] = Metric(index_mb, "MB", "median per corpus")
    run.samples["index_s"] = timed
    run.gate["latency_p50_ms"] = Metric(statistics.median(timed) * 1000, "ms")
    run.gate["throughput_per_s"] = Metric(docs_per_s, "1/s")


def porter_layers(run: Run, docs_raw: list[tuple[str, str]]) -> None:
    """Time porter_stem alone on the tokens that reach the stemming stage."""
    tokens = [t for _d, text in docs_raw for t in tokenize_normalize(text, PRESET_STANDARD)]
    t0 = time.perf_counter()
    for token in tokens:
        porter_stem(token)
    busy = time.perf_counter() - t0
    run.tracer.count("porter.porter_stem.calls", len(tokens))
    run.tracer.count("porter.porter_stem.busy_s", busy)
    run.layers["porter.stem_us_per_token"] = Metric(busy / len(tokens) * 1e6, "us")
    run.layers["porter.distinct_ratio"] = Metric(len(set(tokens)) / len(tokens), "ratio")


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "desk-short": desk_short,
    "legal-long": legal_long,
    "ingest": ingest,
}
# Workloads whose data does not depend on the seed have their digests
# checked on every seed; the others only on the recorded default seed.
SEED_FREE_DATA = {"desk-short"}


def run_workload(run: Run, data_dir: Path) -> None:
    try:
        check_metric_fixture(run, data_dir)
        WORKLOADS[run.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    rss = peak_rss_mb()
    run.report["peak_rss_mb"] = Metric(rss, "MB", "ru_maxrss of this process")
    run.gate["setup_s"] = run.report.get("setup_s", Metric(None, "s"))
    run.gate["peak_rss_mb"] = run.report["peak_rss_mb"]
    run.gate["index_mb"] = run.report.get("index_mb", Metric(None, "MB"))
    run.report["error_rate"] = Metric(run.failed / max(run.attempted, 1), "ratio",
                                      f"{run.failed} of {run.attempted}")
