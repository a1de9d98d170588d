"""Ranking evaluation: P@k, R@k, F1@k, reciprocal rank, and report IO.

Conventions: positions beyond the end of a ranking count as non-relevant;
reciprocal rank is 0 when no relevant document is retrieved; queries with
no judged-relevant documents are excluded from aggregate means and
flagged, because recall is undefined for them.

File formats follow the usual retrieval-interchange layouts:

    qrels  query_id 0 doc_id rel        (rel in {0, 1}; 1 = relevant)
    run    query_id Q0 doc_id rank score tag
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .index import atomic_open

Qrels = dict[str, set[str]]
#: query id -> ranked (doc_id, score) list, best first
Run = dict[str, list[tuple[str, float]]]

DEFAULT_KS = (1, 3, 5, 10)


def precision_at_k(ranked_ids: Sequence[str], relevant: set[str], k: int) -> float:
    """Fraction of the top k positions holding a relevant document."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for doc_id in ranked_ids[:k] if doc_id in relevant)
    return hits / k


def recall_at_k(ranked_ids: Sequence[str], relevant: set[str], k: int) -> float:
    """Fraction of the relevant documents found in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("recall is undefined for an empty relevant set")
    hits = sum(1 for doc_id in ranked_ids[:k] if doc_id in relevant)
    return hits / len(relevant)


def f1_at_k(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def reciprocal_rank(ranked_ids: Sequence[str], relevant: set[str]) -> float:
    """1 / rank of the first relevant document, or 0 if none appears."""
    for position, doc_id in enumerate(ranked_ids, start=1):
        if doc_id in relevant:
            return 1.0 / position
    return 0.0


@dataclass
class QueryEval:
    query_id: str
    precision: dict[int, float]
    recall: dict[int, float]
    f1: dict[int, float]
    reciprocal_rank: float


@dataclass
class EvalReport:
    ks: tuple[int, ...]
    queries: dict[str, QueryEval]
    skipped: list[str] = field(default_factory=list)
    mean_precision: dict[int, float] = field(default_factory=dict)
    mean_recall: dict[int, float] = field(default_factory=dict)
    mean_f1: dict[int, float] = field(default_factory=dict)
    mrr: float = 0.0


def evaluate_run(
    run: Run,
    qrels: Qrels,
    ks: Iterable[int] = DEFAULT_KS,
    f1_mode: str = "per_query",
) -> EvalReport:
    """Score a run against judgments and aggregate over queries.

    Per-query F1 is always the harmonic mean of that query's P@k and
    R@k.  The aggregate F1 is, by default, the mean of the per-query F1
    values ("per_query"); "pooled" instead takes the harmonic mean of the
    aggregated P@k and R@k.  Aggregation order is ascending query id.
    """
    ks = tuple(ks)
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be a non-empty list of integers >= 1")
    repeated = [k for k in ks if ks.count(k) > 1]
    if repeated:
        raise ValueError(f"cutoff {repeated[0]} is given more than once")
    if f1_mode not in ("per_query", "pooled"):
        raise ValueError("f1_mode must be 'per_query' or 'pooled'")
    missing = sorted(qid for qid in run if qid not in qrels)
    if missing:
        raise ValueError(f"run contains queries with no judgments: {', '.join(missing)}")

    queries: dict[str, QueryEval] = {}
    skipped: list[str] = []
    for qid in sorted(run):
        relevant = qrels[qid]
        if not relevant:
            skipped.append(qid)
            continue
        ranked_ids = [doc_id for doc_id, _score in run[qid]]
        precision = {k: precision_at_k(ranked_ids, relevant, k) for k in ks}
        recall = {k: recall_at_k(ranked_ids, relevant, k) for k in ks}
        f1 = {k: f1_at_k(precision[k], recall[k]) for k in ks}
        queries[qid] = QueryEval(
            query_id=qid,
            precision=precision,
            recall=recall,
            f1=f1,
            reciprocal_rank=reciprocal_rank(ranked_ids, relevant),
        )

    report = EvalReport(ks=ks, queries=queries, skipped=skipped)
    if queries:
        ordered = [queries[qid] for qid in sorted(queries)]
        n = len(ordered)
        for k in ks:
            report.mean_precision[k] = sum(q.precision[k] for q in ordered) / n
            report.mean_recall[k] = sum(q.recall[k] for q in ordered) / n
            if f1_mode == "per_query":
                report.mean_f1[k] = sum(q.f1[k] for q in ordered) / n
            else:
                report.mean_f1[k] = f1_at_k(report.mean_precision[k], report.mean_recall[k])
        report.mrr = sum(q.reciprocal_rank for q in ordered) / n
    return report


# ---------------------------------------------------------------------------
# interchange files

def load_qrels(path: str | Path) -> Qrels:
    """Read `query_id 0 doc_id rel` lines; rel=1 marks a relevant document.

    Queries that appear only with rel=0 end up with an empty relevant
    set, which `evaluate_run` reports as skipped.
    """
    qrels: Qrels = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'query_id 0 doc_id rel'")
            qid, _unused, doc_id, rel = parts
            if rel not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: relevance must be 0 or 1, got {rel!r}")
            qrels.setdefault(qid, set())
            if rel == "1":
                qrels[qid].add(doc_id)
    if not qrels:
        raise ValueError(f"no judgments found in {path}")
    return qrels


def load_run(path: str | Path) -> Run:
    """Read `query_id Q0 doc_id rank score tag` lines into a run.

    A rank is ASCII digits; a score is a finite ASCII decimal or exponent
    literal, without `_`.  Validates that each query's ranks are contiguous
    from 1 and that no document is listed twice for the same query.  Each
    line appends to its query's rank, id and score columns; a query's rows
    are sorted by (rank, id, score) only when its ranks are not already
    1, 2, ...
    """
    columns: dict[str, tuple[list[int], list[str], list[float]]] = defaultdict(
        lambda: ([], [], []))
    with open(path, encoding="utf-8-sig") as fh:
        # text mode turns every line ending into "\n", so these are its lines
        lines = fh.read().split("\n")
    for lineno, parts in enumerate(map(str.split, lines), start=1):
        if len(parts) != 6:
            if parts:
                raise ValueError(
                    f"{path}:{lineno}: expected 'query_id Q0 doc_id rank score tag'"
                )
            continue
        qid, _q0, doc_id, rank, score, _tag = parts
        try:
            # `int` and `float` would also take `_`, a signed rank and non-ASCII digits
            if not (rank.isdigit() and rank.isascii()) or "_" in score or not score.isascii():
                raise ValueError
            rank, score = int(rank), float(score)
            if not math.isfinite(score):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed rank or score") from None
        ranks, doc_ids, scores = columns[qid]
        ranks.append(rank)
        doc_ids.append(doc_id)
        scores.append(score)
    if not columns:
        raise ValueError(f"no results found in {path}")

    run: Run = {}
    for qid, (ranks, doc_ids, scores) in columns.items():
        in_order = list(range(1, len(ranks) + 1))
        if ranks != in_order:
            ranks, doc_ids, scores = map(list, zip(*sorted(zip(ranks, doc_ids, scores))))
            if ranks != in_order:
                raise ValueError(f"{path}: ranks for query {qid!r} are not contiguous from 1")
        if len(set(doc_ids)) != len(doc_ids):
            raise ValueError(f"{path}: query {qid!r} lists a document more than once")
        run[qid] = list(zip(doc_ids, scores))
    return run


def write_run(run: Run, path: str | Path, tag: str) -> None:
    """Write a run file, queries in ascending id order, ranks from 1.

    Each line reads `f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n"`, and
    the file is those lines' UTF-8 bytes, with `\n` on every platform.
    Rejects, before touching `path`, any ranking `load_run` could not read
    back: an entry that is not a (doc_id, score) pair, ids that are not
    single words or have no UTF-8 form, a document listed twice, or a
    score that is not finite.
    Each query is formatted with one `%` template, built from per-rank
    line tails made once per call.
    """
    if not tag or any(ch.isspace() for ch in tag):
        raise ValueError(f"run tag must be a single non-empty word, got {tag!r}")
    for qid, ranking in run.items():
        if not set(map(len, ranking)) <= {2}:
            raise ValueError(f"cannot write query {qid!r}: every entry must be a "
                             "(doc_id, score) pair")
        doc_ids, scores = zip(*ranking) if ranking else ((), ())
        if (qid.split() != [qid] or " ".join(doc_ids).split() != list(doc_ids)
                or len(set(doc_ids)) != len(doc_ids) or not all(map(math.isfinite, scores))):
            raise ValueError(f"cannot write query {qid!r}: its id and document ids must be "
                             "single words, each document listed once, with finite scores")
    # `%` is doubled in the ids and the tag so that it reaches the file as itself
    tag = tag.replace("%", "%%")
    longest = max(map(len, run.values()), default=0)
    tails = [f" {rank} %.6f {tag}\n" for rank in range(1, longest + 1)]
    text = []
    for qid in sorted(run):
        ranking = run[qid]
        if ranking:
            head = qid.replace("%", "%%") + " Q0 %s"
            template = head + head.join(tails[:len(ranking)])
            text.append(template % tuple(chain.from_iterable(ranking)))
    # encoding first rejects an id with no UTF-8 form before `path` is touched
    data = "".join(text).encode("utf-8")
    with atomic_open(path) as out:
        out.write(data)


def format_report(report: EvalReport, per_query: bool = False) -> str:
    """Human-readable table plus machine-readable `metric query value` lines.

    The mean is one more row, "all", whose reciprocal rank reads `MRR`; a
    report with no evaluated query prints its means as 0.
    """
    ks = report.ks
    queries = [report.queries[qid] for qid in sorted(report.queries)]
    mean = QueryEval("all", report.mean_precision, report.mean_recall, report.mean_f1, report.mrr)

    def metrics(q: QueryEval) -> tuple[tuple[str, dict[int, float]], ...]:
        return ("P", q.precision), ("R", q.recall), ("F1", q.f1)

    def table_row(q: QueryEval) -> str:
        cells = [values.get(k, 0.0) for _name, values in metrics(q) for k in ks]
        cells.append(q.reciprocal_rank)
        return q.query_id.ljust(12) + "".join(f"{v:10.4f}" for v in cells)

    header = "".join(f"{name}@{k}".rjust(10) for name in ("P", "R", "F1") for k in ks)
    header += "RR".rjust(10)
    lines = ["query".ljust(12) + header, *map(table_row, queries)] if per_query else []
    lines += ["mean".ljust(12) + header, table_row(mean)]
    if report.skipped:
        lines.append("skipped (no relevant documents judged): " + ", ".join(report.skipped))
    lines.append("")
    for q in queries + [mean]:
        for k in ks:
            lines += [f"{name}@{k}\t{q.query_id}\t{values.get(k, 0.0):.6f}"
                      for name, values in metrics(q)]
        lines.append(f"{'MRR' if q is mean else 'RR'}\t{q.query_id}\t{q.reciprocal_rank:.6f}")
    return "\n".join(lines)
