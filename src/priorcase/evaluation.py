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

from dataclasses import dataclass, field
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
    f1_mode: str = "per_query"


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

    report = EvalReport(ks=ks, queries=queries, skipped=skipped, f1_mode=f1_mode)
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
    with open(path, encoding="utf-8") as fh:
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

    Validates that each query's ranks are contiguous from 1 and that no
    document is listed twice for the same query.
    """
    rows: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        # text mode turns every line ending into "\n", so these are its lines
        lines = fh.read().split("\n")
    for lineno, parts in enumerate(map(str.split, lines), start=1):
        if len(parts) != 6:
            if parts:
                raise ValueError(
                    f"{path}:{lineno}: expected 'query_id Q0 doc_id rank score tag'"
                )
            continue
        try:
            entry = (int(parts[3]), parts[2], float(parts[4]))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed rank or score") from None
        rows.setdefault(parts[0], []).append(entry)
    if not rows:
        raise ValueError(f"no results found in {path}")

    run: Run = {}
    for qid, entries in rows.items():
        entries.sort()
        ranks, doc_ids, scores = zip(*entries)
        if ranks != tuple(range(1, len(ranks) + 1)):
            raise ValueError(f"{path}: ranks for query {qid!r} are not contiguous from 1")
        if len(set(doc_ids)) != len(doc_ids):
            raise ValueError(f"{path}: query {qid!r} lists a document more than once")
        run[qid] = list(zip(doc_ids, scores))
    return run


def write_run(run: Run, path: str | Path, tag: str) -> None:
    """Write a run file, queries in ascending id order, ranks from 1."""
    if not tag or any(ch.isspace() for ch in tag):
        raise ValueError(f"run tag must be a single non-empty word, got {tag!r}")
    lines = [
        f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n"
        for qid in sorted(run)
        for rank, (doc_id, score) in enumerate(run[qid], start=1)
    ]
    with atomic_open(path) as out:
        out.write("".join(lines))


def format_report(report: EvalReport, per_query: bool = False) -> str:
    """Human-readable table plus machine-readable `metric query value` lines."""
    lines = []
    ks = report.ks
    header = "query".ljust(12) + "".join(
        f"{name}@{k}".rjust(10) for name in ("P", "R", "F1") for k in ks
    ) + "RR".rjust(10)
    if per_query:
        lines.append(header)
        for qid in sorted(report.queries):
            q = report.queries[qid]
            row = qid.ljust(12)
            row += "".join(f"{q.precision[k]:10.4f}" for k in ks)
            row += "".join(f"{q.recall[k]:10.4f}" for k in ks)
            row += "".join(f"{q.f1[k]:10.4f}" for k in ks)
            row += f"{q.reciprocal_rank:10.4f}"
            lines.append(row)
    lines.append(header.replace("query".ljust(12), "mean".ljust(12), 1))
    mean_row = "all".ljust(12)
    mean_row += "".join(f"{report.mean_precision.get(k, 0.0):10.4f}" for k in ks)
    mean_row += "".join(f"{report.mean_recall.get(k, 0.0):10.4f}" for k in ks)
    mean_row += "".join(f"{report.mean_f1.get(k, 0.0):10.4f}" for k in ks)
    mean_row += f"{report.mrr:10.4f}"
    lines.append(mean_row)
    if report.skipped:
        lines.append(
            "skipped (no relevant documents judged): " + ", ".join(report.skipped)
        )
    lines.append("")
    for qid in sorted(report.queries):
        q = report.queries[qid]
        for k in ks:
            lines.append(f"P@{k}\t{qid}\t{q.precision[k]:.6f}")
            lines.append(f"R@{k}\t{qid}\t{q.recall[k]:.6f}")
            lines.append(f"F1@{k}\t{qid}\t{q.f1[k]:.6f}")
        lines.append(f"RR\t{qid}\t{q.reciprocal_rank:.6f}")
    for k in ks:
        lines.append(f"P@{k}\tall\t{report.mean_precision.get(k, 0.0):.6f}")
        lines.append(f"R@{k}\tall\t{report.mean_recall.get(k, 0.0):.6f}")
        lines.append(f"F1@{k}\tall\t{report.mean_f1.get(k, 0.0):.6f}")
    lines.append(f"MRR\tall\t{report.mrr:.6f}")
    return "\n".join(lines)
