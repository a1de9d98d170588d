#!/usr/bin/env python3
"""Regenerate data/synthetic/expected_metrics.json.

Rankings come from the brute-force reference scorer in tests/oracles.py
(not from the engine), and the metric values are derived from integer hit
counts.  Run from the repository root:

    python scripts/make_fixture_expectations.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "data" / "synthetic" / "expected_metrics.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from priorcase.evaluation import load_qrels
from priorcase.index import read_corpus_dir, read_queries_file
from priorcase.stopwords import ENGLISH_STOPWORDS
from priorcase.textproc import PRESET_STANDARD, tokenize_normalize

from oracles import naive_bm25, naive_rank

KS = (1, 3, 5, 10)
TOP_N = 10
SCORER = "bm25"


def expected_metrics_json() -> str:
    """The text of data/synthetic/expected_metrics.json."""
    data = TARGET.parent
    raw_docs = dict(read_corpus_dir(data / "corpus"))
    queries = read_queries_file(data / "queries.tsv")
    qrels = load_qrels(data / "qrels.txt")

    docs = {
        d: tokenize_normalize(text, PRESET_STANDARD, ENGLISH_STOPWORDS)
        for d, text in raw_docs.items()
    }

    rankings: dict[str, list[str]] = {}
    for qid, text in queries:
        qtokens = tokenize_normalize(text, PRESET_STANDARD, ENGLISH_STOPWORDS)
        ranked = naive_rank(naive_bm25(docs, qtokens), sorted(docs))[:TOP_N]
        # refuse to freeze a ranking whose order hinges on a float hair
        for (_, s1), (_, s2) in zip(ranked, ranked[1:]):
            assert s1 == s2 or s1 - s2 > 1e-6, f"fragile ranking for {qid}"
        rankings[qid] = [d for d, _ in ranked]

    per_query = {}
    evaluated = []
    skipped = []
    for qid in sorted(rankings):
        relevant = qrels[qid]
        if not relevant:
            skipped.append(qid)
            continue
        evaluated.append(qid)
        ranked = rankings[qid]
        hits = {k: sum(1 for d in ranked[:k] if d in relevant) for k in KS}
        first = next((i for i, d in enumerate(ranked, 1) if d in relevant), 0)
        precision = {k: hits[k] / k for k in KS}
        recall = {k: hits[k] / len(relevant) for k in KS}
        f1 = {
            k: (2.0 * precision[k] * recall[k] / (precision[k] + recall[k])
                if precision[k] + recall[k] else 0.0)
            for k in KS
        }
        per_query[qid] = {
            "relevant": sorted(relevant),
            "hits": {str(k): hits[k] for k in KS},
            "first_relevant_rank": first,
            "precision": {str(k): precision[k] for k in KS},
            "recall": {str(k): recall[k] for k in KS},
            "f1": {str(k): f1[k] for k in KS},
            "rr": 1.0 / first if first else 0.0,
        }

    n = len(evaluated)
    mean = {
        "precision": {str(k): sum(per_query[q]["precision"][str(k)] for q in evaluated) / n for k in KS},
        "recall": {str(k): sum(per_query[q]["recall"][str(k)] for q in evaluated) / n for k in KS},
        "f1": {str(k): sum(per_query[q]["f1"][str(k)] for q in evaluated) / n for k in KS},
        "mrr": sum(per_query[q]["rr"] for q in evaluated) / n,
    }

    out = {
        "scorer": SCORER,
        "top_n": TOP_N,
        "ks": list(KS),
        "rankings": rankings,
        "per_query": per_query,
        "skipped": skipped,
        "mean": mean,
    }
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def main() -> None:
    text = expected_metrics_json()
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET}")
    rankings = json.loads(text)["rankings"]
    for qid in sorted(rankings):
        print(qid, "->", " ".join(rankings[qid]))


if __name__ == "__main__":
    main()
