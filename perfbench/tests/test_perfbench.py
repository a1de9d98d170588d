"""Tests of the benchmark itself, at smoke scale.

    python -m pytest -q perfbench/tests

They check that every metric BENCHMARK.json names is emitted with its
unit, that a wrong recorded digest is reported as a failure, that the
benchmark refuses to run without the engine's sources, and that the
desk-short generator produces the acceptance test's data.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The nine end-to-end metrics every run reports under their own names.
REPORTED = ("setup_s", "query_p50_ms", "query_tail_ms", "queries_per_s", "cold_search_s",
            "ingest_docs_per_s", "peak_rss_mb", "index_mb", "error_rate")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "0", "--seconds", "0.2",
         "--scale", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--trace", trace)
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        shown = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
        assert set(REPORTED) <= set(shown)
    else:
        spans = json.loads(next((ROOT / ".bench_out").glob(
            f"{workload}-smoke-seed0-trace1-spans.json")).read_text())["spans"]
        ids = {s["id"] for s in spans}
        assert any(s["parent"] is not None for s in spans)
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_wrong_digest_is_a_failure(tmp_path, monkeypatch, capsys):
    recorded = json.loads((BENCH / "digests.json").read_text())
    good = recorded["smoke"]["desk-short"]["run/bm25"]
    recorded["smoke"]["desk-short"]["run/bm25"] = ("0" if good[0] != "0" else "1") + good[1:]
    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps(recorded))
    # main() puts src/ on sys.path and turns bytecode writing off.
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "DEFAULT_DIGESTS", wrong)
    code = run.main(["--workload", "desk-short", "--seed", "0", "--seconds", "0.2",
                     "--scale", "smoke", "--trace", "0"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("FAILED run/bm25") for line in lines)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "desk-short", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_desk_short_data_is_the_acceptance_data(tmp_path, monkeypatch):
    """Capture the data test_desk_scale_performance generates and compare."""
    for path in (ROOT / "src", ROOT / "tests", BENCH):
        monkeypatch.syspath_prepend(str(path))
    acceptance = importlib.import_module("test_acceptance")
    gen = importlib.import_module("gen")
    captured = {}

    def fake_build(docs, fingerprint):
        captured["docs"] = list(docs)

    def fake_main(argv):
        captured["queries"] = Path(argv[argv.index("--queries") + 1]).read_text()
        captured["qrels"] = Path(argv[argv.index("--qrels") + 1]).read_text()
        return 0

    monkeypatch.setattr(acceptance, "build_index", fake_build)
    monkeypatch.setattr(acceptance, "persist_index", lambda index, path: None)
    monkeypatch.setattr(acceptance, "main", fake_main)
    acceptance.test_desk_scale_performance(tmp_path)

    data = gen.desk_short_data()
    assert captured["docs"] == data.docs
    assert captured["queries"] == "".join(f"{q}\t{t}\n" for q, t in data.queries)
    qrels: dict[str, set[str]] = {}
    for line in captured["qrels"].splitlines():
        qid, _zero, doc_id, _rel = line.split()
        qrels.setdefault(qid, set()).add(doc_id)
    assert qrels == data.qrels
    recorded = json.loads((BENCH / "digests.json").read_text())
    assert gen.desk_short_digest(data) == recorded["full"]["desk-short"]["data"]
