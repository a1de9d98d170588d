"""priorcase benchmark: one workload per invocation, one JSON line at the end.

    python3 perfbench/run.py --workload desk-short --seed 0 --seconds 12 --trace 0

Run it from the repository root.  It imports the engine from `src/`,
generates the workload's inputs from `--seed`, writes them under
`.bench_work/` (removed afterwards), measures for `--seconds`, checks
every output, and prints one `metric` line per metric (name, value,
unit), then, as the last line, a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones
and writes the spans to `.bench_out/`.  A full report of every run goes
to `.bench_out/` too.  The exit code is 1 when any output was wrong.

`--scale smoke` shrinks every workload so a run takes seconds.  The
expected run-file and index digests are in `digests.json`; the report
holds the ones a run observed, under `digests`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
DEFAULT_DIGESTS = HERE / "digests.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="priorcase benchmark")
    parser.add_argument("--workload", required=True, choices=["desk-short", "legal-long", "ingest"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    return parser.parse_args(argv)


def git_rev() -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def src_loc() -> int:
    """Non-blank lines in src/priorcase/*.py, the size ROADMAP aim 2 tracks."""
    return sum(
        1
        for path in sorted((SRC / "priorcase").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def run_facts() -> dict:
    import numpy

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_loc": src_loc(),
    }


def layer_self_times(tracer) -> dict[str, float]:
    """Self time per layer (span name prefix); `bench` is the benchmark's own."""
    totals: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def fmt(metric) -> str:
    if metric.value is None:
        return f"n/a {metric.unit}"
    return f"{metric.value:.6g} {metric.unit}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "priorcase" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True

    import workloads
    from spans import Tracer

    recorded = json.loads(DEFAULT_DIGESTS.read_text())
    applies = args.workload in workloads.SEED_FREE_DATA or args.seed == recorded["default_seed"]
    expected = recorded[args.scale][args.workload] if applies else {}

    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        scale=workloads.SCALES[args.scale],
        tracer=Tracer(enabled=bool(args.trace)),
        work=ROOT / ".bench_work" / f"{tag}-{os.getpid()}",
        expected=expected,
    )
    run.work.mkdir(parents=True)
    run.facts.update(run_facts())
    try:
        workloads.run_workload(run, ROOT / "data")
    except Exception:
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
        run.failures.append("benchmark aborted: " + traceback.format_exc().splitlines()[-1])

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        run.tracer.write(out_dir / f"{tag}-spans.json")
    shown = run.layers if args.trace else run.report
    for key, value in run.facts.items():
        print(f"fact {key} {value}")
    for name, metric in shown.items():
        print(f"metric {name} {fmt(metric)}" + (f"  # {metric.note}" if metric.note else ""))
    for failure in run.failures:
        print(f"FAILED {failure}")
    (out_dir / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "facts": run.facts,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "metrics": {k: vars(m) for k, m in shown.items()},
        "digests": run.observed,
        "samples": run.samples,
        "self_s": layer_self_times(run.tracer) if args.trace else {},
    }, indent=1))

    names = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    source = run.layers if args.trace else run.gate
    for spec in names:
        metric = source.get(spec["name"])
        if metric is not None and metric.value is not None:
            metrics[spec["name"]] = {"value": metric.value, "unit": metric.unit}
        else:
            run.failed += 1
            run.attempted += 1
            print(f"FAILED metric {spec['name']} was not measured")
    print(json.dumps({"correct": run.failed == 0, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
