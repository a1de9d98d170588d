"""Run the benchmark on two commits in alternating pairs and record every run.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workload ingest --workload legal-long --workload desk-short:20 \
        --pairs 10 --seconds 12 --trace 0 --seed 0 --out BENCH_<pr>.json

Run it from anywhere inside the repository.  `--workload NAME:N` runs N
pairs of that workload; a bare `NAME` runs `--pairs` of them.  Each
revision is cloned from this repository (a local `git clone`, no network)
into a temporary directory, and `perfbench/run.py` runs there, one run at
a time.  For each workload in turn, odd pairs run the parent first and
even pairs the change first.

The output file holds `pr` (from the `BENCH_<pr>.json` name), `what`,
`command`, `host`, `cpu` (the CPU model named in `/proc/cpuinfo`,
`os.cpu_count()` and the SIMD dispatch targets numpy enables, read where
this script runs, so that batches can be told apart by CPU class), `note`
(which names each workload's pair count), and
for each side its `git_rev`, `src_loc`, `reports` (pair 1's `.bench_out/`
report of each workload, without `samples`) and `runs` (every run's gate
line: `correct`, `attempted`, `failed` and each metric's value, keyed
`<workload> trace<T> seed<S>`, with the `calibration` taken just before
that run).

The calibration times a fixed kernel in a fresh interpreter: `sort_s`, a
seeded `np.sort` of 2^22 floats, and `loop_s`, a fixed pure-Python loop
(None when the kernel does not run).  Like `cpu`, it decides nothing; it
lets two batches, or two runs of one batch, be compared for CPU speed
before their figures are.

It prints, per workload and metric, both sides' medians, both sides'
interquartile ranges (`statistics.quantiles`' default, exclusive method),
whether the change moved beyond the parent's spread (`beyond` when the
medians differ by more than the parent's IQR, `within` otherwise, `n/a`
when the parent has fewer than two runs) and in how many pairs the change
read higher or lower.  That column is a reading aid: it decides no gate,
and neither does the script.  The exit code is 1 when any run did not
print `"correct": true`.

An A/A batch, `--parent HEAD --change HEAD`, runs one commit against
itself: its two IQR columns and pair counts show how far a gate spreads
on this host with no change at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WORKLOADS = ("desk-short", "legal-long", "ingest")


def cpu_facts() -> dict:
    """The CPU model, the CPU count and numpy's enabled dispatch targets."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.MULTILINE)
    # numpy lists the targets it was built with, and which of them the CPU
    # (less any NPY_DISABLE_CPU_FEATURES) runs
    numpy = subprocess.run(
        [sys.executable, "-c", "from numpy._core._multiarray_umath import "
         "__cpu_dispatch__ as d, __cpu_features__ as f; print(*(t for t in d if f.get(t)))"],
        capture_output=True, text=True)
    return {"model": model.group(1).strip() if model else None, "count": os.cpu_count(),
            "numpy_dispatch": numpy.stdout.split() if numpy.returncode == 0 else None}


CALIBRATION_KERNEL = """\
import time
import numpy as np
values = np.random.default_rng(0).random(1 << 22)
start = time.perf_counter()
np.sort(values)
sort_s = time.perf_counter() - start
start = time.perf_counter()
total = 0
for i in range(1 << 20):
    total += i * i % 7
print(sort_s, time.perf_counter() - start)
"""


def calibration() -> dict | None:
    """The calibration kernel's `sort_s` and `loop_s`, timed in its own process."""
    done = subprocess.run([sys.executable, "-c", CALIBRATION_KERNEL],
                          capture_output=True, text=True)
    try:
        sort_s, loop_s = map(float, done.stdout.split())
    except ValueError:
        return None
    return {"sort_s": sort_s, "loop_s": loop_s}


def workload_arg(value: str) -> tuple[str, int | None]:
    """`NAME` or `NAME:PAIRS`; the count is None when it is not given."""
    name, colon, count = value.partition(":")
    if name not in WORKLOADS:
        raise argparse.ArgumentTypeError(
            f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    if not colon:
        return name, None
    if not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"pair count must be an integer >= 1, got {count!r}")
    return name, int(count)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--change", required=True, metavar="REV")
    parser.add_argument("--workload", action="append", required=True, type=workload_arg,
                        metavar="NAME[:PAIRS]",
                        help=f"one of {', '.join(WORKLOADS)}, with its own pair count if "
                             "given; repeat to run several workloads, in the order given")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of each workload given without a count")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    parser.add_argument("--what", default="", help="one sentence on what the change does")
    parser.add_argument("--out", required=True, metavar="BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    names = [name for name, _count in args.workload]
    for name in names:
        if names.count(name) > 1:
            parser.error(f"workload {name} is given more than once")
    args.workload = [(name, args.pairs if count is None else count)
                     for name, count in args.workload]
    return args


def clone(rev: str, dest: Path) -> None:
    """A clean checkout of `rev` at `dest`, cloned from this repository."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(dest)], check=True)
    subprocess.run(["git", "-C", str(dest), "checkout", "--quiet", "--detach", commit], check=True)


def run_benchmark(checkout: Path, argv: list[str]) -> str:
    """The standard output of one `perfbench/run.py` run in `checkout`."""
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=checkout,
                          stdout=subprocess.PIPE, text=True).stdout


def parse_output(stdout: str) -> tuple[dict[str, str], dict]:
    """A run's `fact` lines, and its last line as JSON (`{}` when it is not)."""
    lines = stdout.strip().splitlines()
    facts = {}
    for parts in (line.split(" ", 2) for line in lines):
        if len(parts) == 3 and parts[0] == "fact":
            facts[parts[1]] = parts[2]
    try:
        gate = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        gate = {}
    return facts, gate if isinstance(gate, dict) else {}


def read_report(checkout: Path, name: str) -> dict | None:
    """A run's `.bench_out/` report without its samples, or None if it wrote none."""
    try:
        report = json.loads((checkout / ".bench_out" / name).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    report.pop("samples", None)
    return report


def iqr(values: tuple[float, ...]) -> float:
    """The interquartile range, exclusive method; NaN for one value."""
    if len(values) < 2:
        return math.nan
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def moved(before: tuple[float, ...], after: tuple[float, ...]) -> str:
    """`beyond` when the medians differ by more than the parent's IQR, else
    `within`; `n/a` when the parent has no IQR."""
    spread = iqr(before)
    if math.isnan(spread):
        return "n/a"
    shift = abs(statistics.median(after) - statistics.median(before))
    return "beyond" if shift > spread else "within"


def summary(runs: dict[str, list[dict]], key: str) -> list[str]:
    """One line per metric: both medians, both IQRs, whether the change moved
    beyond the parent's IQR, and the pair count each way."""
    lines = [key, f"  {'metric':<20}{'parent':>12}{'change':>12}{'parent IQR':>12}"
                  f"{'change IQR':>12}{'moved':>8}  pairs"]
    parent, change = runs["parent"][key], runs["change"][key]
    for name in dict.fromkeys(name for run in parent + change for name in run["metrics"]):
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        before, after = zip(*pairs)
        higher = sum(c > p for p, c in pairs)
        lower = sum(c < p for p, c in pairs)
        lines.append(f"  {name:<20}{statistics.median(before):>12.6g}"
                     f"{statistics.median(after):>12.6g}{iqr(before):>12.6g}{iqr(after):>12.6g}"
                     f"{moved(before, after):>8}"
                     f"  higher in {higher}, lower in {lower} of {len(pairs)}")
    return lines


def main(argv: list[str] | None = None,
         checkout: Callable[[str, Path], None] = clone,
         run: Callable[[Path, list[str]], str] = run_benchmark,
         calibrate: Callable[[], dict | None] = calibration) -> int:
    args = parse_args(argv)
    scale = ["--scale", "smoke"] if args.scale == "smoke" else []
    record = {side: {"git_rev": None, "src_loc": None, "reports": {}, "runs": {}} for side in SIDES}
    host: dict[str, str] = {}
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            checkout(getattr(args, side), dirs[side])
        for workload, n_pairs in args.workload:
            key = f"{workload} trace{args.trace} seed{args.seed}"
            report_name = f"{workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
            bench_argv = ["--workload", workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace), *scale]
            for pair in range(1, n_pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    calibrated = calibrate()
                    facts, gate = parse_output(run(dirs[side], bench_argv))
                    correct = gate.get("correct") is True
                    all_correct &= correct
                    side_record = record[side]
                    side_record["git_rev"] = side_record["git_rev"] or facts.get("git_rev")
                    if side_record["src_loc"] is None and facts.get("src_loc", "").isdigit():
                        side_record["src_loc"] = int(facts["src_loc"])
                    host = host or facts
                    side_record["runs"].setdefault(key, []).append({
                        "pair": pair, "first": order[0], "correct": correct,
                        "attempted": gate.get("attempted"), "failed": gate.get("failed"),
                        "metrics": {name: metric["value"]
                                    for name, metric in gate.get("metrics", {}).items()},
                        "calibration": calibrated,
                    })
                    if pair == 1:
                        side_record["reports"][key] = read_report(dirs[side], report_name)
                    print(f"{key} pair {pair} {side}: correct={correct}", file=sys.stderr)

    match = re.fullmatch(r"BENCH_(\d+)\.json", Path(args.out).name)
    command = (f"python3 perfbench/run.py --workload W --seed {args.seed} "
               f"--seconds {args.seconds:g} --trace {args.trace}" + " --scale smoke" * bool(scale))
    workloads = ", ".join(f"{name} ({n} pairs)" for name, n in args.workload)
    document = {
        "pr": int(match.group(1)) if match else None,
        "what": args.what,
        "command": command,
        "host": (f"{host.get('nproc', '?')} CPUs {host.get('machine', '?')}, Python "
                 f"{host.get('python', '?')}, numpy {host.get('numpy', '?')}"),
        "cpu": cpu_facts(),
        "note": (f"W is each of {workloads}, in that order. runs holds the gate line of every "
                 "run, keyed <workload> trace<T> seed<S>, in pair order, with only each "
                 "metric's value, and the calibration kernel's times just before it; first names "
                 "the side that ran first in that pair (the parent in odd pairs). Both sides ran from clean clones of their commits, one run at a "
                 "time. reports holds pair 1's .bench_out/ report without samples."),
        **record,
    }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    for key in record["parent"]["runs"]:
        print("\n".join(summary({side: record[side]["runs"] for side in SIDES}, key)))
    if not all_correct:
        print("error: some run did not print \"correct\": true", file=sys.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
