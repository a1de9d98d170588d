"""scripts/bench_pairs.py with a fake checkout and a fake benchmark runner."""

import importlib.util
import json

import pytest

from conftest import REPO_ROOT


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeBench:
    """Checks out a directory naming its revision; each run prints a gate line."""

    def __init__(self, broken_run=None, shift=0.5):
        self.calls = []
        self.broken_run = broken_run
        self.shift = shift

    def checkout(self, rev, dest):
        dest.mkdir(parents=True)
        (dest / "REV").write_text(rev)

    def calibrate(self):
        """Stands in for the calibration kernel, which would start a process."""
        return {"sort_s": float(len(self.calls) + 1), "loop_s": 0.5}

    @staticmethod
    def cpu_facts():
        """Stands in for the CPU probe, whose numpy query would start a process."""
        return {"model": "Test CPU", "count": 2, "numpy_dispatch": ["X86_V3"]}

    def run(self, checkout, argv):
        rev = (checkout / "REV").read_text()
        workload = argv[argv.index("--workload") + 1]
        self.calls.append((workload, rev))
        n = len(self.calls)
        report = checkout / ".bench_out" / f"{workload}-smoke-seed0-trace0.json"
        report.parent.mkdir(exist_ok=True)
        report.write_text(json.dumps({"workload": workload, "samples": [1.0] * 5}))
        if n == self.broken_run:
            return "fact src_loc 10\nTraceback: it broke\n"
        gate = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "setup_s": {"value": float(n) + (self.shift if rev == "new" else 0.0), "unit": "s"}}}
        return (f"fact git_rev {rev}-sha\nfact src_loc {20 if rev == 'new' else 10}\n"
                f"fact nproc 2\nfact machine x86_64\nfact python 3.11\nfact numpy 2\n"
                f"metric setup_s {n} s\n{json.dumps(gate)}\n")


def run_script(tmp_path, fake, pairs=3, workloads=("desk-short", "ingest")):
    out = tmp_path / "BENCH_99.json"
    argv = ["--parent", "old", "--change", "new", "--pairs", str(pairs), "--scale", "smoke",
            "--out", str(out), "--what", "a test"]
    for workload in workloads:
        argv += ["--workload", workload]
    code = load_script().main(argv, checkout=fake.checkout, run=fake.run,
                              calibrate=fake.calibrate, cpu_facts=fake.cpu_facts)
    return code, json.loads(out.read_text())


def test_sides_alternate_which_runs_first(tmp_path):
    fake = FakeBench()
    code, _document = run_script(tmp_path, fake)
    assert code == 0
    one_workload = ["old", "new", "new", "old", "old", "new"]
    assert fake.calls == ([("desk-short", rev) for rev in one_workload]
                          + [("ingest", rev) for rev in one_workload])


def test_each_workload_takes_its_own_pair_count(tmp_path):
    fake = FakeBench()
    code, document = run_script(tmp_path, fake, pairs=2, workloads=("desk-short:3", "ingest"))
    assert code == 0
    assert fake.calls == ([("desk-short", rev) for rev in ["old", "new", "new", "old", "old", "new"]]
                          + [("ingest", rev) for rev in ["old", "new", "new", "old"]])
    assert document["note"].startswith(
        "W is each of desk-short (3 pairs), ingest (2 pairs), in that order. ")
    runs = document["change"]["runs"]
    assert [run["pair"] for run in runs["desk-short trace0 seed0"]] == [1, 2, 3]
    assert [run["pair"] for run in runs["ingest trace0 seed0"]] == [1, 2]


@pytest.mark.parametrize("workloads", [("desk-short:0",), ("desk-short:x",), ("desk-short:",),
                                       ("nope:2",), ("ingest", "ingest:3")])
def test_bad_workload_arguments_are_rejected(tmp_path, workloads):
    fake = FakeBench()
    with pytest.raises(SystemExit) as exit_info:
        run_script(tmp_path, fake, workloads=workloads)
    assert exit_info.value.code == 2
    assert fake.calls == []


def test_output_file_form(tmp_path, capsys):
    code, document = run_script(tmp_path, FakeBench(), pairs=2, workloads=("ingest",))
    assert code == 0
    assert list(document) == ["pr", "what", "command", "host", "cpu", "note", "parent", "change"]
    assert document["pr"] == 99
    assert document["what"] == "a test"
    assert document["command"] == ("python3 perfbench/run.py --workload W --seed 0 "
                                   "--seconds 12 --trace 0 --scale smoke")
    assert document["host"] == "2 CPUs x86_64, Python 3.11, numpy 2"
    # read once from the host that runs the script, not from the runs
    assert document["cpu"] == {"model": "Test CPU", "count": 2, "numpy_dispatch": ["X86_V3"]}
    assert document["parent"]["git_rev"] == "old-sha"
    assert document["change"]["src_loc"] == 20
    key = "ingest trace0 seed0"
    for side in ("parent", "change"):
        assert list(document[side]) == ["git_rev", "src_loc", "reports", "runs"]
        assert document[side]["reports"] == {key: {"workload": "ingest"}}
    # pair 1: parent (run 1), change (run 2); pair 2: change (run 3), parent (run 4)
    # each run keeps the calibration taken just before it (run n reads n)
    assert document["change"]["runs"][key] == [
        {"pair": 1, "first": "parent", "correct": True, "attempted": 3, "failed": 0,
         "metrics": {"setup_s": 2.5}, "calibration": {"sort_s": 2.0, "loop_s": 0.5}},
        {"pair": 2, "first": "change", "correct": True, "attempted": 3, "failed": 0,
         "metrics": {"setup_s": 3.5}, "calibration": {"sort_s": 3.0, "loop_s": 0.5}},
    ]
    assert [run["metrics"]["setup_s"] for run in document["parent"]["runs"][key]] == [1.0, 4.0]
    header, last = capsys.readouterr().out.splitlines()[-2:]
    assert header.split() == "metric parent change parent IQR change IQR moved pairs".split()
    # parent runs 1.0 and 4.0, change runs 2.5 and 3.5: IQRs 4.5 and 1.5
    assert last.split() == "setup_s 2.5 3 4.5 1.5 within higher in 1, lower in 1 of 2".split()


def test_cpu_facts_form():
    cpu = load_script().cpu_facts()
    assert list(cpu) == ["model", "count", "numpy_dispatch"]
    assert cpu["model"] is None or isinstance(cpu["model"], str)
    assert cpu["count"] is None or cpu["count"] >= 1
    assert all(isinstance(target, str) for target in cpu["numpy_dispatch"])


@pytest.mark.parametrize("shift, reading", [(5.0, "within"), (5.5, "beyond")])
def test_moved_compares_the_median_shift_with_the_parent_iqr(tmp_path, capsys, shift, reading):
    code, _document = run_script(tmp_path, FakeBench(shift=shift), pairs=3, workloads=("ingest",))
    assert code == 0
    # parent runs 1, 4 and 5: median 4, IQR 5 - 1 = 4; the change's median is 3 + shift
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split()[:2] + last.split()[5:7] == ["setup_s", "4", reading, "higher"]


def test_one_pair_has_no_spread(tmp_path, capsys):
    code, _document = run_script(tmp_path, FakeBench(), pairs=1, workloads=("ingest",))
    assert code == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split() == "setup_s 1 2.5 nan nan n/a higher in 1, lower in 0 of 1".split()


@pytest.mark.parametrize("broken_run", [1, 4])
def test_a_run_that_is_not_correct_exits_one(tmp_path, capsys, broken_run):
    code, document = run_script(tmp_path, FakeBench(broken_run), pairs=2, workloads=("ingest",))
    assert code == 1
    runs = document["parent"]["runs"]["ingest trace0 seed0"]
    assert [run["correct"] for run in runs] == [broken_run != 1, broken_run != 4]
    assert "did not print" in capsys.readouterr().err
