"""Smoke test of the benchmark's own output: schema, metric names, error rate.

    python3 -m pytest perfbench/test_smoke.py

Runs run.py in --quick mode (five cheap requests per cycle) on every workload,
untraced and traced.  No timing is checked; the traced layer self times must
add up to the traced wall, and requests cut off by the run's time budget must
fail the run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def quick_run(workload, trace, seed=7, cwd=ROOT, run_py=os.path.join(HERE, "run.py")):
    argv = [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record = next(line for line in lines if line.startswith("run-record "))
    return json.loads(lines[-1]), json.loads(record[len("run-record "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    result, record = parse(quick_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0 and record["failures"] == []
    assert len(record["report_sha256"]) == 64
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert all(v >= 0 for name, v in values.items() if name.endswith("self_s"))
        # the layer self times add up to the traced wall, apart from the profiler's own share
        assert abs(values["trace.unattributed_s"]) < 0.05 * values["trace.wall_s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_requests_cut_off_by_the_time_budget_fail_the_run(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "RUN_BUDGET_S", 0.0)
    monkeypatch.setattr(run.signal, "signal", lambda *_: None)
    monkeypatch.chdir(ROOT)
    argv = ["--workload", "search-sweep", "--seed", "7", "--seconds", "0", "--trace", str(trace), "--quick"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("run-record "))[len("run-record "):])
    cycles = 2 if trace else run.MIN_CYCLES  # traced: one untraced and one traced pass
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 5 * cycles
    assert all("not run" in f["errors"][0] for f in record["failures"])


def test_a_cycle_cut_short_counts_as_failed(monkeypatch):
    class Clock:
        now = 0.0

        def perf_counter(self):
            return self.now

    clock = Clock()
    monkeypatch.setattr(run, "time", clock)
    workload = workloads.build("search-sweep", 1)
    workload.cycle = workload.cycle[:5]
    runner = run.Runner(workload, 1, 0.0)

    def execute(position, cycle_no, trace):
        clock.now += 1.0
        runner.results.append({"position": position})

    monkeypatch.setattr(runner, "execute", execute)
    _, cycles, results = runner.run_cycles(6, 1, False, deadline=10.0)
    assert cycles == 2 and len(results) == 10 and runner.failures == []  # whole cycles only
    runner.results.clear()
    clock.now = 0.0
    _, cycles, results = runner.run_cycles(100, 1, False, deadline=7.0)
    assert cycles == 1 and len(results) == 7
    assert runner.skipped == 3 and [f["cycle"] for f in runner.failures] == [1, 1, 1]


def test_same_seed_gives_same_report_bytes():
    first = parse(quick_run("triple-suites", 0, seed=3))[1]["report_sha256"]
    again = parse(quick_run("triple-suites", 0, seed=3))[1]["report_sha256"]
    other = parse(quick_run("triple-suites", 0, seed=4))[1]["report_sha256"]
    assert first == again != other


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = quick_run("lie-suites", 0, cwd=tmp_path, run_py=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
