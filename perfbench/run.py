#!/usr/bin/env python3
"""opalg benchmark: time to a verdict per CLI request.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Each request is a fresh child process (child.py) that imports ``opalg.cli``
from this checkout's ``src/`` and runs one ``opalg check`` or ``opalg search``.
The load is a closed loop with one client: the next request starts when the
previous child has exited.  A fresh process per request matters because
opalg keeps module-level verdict caches that a CLI user never reuses.

A workload is a fixed cycle of requests built from the seed (workloads.py).
The runner repeats whole cycles, at least MIN_CYCLES of them, until
``--seconds`` have passed, so every run has the same request mix.  Every
request is checked against known answers; repeats of a request must give
byte-identical reports.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one cycle
untraced and one traced (tracing.py) and prints the per-layer metrics; no
end-to-end figure is ever taken from a traced run.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Files go to .perfbench_work/ (removed at the end) and .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

import workloads

MIN_CYCLES = 3
REQUEST_LIMIT_S = 100.0  # per request; the heaviest request takes about 5 s untraced
RUN_BUDGET_S = 150.0  # no request starts later than this after launch
HARD_STOP_S = 170.0  # and none runs past this, so the run ends within 180 s
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 50)
WORK = ".perfbench_work"
OUT = ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "requests_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Layers whose self time is reported one by one; any other module of the
# package (the package __init__, or one added later) goes to opalg.other_self_s.
MODULE_LAYERS = (
    "core", "catalog", "oracles", "lie", "bunch", "jordan", "algfile",
    "suites", "searches", "sampling", "cli", "scalars", "findings",
)
PER_LAYER = {
    "scalars.fraction_ops": "count",
    "scalars.fraction_self_s": "s",
    "core.vec_iadd.calls": "count",
    "core.vec_iadd.self_s": "s",
    "core.contract.calls": "count",
    "core.contract.self_s": "s",
    "core.trilinear_full_apply.calls": "count",
    **{f"core.scan.arity{a}.{k}": u for a in (2, 3, 4, 5) for k, u in (("tuples", "count"), ("s", "s"))},
    "catalog.build_s": "s",
    "catalog.validation_s": "s",
    "lie.check_s": "s",
    "bunch.check_s": "s",
    "jordan.check_s": "s",
    "algfile.parse_s": "s",
    "algfile.render_s": "s",
    "suites.run_suite_s": "s",
    "suites.report_render_s": "s",
    "suites.report_bytes": "bytes",
    "searches.trials": "count",
    "searches.checked_per_trial": "ratio",
    **{f"{m}.self_s": "s" for m in MODULE_LAYERS},
    "opalg.other_self_s": "s",
    "stdlib.self_s": "s",
    "trace.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}
# Self times that partition the traced wall, apart from the profiler's own share.
SELF_METRICS = (
    *(f"{m}.self_s" for m in MODULE_LAYERS),
    "opalg.other_self_s", "scalars.fraction_self_s", "stdlib.self_s", "trace.self_s",
)
ENTRY_METRICS = {
    "catalog.build": "catalog.build_s",
    "catalog.validation": "catalog.validation_s",
    "lie.check": "lie.check_s",
    "bunch.check": "bunch.check_s",
    "jordan.check": "jordan.check_s",
    "algfile.parse": "algfile.parse_s",
    "algfile.render": "algfile.render_s",
    "suites.run_suite": "suites.run_suite_s",
    "suites.report_render": "suites.report_render_s",
}


class Failure(Exception):
    pass


def spawn(argv, log_path, limit):
    """Run argv to completion; return (wall seconds, exit code, rusage, timed out)."""
    with open(log_path, "wb") as log:
        actions = [(os.POSIX_SPAWN_CLOSE, 0), (os.POSIX_SPAWN_DUP2, log.fileno(), 1), (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        started = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    timed_out = False
    try:
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], limit)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(fd)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        try:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        except ChildProcessError:
            pass
        raise
    wall = time.perf_counter() - started
    return wall, os.waitstatus_to_exitcode(status), usage, timed_out


def child_argv(record, trace, cli_args):
    return [sys.executable, "-I", CHILD, ROOT, record, "1" if trace else "0", *cli_args]


class Runner:
    def __init__(self, workload, seed, launched):
        self.workload = workload
        self.hard_stop = launched + HARD_STOP_S
        self.work = os.path.join(WORK, f"{workload.name}-seed{seed}")
        self.count = 0
        self.first_sha = {}  # cycle position -> sha256 of its first report
        self.cycle_bytes = hashlib.sha256()
        self.results = []
        self.failures = []
        self.skipped = 0  # requests of a cut-short cycle that never ran
        self.backends = set()

    # -- set-up (not timed) ----------------------------------------------

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        for sub in ("in", "out", "rec"):
            os.makedirs(os.path.join(self.work, sub))
        started = time.perf_counter()
        self._tool(["catalog", "list"])  # compiles bytecode before anything is timed
        for spec, name, operators in self.workload.exports:
            path = os.path.join(self.work, "in", name)
            self._tool(["catalog", "export", spec, "--out", path])
            if operators:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc["operators"] = operators
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        for req in self.workload.cycle:
            if req.route == "file":
                req.input_path = os.path.join(self.work, "in", req.input_file)
                req.argv[1] = req.input_path
        return time.perf_counter() - started

    def _tool(self, cli_args):
        record = os.path.join(self.work, "rec", "setup.json")
        log = os.path.join(self.work, "rec", "setup.log")
        _, code, _, _ = spawn(child_argv(record, False, cli_args), log, REQUEST_LIMIT_S)
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                raise Failure(f"set-up step {' '.join(cli_args)} exited {code}: {fh.read()[-2000:]}")

    # -- one request ---------------------------------------------------------

    def execute(self, position, cycle_no, trace):
        req = self.workload.cycle[position]
        k = self.count
        self.count += 1
        record_path = os.path.join(self.work, "rec", f"{k}.json")
        out_path = os.path.join(self.work, "out", f"{k}.json")
        log_path = os.path.join(self.work, "rec", f"{k}.log")
        cli_args = [*req.argv, "--format", "json", "--out", out_path]
        limit = min(REQUEST_LIMIT_S, self.hard_stop - time.perf_counter())
        wall, code, usage, timed_out = spawn(child_argv(record_path, trace, cli_args), log_path, limit)
        result = {
            "position": position, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "exit": code, "rss_kb": usage.ru_maxrss, "trials": req.trials,
        }
        errors = []
        record = None
        if timed_out:
            errors.append(f"killed after {limit:.0f} s (request limit or end of the run's time budget)")
        try:
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                errors.append("child wrote no record: " + fh.read()[-500:])
        if record is not None:
            result["import_s"] = record["import_s"]
            result["trace"] = record.get("trace")
            self.backends.add(record["backend"])
            if record["crash"]:
                errors.append("crashed: " + record["crash"].strip().splitlines()[-1])
            if not record["opalg_file"].startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
                errors.append(f"imported opalg from {record['opalg_file']}, not from this checkout's src/")
        if code != req.expect:
            errors.append(f"exit code {code}, expected {req.expect}")
        data = b""
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
            os.remove(out_path)
        result["bytes"] = len(data)
        if not errors:
            errors.extend(self._check_report(req, data))
        sha = hashlib.sha256(data).hexdigest()
        if position not in self.first_sha:
            self.first_sha[position] = sha
            self.cycle_bytes.update(data)
        elif self.first_sha[position] != sha:
            errors.append(f"report bytes differ from the first run of this request (cycle {cycle_no})")
        result["errors"] = errors
        if errors:
            self.failures.append({"request": req.label, "cycle": cycle_no, "exit": code, "expected": req.expect, "errors": errors})
        self.results.append(result)
        return result

    @staticmethod
    def _check_report(req, data):
        try:
            report = json.loads(data)
        except ValueError:
            return ["report is missing or not JSON"]
        errors = []
        for check in req.checks:
            try:
                problem = check(report, req)
            except (KeyError, IndexError, TypeError) as exc:
                problem = f"report lacks an expected field: {exc!r}"
            if problem:
                errors.append(problem)
        return errors

    # -- loops ---------------------------------------------------------------

    def run_cycles(self, seconds, min_cycles, trace, deadline):
        """Whole cycles until both limits are met; returns (wall, cycles, results).

        When the deadline cuts a cycle short, or a required cycle never starts,
        each request of it that did not run counts as failed, so the run is
        reported incorrect: a slow commit cannot pass for a fast one by
        dropping the heavy end of a cycle.
        """
        first = len(self.results)
        started = time.perf_counter()
        cycles = 0
        size = len(self.workload.cycle)
        while cycles < min_cycles or time.perf_counter() - started < seconds:
            position = 0
            while position < size and time.perf_counter() < deadline:
                self.execute(position, cycles, trace)
                position += 1
            if position == size:
                cycles += 1
                continue
            if position or cycles < min_cycles:
                self.not_run(position, cycles)
                for missing in range(cycles + 1, min_cycles):
                    self.not_run(0, missing)
            break
        return time.perf_counter() - started, cycles, self.results[first:]

    def not_run(self, position, cycle_no):
        for req in self.workload.cycle[position:]:
            self.skipped += 1
            self.failures.append({"request": req.label, "cycle": cycle_no, "exit": None, "expected": req.expect,
                                  "errors": ["not run: the run's time budget ran out before this request"]})


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(n_min):
    """Highest listed percentile leaving at least ten samples beyond it at the run's minimum size."""
    for p in TAIL_PERCENTILES:
        if n_min - math.ceil(p * n_min / 100) >= 10:
            return p
    return 50


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def end_to_end(results, wall, percentile):
    if not results:  # nothing ran before the deadline; the run is reported as failed
        return {name: 0.0 for name in END_TO_END}, {name: 0 for name in END_TO_END}
    walls = [r["wall"] for r in results]
    imports = [r["import_s"] for r in results if "import_s" in r]
    values = {
        "setup_s": statistics.median(imports) if imports else 0.0,
        "request_s.p50": statistics.median(walls),
        "request_s.tail": nearest_rank(walls, percentile),
        "requests_per_s": len(results) / wall,
        "trials_per_s": sum(r["trials"] for r in results) / wall,
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
    }
    samples = {name: len(walls) for name in values}
    samples["setup_s"] = len(imports)
    return values, samples


def per_layer(traced, untraced_wall, traced_wall, cycle):
    values = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER.items()}
    self_s = {}
    checked = 0
    trials = 0
    for result in traced:
        t = result.get("trace")
        if t is None:
            continue
        for layer, seconds in t["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        values["scalars.fraction_ops"] += t["fraction_ops"]
        values["core.vec_iadd.calls"] += t["vec_iadd"][0]
        values["core.vec_iadd.self_s"] += t["vec_iadd"][1]
        values["core.contract.calls"] += t["contract"][0]
        values["core.contract.self_s"] += t["contract"][1]
        values["core.trilinear_full_apply.calls"] += t["trilinear_full_apply"]
        for arity, (_calls, tuples, seconds) in t["scan"].items():
            if f"core.scan.arity{arity}.s" in values:
                values[f"core.scan.arity{arity}.tuples"] += tuples
                values[f"core.scan.arity{arity}.s"] += seconds
        for category, seconds in t["entry_s"].items():
            values[ENTRY_METRICS[category]] += seconds
        values["trace.wall_s"] += t["wall_s"]
        values["suites.report_bytes"] += result["bytes"]
        req = cycle[result["position"]]
        if req.route == "search":
            trials += req.trials
            checked += t["calls"].get(f"searches->{req.main_check}", 0)
    values["searches.trials"] = trials
    values["searches.checked_per_trial"] = checked / trials if trials else 0.0
    values["scalars.fraction_self_s"] = self_s.pop("fractions", 0.0)
    values["stdlib.self_s"] = self_s.pop("stdlib", 0.0)
    values["trace.self_s"] = self_s.pop("trace", 0.0)
    for module in MODULE_LAYERS:
        values[f"{module}.self_s"] = self_s.pop(module, 0.0)
    values["opalg.other_self_s"] = sum(self_s.values())
    values["trace.unattributed_s"] = values["trace.wall_s"] - sum(values[k] for k in SELF_METRICS)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="opalg CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="five cheap requests per cycle, for smoke tests")
    return parser.parse_args(argv)


def main(argv=None):
    launched = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "opalg", "cli.py")):
        sys.stderr.write(f"error: no opalg sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.chdir(ROOT)
    # SIGTERM unwinds like an exit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = workloads.build(args.workload, args.seed)
    if args.quick:
        workload.cycle = workload.cycle[:5]
        needed = {r.input_file for r in workload.cycle}
        workload.exports = [e for e in workload.exports if e[1] in needed]
    runner = Runner(workload, args.seed, launched)
    load_start = os.getloadavg()
    deadline = launched + RUN_BUDGET_S
    try:
        export_s = runner.setup()
        if args.trace:
            untraced_wall, _, _ = runner.run_cycles(0, 1, False, deadline)
            traced_wall, cycles, traced = runner.run_cycles(0, 1, True, deadline)
            metrics = per_layer(traced, untraced_wall, traced_wall, workload.cycle)
            units = PER_LAYER
            samples = {name: len(traced) for name in metrics}
            percentile = None
        else:
            wall, cycles, results = runner.run_cycles(args.seconds, MIN_CYCLES, False, deadline)
            percentile = tail_percentile(MIN_CYCLES * len(workload.cycle))
            metrics, samples = end_to_end(results, wall, percentile)
            units = END_TO_END
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted = len(runner.results) + runner.skipped
    failed = len(runner.failures)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "backend": sorted(runner.backends),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "load_model": "closed loop, 1 client, fresh process per request",
        "cycle_requests": len(workload.cycle),
        "cycles": cycles,
        "setup_export_s": export_s,
        "tail_percentile": percentile,
        "samples": samples,
        "error_rate": failed / attempted if attempted else 1.0,
        "report_sha256": runner.cycle_bytes.hexdigest(),
        "failures": runner.failures,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for i, result in enumerate(traced):
                for name, caller, start, duration, parent in (result.get("trace") or {}).get("spans", ()):
                    fh.write(json.dumps({"request": i, "label": workload.cycle[result["position"]].label,
                                         "name": name, "caller": caller, "start_s": start,
                                         "duration_s": duration, "parent": parent}) + "\n")

    print(f"workload {workload.name} seed {args.seed}: {cycles} cycle(s) of {len(workload.cycle)} requests, "
          f"{attempted} attempted, closed loop with one client")
    for name, value in metrics.items():
        extra = ""
        if name == "request_s.tail":
            extra = f"  (p{percentile}, nearest rank)"
        print(f"  {name:34s} {value:.6g} {units[name]}  n={samples[name]}{extra}")
    print(f"  {'error_rate':34s} {record['error_rate']:.6g}  ({failed} of {attempted} requests failed)")
    print(f"  report_sha256 {record['report_sha256']}")
    for f in runner.failures:
        print(f"  FAILED exit={f['exit']} expected={f['expected']} cycle={f['cycle']}: {f['request']}: {'; '.join(f['errors'])}")
    print("run-record " + json.dumps(record, sort_keys=True))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        requests = [[r["position"], r["wall"], r["cpu"], r["exit"]] for r in runner.results]
        json.dump({"record": record, "metrics": metrics, "requests": requests}, fh, indent=1, sort_keys=True)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(2)
