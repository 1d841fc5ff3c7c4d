"""Benchmark runner: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cesaro-pairs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every repetition is a fresh
interpreter (``child.py``) that imports the checkout's ``src`` through
an absolute ``PYTHONPATH`` and calls ``liouconv.cli.main(argv)``
in-process, one call after another, as a user would start the CLI.

``--trace 0`` repeats the workload while another repetition still fits
in ``--seconds`` and reports the end-to-end metrics: medians over the
repetitions, and for ``setup_s`` over at least SETUP_SAMPLES
interpreters.  ``--trace 1`` runs one plain and one traced interpreter
and reports the per-layer metrics.  Outputs are checked after each
interpreter exits, outside the timed region.  The last line of stdout
is the JSON result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks
from tracing import layer_metrics
from workloads import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# the whole run must end within 180 s; keep a margin for the checks
BUDGET_S = 165.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def environment(root):
    """What the timings depend on, recorded next to every result."""
    env = {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "timing": "wall and CPU time of the benchmark's own processes; "
                  "no system-wide tracing",
    }
    for level, index in (("l2", 2), ("l3", 3)):
        size = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        env[level] = size.read_text().strip() if size.exists() else None
    return env


def _commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Runner:
    """Starts interpreters for one plan and collects what they report."""

    def __init__(self, root, plan, seed, ordinates):
        self.src = root / "src"
        self.plan = plan
        self.work = root / ".bench_work" / f"{plan.workload}-seed{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + BUDGET_S
        self.ordinates = ordinates
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.count = 0

    def spawn(self, traced=False, setup_only=False):
        """Run one interpreter, check its outputs, and return its result."""
        self.count += 1
        work = self.work / f"run{self.count}"
        work.mkdir(parents=True)
        spec = {"setup": [vars(c) for c in self.plan.setup],
                "timed": [vars(c) for c in self.plan.timed],
                "src": str(self.src), "traced": traced,
                "setup_only": setup_only,
                "run_id": f"{self.plan.workload}/{work.name}"}
        (work / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next interpreter")
        with open(work / "output.log", "w") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"),
                     str(work / "spec.json"), repr(spawned)],
                    cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"interpreter {work.name} ran past the "
                                 f"{BUDGET_S:.0f} s budget")
        out = work / "result.json"
        if proc.returncode != 0 or not out.is_file():
            tail = (work / "output.log").read_text()[-2000:]
            raise BenchError(f"interpreter {work.name} exited with "
                             f"{proc.returncode}:\n{tail}")
        result = json.loads(out.read_text())
        try:
            found = checks.check(work, self.plan, self.ordinates)
        except Exception:    # malformed output must count, not stop the run
            crash = traceback.format_exc(limit=3)
            found = {s["name"]: [f"check crashed: {crash}"]
                     for s in result["calls"]}
        for status in result["calls"]:
            bad = list(found.get(status["name"], []))
            if status["rc"] != 0:
                bad.insert(0, f"exit status {status['rc']}")
            self.attempted += 1
            if bad:
                self.failed += 1
                self.problems += [f"{status['name']}: {b}" for b in bad]
        shutil.rmtree(work)
        return result

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def plain(runner, seconds):
    start = time.monotonic()
    reps = []
    while True:   # another repetition only if it should end in time
        t = time.monotonic()
        reps.append(runner.spawn())
        cost = time.monotonic() - t
        if time.monotonic() - start + cost > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(setup_only=True)["setup_s"])
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }, {"wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps], "setup_s": setups}


def traced(runner, seed):
    # alternate the order so neither side always runs on a cold cache
    if seed % 2:
        plain_run, traced_run = runner.spawn(), runner.spawn(traced=True)
    else:
        traced_run, plain_run = runner.spawn(traced=True), runner.spawn()
    spans = runner.work.parent / f"spans-{runner.plan.workload}-seed{seed}.json"
    spans.write_text(json.dumps(traced_run["spans"]))
    layers = layer_metrics(traced_run["spans"], traced_run["window"])
    wall = traced_run["wall_s"]
    layers.update({
        "cli.report_bytes": traced_run["report_bytes"],
        "proc.cpu_s": traced_run["cpu_s"],
        "proc.cpu_per_wall": traced_run["cpu_s"] / wall,
        "trace.overhead_frac": wall / plain_run["wall_s"] - 1.0,
    })
    return layers, {"traced_wall_s": wall, "plain_wall_s": plain_run["wall_s"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    zeros_txt = root / "src" / "liouconv" / "data" / "zeros_10k.txt"
    if not (root / "src" / "liouconv" / "cli.py").is_file() or \
            not zeros_txt.is_file():
        print("error: run from a checkout root that holds src/liouconv",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    plan = make_plan(args.workload, args.seed, str(zeros_txt))
    runner = Runner(root, plan, args.seed, checks.read_ordinates(zeros_txt))
    try:
        if args.trace:
            metrics, detail = traced(runner, args.seed)
        else:
            metrics, detail = plain(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    env = environment(root)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "detail": detail,
              "problems": runner.problems, "result": result}
    log = root / ".bench_work" / "results.jsonl"
    with open(log, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for line in runner.problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
