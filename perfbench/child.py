"""One benchmark interpreter: set up, run the timed CLI calls, report.

Run by ``run.py`` as ``python child.py SPEC SPAWN_TIME``, with the
working directory set to a fresh scratch directory and ``PYTHONPATH``
set to the absolute path of the checkout's ``src``.  SPAWN_TIME is the
runner's ``time.monotonic()`` just before the process was started, so
set-up time includes interpreter start and imports.  The result goes to
``result.json`` next to SPEC; CLI output goes to this process's stdout,
which the runner captures.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def run_calls(cli, calls, statuses):
    for call in calls:
        try:
            rc = cli.main(call["argv"])
        except Exception:        # a crash is a failed operation, not ours
            traceback.print_exc()
            rc = "exception"
        statuses.append({"name": call["name"], "rc": rc})
        sys.stdout.flush()


def main():
    spec_path, spawned = Path(sys.argv[1]), float(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    src = spec["src"]
    import liouconv
    import liouconv.cli as cli
    where = Path(liouconv.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"liouconv imported from {where}, not from {src}")

    tracer = None
    if spec["traced"]:
        from tracing import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install(liouconv)

    statuses = []
    run_calls(cli, spec["setup"], statuses)
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s, "calls": statuses}
    if not spec["setup_only"]:
        cpu0 = os.times()
        t0 = time.perf_counter()
        run_calls(cli, spec["timed"], statuses)
        t1 = time.perf_counter()
        cpu1 = os.times()
        result.update(
            wall_s=t1 - t0, window=[t0, t1],
            cpu_s=(cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
            peak_rss_mib=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            report_bytes=sum(
                os.path.getsize(p)
                for call in spec["timed"] for out in call["outputs"]
                for p in (out, out + ".manifest.json") if os.path.exists(p)))
    if tracer is not None:
        result["spans"] = tracer.spans
    (spec_path.parent / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
