#!/usr/bin/env python3
"""Run the Tier-1 test suite and check that only the documented criteria fail.

Runs, from the repository root,

    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \\
        python -m pytest -q --continue-on-collection-errors

and exits 0 only when the failed set is exactly acceptance criteria 3, 9
and 10, the three that fail by design (see README "Tests").  Any other
failed or erroring test, a passing criterion 3, 9 or 10, or a pytest
run that did not finish (collection or internal error) exits 1.  The
script prints pytest's closing summary line, its five slowest tests
(``--durations=5``), the verdict lines of the three criteria, with
their measured numbers, and every unexpected failure.

    python scripts/tier1_gate.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = {3, 9, 10}
_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_")
_VERDICT = re.compile(r"criterion +(\d+): (PASS|FAIL) - ")
_RESULT = re.compile(r"^(FAILED|ERROR) (\S+)")
_DURATION = re.compile(r"^\d+\.\d+s (call|setup|teardown) ")


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--durations=5",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    lines = proc.stdout.splitlines()
    failed, unexpected = set(), []
    for line in lines:
        match = _RESULT.match(line)
        if not match:
            continue
        crit = _CRITERION.search(match.group(2))
        if match.group(1) == "FAILED" and crit:
            failed.add(int(crit.group(1)))
        if not (match.group(1) == "FAILED" and crit
                and int(crit.group(1)) in EXPECTED):
            unexpected.append(line)
    verdicts = {int(m.group(1)): line for line in lines
                if (m := _VERDICT.match(line))}

    print(lines[-1] if lines else "pytest printed nothing")
    for line in lines:
        if _DURATION.match(line):
            print(f"slowest: {line}")
    for index in sorted(EXPECTED):
        print(verdicts.get(index, f"criterion {index:2d}: no verdict line"))
    for line in unexpected:
        print(f"unexpected: {line}")
    ok = (proc.returncode in (0, 1) and not unexpected
          and failed == EXPECTED)
    if not ok:
        print("\n".join(lines[-40:]), file=sys.stderr)
    print(f"tier-1 gate: {'PASS' if ok else 'FAIL'} (failed criteria "
          f"{sorted(failed)}, expected {sorted(EXPECTED)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
