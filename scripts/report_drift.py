#!/usr/bin/env python3
"""Compare the verify reports and zero enrichment of two source trees.

Each tree enriches all 10^4 bundled ordinates (gamma up to about 9878),
and the script prints, for zeta'(rho) and for zeta(2 rho), "identical"
when the arrays match bit for bit and the largest relative move
otherwise.  Each tree also runs the same 24 `verify` cases (every
target at small sizes, plus L, M, cesaro, dfold and `dfold --d 2` on
their default limit and sample grid, `dfold --d 4`, `dirichlet --s 3`,
`exponential` on its default y grid 0.1/0.05/0.02/0.01,
`weighted --d 3` with zeros, `weighted` with zeros at the fractional
eta*a = 48.1, where the boundary term and both kink families of the
kernel are live, `identity` over six trials, which reach
both kinds at d = 2 and 3, 0 < eta*a < 1 and the boundary term, L
and cesaro cut to 40 zeros by `--count`, and L and M at 3e6, where the
sieve tables span several segments) in its own interpreter, against
one shared 80-zero cache made by the new tree, inside a temporary
directory.  For each case the script prints "identical" when the two
CSV reports match byte for byte.  Otherwise it prints each moved
float column with its largest |change| over max(1, |main|, |single|,
|double|, |direct|, |total|) of the row (the old tree's values), each
moved integer column as old→new at its largest |change|, each summary
key only the new or only the old report has as "summary +key" or
"summary -key", each moved shared summary key the same way with floats
scaled by max(1, |old|), "changed" for any other value, and "header
differs" when the columns or the row count differ.  After that
verdict, joined by "; ", it lists each key of the manifest's
``config`` and ``ignored_config`` blocks whose value moved (``output``
aside, whose path differs between the trees) as "config <key> old→new"
or "ignored_config <key> old→new", with values in JSON and "absent"
for a missing key.

Each tree also runs the other subcommands through ``cli.main`` in the
same interpreter: `sieve --limit 3000000` (whose growth diagnostic
streams 46 blocks), `convolve --limit 1000 --d 3` and `zeros-enrich`
of the 80 bundled ordinates from a shared text file.  For each the
script prints "identical" when the two artifacts match byte for byte
(else the first byte offset where they differ), then the moved keys
of the manifest's ``config`` and ``ignored_config`` blocks as above
and of its ``results`` block as "results <key> old→new".  None of
these results holds a timing.

Each tree also writes the exact side's artifacts in a fresh
interpreter: the lambda table to 1e7 and the mu table to 3e6 in the
binary sign-table format, and the CSV of S_d for lambda at d = 2 to
2^20, d = 3 to 1e5 and d = 9 to 2000 (where the last folds split into
two limbs).  Each prints "identical" when the two files match byte for
byte, and otherwise the first byte offset where they differ.

Under the verdicts it prints the line count of each tree's
`liouconv/*.py`, so the size of the code and its drift come from one
run.  The exit status is 0 when the enrichment, every report and
artifact, every manifest's config and results blocks and every exact
artifact are identical, and 1 when anything moved, a manifest key
included, so byte-identity can be checked by exit status alone.

Run from the repository root, e.g. against a checkout of the parent
commit:

    python scripts/report_drift.py /path/to/parent/src src
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

Z = "@zeros"     # stands for --zeros and the shared 80-zero cache
ORDS = "@ordinates"     # the shared file of the 80 ordinates
CASES = {
    "L": ["L", Z, "--limit", "800", "--samples", "log:3:10:800"],
    "M": ["M", Z, "--limit", "800", "--samples", "log:3:10:800"],
    "cesaro": ["cesaro", Z, "--limit", "2000", "--samples", "log:3:200:2000"],
    "cesaro-mu": ["cesaro-mu", Z, "--limit", "2000",
                  "--samples", "log:3:200:2000"],
    "dfold": ["dfold", Z, "--limit", "2000", "--samples", "log:3:200:2000"],
    "dfold-d4": ["dfold", Z, "--limit", "2000", "--d", "4",
                 "--samples", "log:3:200:2000"],
    "L-default": ["L", Z],
    "M-default": ["M", Z],
    "cesaro-default": ["cesaro", Z],
    "dfold-default": ["dfold", Z],
    "dfold-d2": ["dfold", Z, "--d", "2"],
    "dirichlet": ["dirichlet", Z, "--limit", "2000", "--s", "3,1"],
    "dirichlet-s3": ["dirichlet", Z, "--limit", "2000", "--s", "3"],
    "exponential": ["exponential", Z, "--limit", "4000", "--y", "0.1,0.01"],
    "exponential-default": ["exponential", Z, "--limit", "4000"],
    "weighted-zeros": ["weighted", Z, "--limit", "2000",
                       "--weight", "0:2.5:40"],
    "weighted-zeros-d3": ["weighted", Z, "--limit", "2000", "--d", "3",
                          "--weight", "1.5:2.5:30:3"],
    "weighted-zeros-frac": ["weighted", Z, "--limit", "2000",
                            "--weight", "1.3:2.5:37:3"],
    "weighted": ["weighted", "--limit", "2000", "--weight", "0:2.5:40"],
    "identity": ["identity", "--limit", "1024", "--trials", "6"],
    "L-count40": ["L", Z, "--count", "40", "--limit", "800",
                  "--samples", "log:3:10:800"],
    "cesaro-count40": ["cesaro", Z, "--count", "40", "--limit", "2000",
                       "--samples", "log:3:200:2000"],
    "L-segments": ["L", Z, "--limit", "3000000",
                   "--samples", "log:5:1000:3000000"],
    "M-segments": ["M", Z, "--limit", "3000000",
                   "--samples", "log:5:1000:3000000"],
}
# name -> the other subcommands' argv, each ending in its artifact's name
COMMANDS = {
    "sieve": ["sieve", "--limit", "3000000", "--output", "sieve.bin"],
    "convolve": ["convolve", "--limit", "1000", "--d", "3",
                 "--output", "convolve.csv"],
    "zeros-enrich": ["zeros-enrich", "--zeros", ORDS,
                     "--output", "zeros-enrich.bin"],
}
SCALE_PREFIXES = ("main", "single", "double", "direct", "total")
# file name -> (kind, d, limit); d = 0 dumps the sign table itself
EXACT = {
    "sieve-lambda-1e7.bin": ("liouville", 0, 10_000_000),
    "sieve-mu-3e6.bin": ("moebius", 0, 3_000_000),
    "convolve-d2-1048576.csv": ("liouville", 2, 1 << 20),
    "convolve-d3-100000.csv": ("liouville", 3, 100_000),
    "convolve-d9-2000.csv": ("liouville", 9, 2000),
}

# Runs inside the child interpreter, with the tree's src on sys.path.
_CHILD = """
import sys
import numpy as np
from liouconv import cli, zeros
cache, ords, out, cases = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
if out == "-":
    gammas = zeros.bundled_ordinates(80)
    zeros.save_cache(zeros.enrich(gammas), cache)
    with open(ords, "w") as fh:
        fh.write("".join(f"{g!r}\\n" for g in gammas))
    sys.exit(0)
zset = zeros.enrich(zeros.bundled_ordinates())
np.save(f"{out}/enrich.npy", np.stack([zset.zprimes, zset.z2rhos]))
for argv in cases:
    argv = sum((["--zeros", cache] if a == "@zeros" else
                [ords] if a == "@ordinates" else [a]
                for a in argv.split("\\x1f")), [])
    code = cli.main(argv)
    if code:
        sys.exit(f"{' '.join(argv)} exited {code}")
"""

# Writes each EXACT artifact ("name:kind:d:limit") into the working
# directory, in its own interpreter so the tables do not share a peak.
_EXACT_CHILD = """
import sys
from liouconv import convolve, sieve
for item in sys.argv[1:]:
    name, kind, d, limit = item.split(":")
    table = sieve.build_sieve(kind, int(limit))
    if d == "0":
        sieve.dump_table(table, name)
    else:
        series = convolve.convolve_fft(table, int(d), int(limit))
        convolve.export_csv(series, name)
"""


def _run_tree(src, cache, ords, out):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    cases = [["verify"] + argv + ["--output", f"{name}.csv"]
             for name, argv in CASES.items()] + list(COMMANDS.values())
    subprocess.run([sys.executable, "-c", _CHILD, str(cache), str(ords),
                    str(out)] + ["\x1f".join(argv) for argv in cases],
                   env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
    exact = [f"{name}:{kind}:{d}:{limit}"
             for name, (kind, d, limit) in EXACT.items()]
    subprocess.run([sys.executable, "-c", _EXACT_CHILD] + exact, env=env,
                   cwd=out, check=True, stdout=subprocess.DEVNULL)


def _parse(text):
    """(header, rows, summary) of a CSV report."""
    head, _, tail = text.partition("\n\nkey,value\n")
    lines = head.splitlines()
    summary = dict(line.split(",", 1) for line in tail.strip().splitlines())
    return lines[0].split(","), [r.split(",") for r in lines[1:]], summary


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _is_float_text(text):
    return _float(text) is not None and not text.lstrip("-").isdigit()


def _is_int_text(text):
    return text.lstrip("-").isdigit()


def _record(moved, key, a, b, scale):
    """Fold one moved value into moved[key]: the largest float move over
    scale, the (old, new) integers with the largest |change|, or
    "changed" once a value is neither or the kinds mix."""
    prev = moved.get(key)
    if prev == "changed":
        return
    if _is_float_text(a) and _is_float_text(b) and not isinstance(prev,
                                                                  tuple):
        moved[key] = max(prev or 0.0, abs(float(b) - float(a)) / scale)
    elif _is_int_text(a) and _is_int_text(b) and not isinstance(prev, float):
        pair = (int(a), int(b))
        if prev is None or abs(pair[1] - pair[0]) > abs(prev[1] - prev[0]):
            moved[key] = pair
    else:
        moved[key] = "changed"


def _note(key, move):
    if isinstance(move, float):
        return f"{key} {move:.2e}"
    if isinstance(move, tuple):
        return f"{key} {move[0]}→{move[1]}"
    return f"{key} {move}"


def _row_scale(header, row):
    vals = [abs(_float(v)) for k, v in zip(header, row)
            if k.startswith(SCALE_PREFIXES) and _float(v) is not None]
    return max([1.0] + vals)


def compare(old_text, new_text):
    """One line describing how the new report differs from the old one."""
    if old_text == new_text:
        return "identical"
    h0, rows0, sum0 = _parse(old_text)
    h1, rows1, sum1 = _parse(new_text)
    if h0 != h1 or len(rows0) != len(rows1):
        return "header differs"
    notes = [f"summary +{key}" for key in sorted(sum1.keys() - sum0.keys())]
    notes += [f"summary -{key}" for key in sorted(sum0.keys() - sum1.keys())]
    moved = {}
    for r0, r1 in zip(rows0, rows1):
        scale = _row_scale(h0, r0)
        for key, a, b in zip(h0, r0, r1):
            if a != b:
                _record(moved, key, a, b, scale)
    for key in sorted(sum0.keys() & sum1.keys()):
        a, b = sum0[key], sum1[key]
        if a != b:
            scale = max(1.0, abs(_float(a) or 0.0))
            _record(moved, f"summary {key}", a, b, scale)
    notes += [_note(k, v) for k, v in moved.items()]
    return ", ".join(notes)


def compare_manifests(old, new):
    """The moved keys of the config, ignored_config and results blocks
    of two manifests, output aside, each as "<block> <key> old→new"."""
    def show(block, key):
        return json.dumps(block[key]) if key in block else "absent"

    notes = []
    for name in ("config", "ignored_config", "results"):
        a, b = old.get(name, {}), new.get(name, {})
        for key in sorted((a.keys() | b.keys()) - {"output"}):
            if show(a, key) != show(b, key):
                notes.append(f"{name} {key} {show(a, key)}→{show(b, key)}")
    return notes


def compare_bytes(old, new):
    """"identical", or the first byte offset where the files differ."""
    if old == new:
        return "identical"
    at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
              min(len(old), len(new)))
    return f"differs from byte {at} ({len(old)} vs {len(new)} bytes)"


def compare_enrichment(old, new):
    """One line: "identical", or for zeta'(rho) and zeta(2 rho) each
    "identical" or the largest relative move."""
    if np.array_equal(old, new):
        return "identical"
    moves = [("identical" if a.tobytes() == b.tobytes()
              else f"{np.max(np.abs(b - a) / np.abs(a)):.2e}")
             for a, b in zip(old, new)]
    return f"zeta'(rho) {moves[0]}, zeta(2 rho) {moves[1]}"


def count_lines(src):
    """Total line count of the package modules under one src directory."""
    return sum(len(path.read_text().splitlines())
               for path in sorted(Path(src, "liouconv").glob("*.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="src directory of the old tree")
    parser.add_argument("new_src", help="src directory of the new tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cache, ords = tmp / "z80.bin", tmp / "z80.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(args.new_src).resolve()))
        subprocess.run([sys.executable, "-c", _CHILD, str(cache), str(ords),
                        "-"], env=env, cwd=tmp, check=True)
        outs = []
        for label, src in (("old", args.old_src), ("new", args.new_src)):
            out = tmp / label
            out.mkdir()
            _run_tree(src, cache, ords, out)
            outs.append(out)
        width = max(map(len, [*CASES, *COMMANDS, *EXACT]))
        enriched = [np.load(out / "enrich.npy") for out in outs]
        lines = {"enrich-10000": compare_enrichment(*enriched)}
        for name in CASES:
            texts = [(out / f"{name}.csv").read_text() for out in outs]
            moves = compare_manifests(*[
                json.loads((out / f"{name}.csv.manifest.json").read_text())
                for out in outs])
            lines[name] = "; ".join([compare(*texts)] + moves)
        for name, argv in COMMANDS.items():
            artifact = argv[-1]
            moves = compare_manifests(*[
                json.loads((out / f"{artifact}.manifest.json").read_text())
                for out in outs])
            verdict = compare_bytes(
                *[(out / artifact).read_bytes() for out in outs])
            lines[name] = "; ".join([verdict] + moves)
        for name in EXACT:
            lines[name] = compare_bytes(
                *[(out / name).read_bytes() for out in outs])
    for name, line in lines.items():
        print(f"{name:<{width}}  {line}")
    print(f"{'src lines':<{width}}  old {count_lines(args.old_src)}, "
          f"new {count_lines(args.new_src)}")
    return 0 if all(line == "identical" for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
