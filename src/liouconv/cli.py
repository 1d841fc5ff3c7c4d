"""Command line front end for sieving, convolution, and formula checks.

Five subcommands:

  sieve         build a multiplicative-sign table and dump it
  convolve      build the d-fold convolution series and export it
  zeros-enrich  turn a file of zero ordinates into an enriched cache
  verify        compare direct computations against truncated formulas
  bench         wall-time comparisons and a cross-method hash check

The ``_COMMANDS`` table maps each subcommand to its handler, the
options its parser declares, their defaults and the options it needs.
``verify`` takes one of nine targets: L, M, cesaro, cesaro-mu, dfold,
dirichlet, exponential, weighted, identity; the ``_VERIFY`` table gives
each its runner, sign kind and the same three columns (a flag outside
its options is a usage error).  Every zero target runs through one
loop, ``_sweep``: L, M, cesaro, cesaro-mu and dfold over ``--samples``
or the default log grid their runner hands ``_grid``, exponential over
its y values, dirichlet at its one s and weighted's zero half at its
one weight.  The zero sums run over every loaded zero; ``--count N``,
the only cut, keeps the first N of a cache or an ordinate file.  Each
run writes a report (CSV by default, JSON with --format json) with one
row per sample point and a summary block, plus a manifest next to it
recording the effective configuration, library versions, input
checksums, and the report's SHA-256.  Reports carry no timestamps and
every float is written with shortest-roundtrip repr, so the same
inputs produce byte identical reports.

Each row of ``_OPTIONS`` is a flag, a ``--config`` key=value key and
the option's least value.  Precedence is flags, then the config file,
then the row's defaults, so the manifest's ``config`` block holds every
value the run used and None for each option the run does not read.  A
config-file key the command does not read stays None there; the
manifest lists it with its file value under ``ignored_config``.  ``main`` returns the exit code, argparse's included:
0 success, 1 hard invariant violation, 2 usage, input or output error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, asdict, field

import numpy as np

from . import __version__, convolve, explicit, sieve, specfun, zeros

__all__ = ["RunConfig", "UsageError", "main"]

_IDENTITY_SEED = 0x5eed
_REL_IDENTITY_TOL = 1e-8
_GRID_LO = 10.0     # every default sample grid starts at x = 10


class UsageError(Exception):
    """Bad flags, bad config values, or unusable inputs; exit code 2."""


# ---------------------------------------------------------------------------
# value parsers, shared between flags and config files


def _parse_int(text):
    try:
        n = int(str(text).strip())
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}")
    return n


def _parse_float(text):
    try:
        v = float(str(text).strip())
    except ValueError:
        raise UsageError(f"expected a number, got {text!r}")
    if not math.isfinite(v):
        raise UsageError(f"expected a finite number, got {text!r}")
    return v


def _parse_complex(text):
    """``re,im`` or a bare real part."""
    parts = str(text).split(",")
    if len(parts) == 1:
        return complex(_parse_float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_parse_float(parts[0]), _parse_float(parts[1]))
    raise UsageError(f"--s wants 're' or 're,im', got {text!r}")


def _parse_ys(text):
    vals = tuple(_parse_float(p) for p in str(text).split(",") if p.strip())
    if not vals:
        raise UsageError("--y wants one or more comma separated values")
    if any(v <= 0.0 for v in vals):
        raise UsageError("--y values must be positive")
    return vals


def _parse_samples(text):
    """``log:COUNT:LO:HI`` or ``linear:COUNT:LO:HI``."""
    parts = str(text).split(":")
    if len(parts) != 4:
        raise UsageError(
            f"--samples wants kind:count:lo:hi, got {text!r}")
    kind = parts[0].strip().lower()
    if kind not in ("log", "linear"):
        raise UsageError(f"sample kind must be log or linear, got {kind!r}")
    count = _parse_int(parts[1])
    lo = _parse_float(parts[2])
    hi = _parse_float(parts[3])
    if count < 1:
        raise UsageError("sample count must be at least 1")
    if lo > hi:
        raise UsageError("sample range must satisfy lo <= hi")
    if lo <= 0.0:
        raise UsageError("sample points must be positive: need lo > 0")
    return (kind, count, lo, hi)


def _parse_weight(text):
    """``a:b:eta`` or ``a:b:eta:power``."""
    parts = str(text).split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"--weight wants a:b:eta[:power], got {text!r}")
    a = _parse_float(parts[0])
    b = _parse_float(parts[1])
    eta = _parse_float(parts[2])
    power = _parse_int(parts[3]) if len(parts) == 4 else 2
    try:
        explicit.PolynomialWeight(a, b, eta, power=power)
    except ValueError as exc:
        raise UsageError(f"--weight {text!r}: {exc}")
    return (a, b, eta, power)


# key -> (parser, help, least value or None); each key is a flag and a
# config-file key
_OPTIONS = {
    "limit": (_parse_int, "sieve/series length", 2),
    "zeros": (str, "zero ordinates file or cache", None),
    "count": (_parse_int, "number of zeros to keep", 1),
    "d": (_parse_int, "convolution order", 2),
    "s": (_parse_complex, "complex point 're,im'", None),
    "y": (_parse_ys, "comma separated decay parameters", None),
    "samples": (_parse_samples, "grid spec kind:count:lo:hi", None),
    "weight": (_parse_weight, "weight spec a:b:eta[:power]", None),
    "trials": (_parse_int, "randomized trial count", 1),
    "output": (str, "report/artifact path", None),
    "format": (str, "report format, csv or json", None),
    "workers": (_parse_int, "recorded in the manifest; changes neither "
                            "the results nor the speed", 1),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully merged and validated settings for one run."""

    command: str
    target: str | None = None
    limit: int | None = None
    zeros: str | None = None
    count: int | None = None
    d: int | None = None
    s: complex | None = None
    y: tuple | None = None
    samples: tuple | None = None
    weight: tuple | None = None
    trials: int | None = None
    output: str | None = None
    format: str | None = None
    workers: int | None = None
    # config-file keys the command does not read, with their file values
    ignored_config: dict = field(default_factory=dict, compare=False)


def _read_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    out = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = _OPTIONS[key][0](value.strip())
    return out


def _make_config(args):
    """Merge flag values over config-file values over the row's defaults.

    The row is the verify target's, else the command's.  Only the
    options it reads are merged; a config-file key outside them keeps
    its default and lands in ignored_config.
    """
    file_cfg = _read_config_file(args.config) if args.config else {}
    target = getattr(args, "target", None)
    row = _VERIFY[target] if target else _COMMANDS[args.command]
    reads, defaults, needs = row[2:]
    merged = {}
    ignored = {}
    for key in _OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            if key not in reads:
                raise UsageError(f"verify {target} does not use --{key}")
            merged[key] = flag
        elif key in file_cfg:
            (merged if key in reads else ignored)[key] = file_cfg[key]
    cfg = RunConfig(command=args.command, target=target,
                    ignored_config=ignored, **{**defaults, **merged})
    _validate(cfg, reads, needs)
    return cfg


def _validate(cfg, reads, needs):
    """Fail fast on anything that would waste a long run."""
    where = " ".join(filter(None, (cfg.command, cfg.target)))
    for key, (_, _, least) in _OPTIONS.items():
        value = getattr(cfg, key)
        if key in needs and value is None:
            raise UsageError(f"{where} needs --{key}")
        if least is not None and value is not None and value < least:
            raise UsageError(f"--{key} must be at least {least}")
    if cfg.count is not None and cfg.zeros is None:
        raise UsageError("--count needs --zeros")
    if cfg.output is not None and (os.path.isdir(cfg.output) or not
            os.path.isdir(os.path.dirname(cfg.output) or ".")):
        raise UsageError(f"--output {cfg.output}: not a file name in an "
                         f"existing directory")

    if cfg.format not in (None, "csv", "json"):
        raise UsageError(f"--format must be csv or json, got {cfg.format!r}")
    if cfg.s is not None and not cfg.s.real > 1.0 + 1e-6:
        raise UsageError(f"{where} needs Re s > 1 + 1e-6")
    if cfg.y is not None and cfg.limit * min(cfg.y) < 20.0:
        raise UsageError(
            f"exponential tails need limit*y >= 20; limit {cfg.limit} "
            f"with y={min(cfg.y)} falls short")
    if cfg.target == "identity" and cfg.limit < 4:
        raise UsageError("verify identity needs --limit of at least 4")
    if cfg.weight is not None:
        a, b, eta, _ = cfg.weight
        need = int(math.floor(eta * b)) + 1
        if need > cfg.limit:
            raise UsageError(
                f"--weight reaches index {need}; raise --limit "
                f"(now {cfg.limit})")
    if cfg.samples is not None and cfg.samples[3] > cfg.limit:
        raise UsageError("sample range exceeds --limit")
    if "samples" in reads and cfg.samples is None and cfg.limit < _GRID_LO:
        raise UsageError(
            f"the default sample grid starts at x = {_GRID_LO:g}, above "
            f"--limit {cfg.limit}; raise --limit or pass --samples")


# ---------------------------------------------------------------------------
# input loading and report plumbing


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_zeroset(cfg, inputs):
    path = cfg.zeros
    try:
        inputs[path] = _sha256_file(path)
    except OSError as exc:
        raise UsageError(f"cannot read zeros file {path}: {exc}")
    cached = zeros.is_cache(path)
    loaded = zeros.load_cache(path) if cached else zeros.load_ordinates(path)
    if cfg.count is not None:
        if cfg.count > len(loaded):
            raise UsageError(f"--count {cfg.count} exceeds the "
                             f"{len(loaded)} zeros in {path}")
        loaded = (zeros.truncate(loaded, count=cfg.count) if cached
                  else loaded[:cfg.count])
    return loaded if cached else zeros.enrich(loaded)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_report(path, fmt, command, target, columns, summary):
    names = list(columns)
    nrows = len(columns[names[0]]) if names else 0
    if fmt == "json":
        doc = {
            "command": command,
            "target": target,
            "columns": {k: list(v) for k, v in columns.items()},
            "summary": dict(summary),
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [",".join(names)]
        for i in range(nrows):
            lines.append(",".join(_fmt(columns[k][i]) for k in names))
        lines.append("")
        lines.append("key,value")
        for key in sorted(summary):
            lines.append(f"{key},{_fmt(summary[key])}")
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return list(value)
    return value


def _write_manifest(cfg, report_path, inputs, results=None):
    config = asdict(cfg)
    ignored = config.pop("ignored_config")
    doc = {
        "command": cfg.command,
        "target": cfg.target,
        "config": {k: _jsonable(v) for k, v in config.items()},
        "ignored_config": {k: _jsonable(v) for k, v in ignored.items()},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "liouconv": __version__,
        },
        "inputs": dict(sorted(inputs.items())),
    }
    doc["report"] = {"path": str(report_path),
                     "sha256": _sha256_file(report_path)}
    if results is not None:
        doc["results"] = results
    path = str(report_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# verify targets


_SWEEP_COLUMNS = ("direct", "main_term", "single_sum", "double_sum", "total",
                  "residual", "envelope", "truncation_T", "zeros_used",
                  "pair_terms")


def _sweep(axis, points, direct, formula, columns=_SWEEP_COLUMNS):
    """One row per point (a Python number, written as given): the direct
    value, the formula's breakdown and their residual; then the residual
    summary.

    A column that is neither the axis, ``direct``, ``residual`` nor a
    breakdown field is left as None for the caller to fill.
    """
    cols = {k: [] for k in (axis,) + columns}
    for p in points:
        value = direct(p)
        bd = formula(p)
        row = {axis: p, "direct": value, "residual": abs(value - bd.total)}
        for key, col in cols.items():
            col.append(row[key] if key in row else getattr(bd, key, None))
    return cols, _residual_summary(cols)


def _grid(cfg, count, lo):
    """The --samples grid, else count log-spaced points from lo to limit."""
    spacing, count, lo, hi = cfg.samples or ("log", count, lo, cfg.limit)
    space = np.geomspace if spacing == "log" else np.linspace
    return space(lo, hi, count).tolist()


def _run_summatory(cfg, kind, zset):
    table = sieve.build_sieve(kind, cfg.limit)
    return _sweep("x", _grid(cfg, 50, _GRID_LO),
                  lambda x: sieve.summatory(table, x),
                  lambda x: explicit.explicit_summatory(kind, x, zset))


def _run_cesaro(cfg, kind, zset):
    table = sieve.build_sieve(kind, cfg.limit)
    return _sweep("x", _grid(cfg, 40, max(_GRID_LO, cfg.limit / 1000.0)),
                  functools.partial(convolve.cesaro_prefix, table),
                  lambda x: explicit.explicit_cesaro(kind, x, zset))


def _run_dfold(cfg, kind, zset):
    series = convolve.convolve_fft(sieve.build_sieve(kind, cfg.limit), cfg.d,
                                   cfg.limit)
    return _sweep("x", _grid(cfg, 20, max(_GRID_LO, cfg.limit / 100.0)),
                  functools.partial(convolve.cesaro_sum, series),
                  lambda x: explicit.explicit_cesaro(kind, x, zset, d=cfg.d))


# complex sweep column -> its real and imaginary report columns
_COMPLEX_COLUMNS = {
    "s": ("re_s", "im_s"), "direct": ("direct_re", "direct_im"),
    "main_term": ("main_re", "main_im"),
    "single_sum": ("single_re", "single_im"),
    "double_sum": ("double_re", "double_im"),
    "total": ("total_re", "total_im"),
}


def _run_dirichlet(cfg, kind, zset):
    n = cfg.limit
    series = convolve.convolve_fft(sieve.build_sieve(kind, n), 2, n)
    cols, summary = _sweep(
        "s", [cfg.s], lambda s: explicit.dirichlet_direct(series, s, n),
        lambda s: explicit.dirichlet_explicit(kind, s, zset))
    split = {}
    for key, values in cols.items():
        if key not in _COMPLEX_COLUMNS:
            split[key] = values
            continue
        re_key, im_key = _COMPLEX_COLUMNS[key]
        split[re_key] = [complex(v).real for v in values]
        split[im_key] = [complex(v).imag for v in values]
    return split, summary


def _run_exponential(cfg, kind, zset):
    ys = cfg.y
    series = convolve.convolve_fft(sieve.build_sieve(kind, cfg.limit), 2,
                                   cfg.limit)
    cols, summary = _sweep(
        "y", ys, lambda y: explicit.exponential_direct(series, y, cfg.limit),
        lambda y: explicit.exponential_explicit(kind, y, zset),
        ("direct", "main_term", "single_sum", "double_sum", "total",
         "residual", "envelope", "deficit", "truncation_T", "zeros_used"))
    target_const = math.pi / (4.0 * specfun.zeta_half() ** 2)
    cols["deficit"] = [abs(y * v - target_const)
                       for y, v in zip(cols["y"], cols["direct"])]
    deficits = [v for _, v in sorted(zip(ys, cols["deficit"]))][::-1]
    summary["deficit_monotone"] = all(b < a for a, b in
                                      zip(deficits, deficits[1:]))
    summary["deficit_final"] = deficits[-1]
    return cols, summary


def _exact_identity(wa, where):
    """(direct, rhs, relative residual) of the exact weighted identity of
    the WeightedAverage wa; a residual over the tolerance is printed to
    stderr as an invariant failure, labelled with where."""
    direct = explicit.weighted_average_direct(wa)
    rhs = explicit.weighted_average_rhs(wa)
    rel = abs(direct - rhs) / max(1.0, abs(direct))
    if not rel <= _REL_IDENTITY_TOL:     # nan fails too
        print(f"invariant failure: {where}: exact identity residual "
              f"{rel:.3e} exceeds {_REL_IDENTITY_TOL:g}", file=sys.stderr)
    return direct, rhs, rel


def _run_weighted(cfg, kind, zset):
    a, b, eta, power = cfg.weight
    wa = explicit.WeightedAverage(
        explicit.PolynomialWeight(a, b, eta, power=power),
        sieve.build_sieve(kind, cfg.limit), cfg.d)
    direct, ident, rel = _exact_identity(wa, "weighted run")
    cols = {"a": [a], "b": [b], "eta": [eta], "power": [power], "d": [cfg.d],
            "direct": [direct], "identity_rhs": [ident],
            "identity_rel_residual": [rel]}
    summary = {"rows": 1, "identity_rel_residual": rel,
               "identity_ok": rel <= _REL_IDENTITY_TOL}
    if zset is not None:
        # the zero half: a one-point sweep whose axis is the direct value
        zcols, zsummary = _sweep(
            "direct", [direct], lambda v: v,
            lambda _: explicit.weighted_average_explicit(wa, zset),
            ("main_term", "single_sum", "double_sum", "total", "envelope",
             "truncation_T", "zeros_used", "pair_terms", "residual"))
        cols.update(zcols)
        summary.update(zsummary)
    return cols, summary


def _run_identity(cfg, _kind, zset):
    trials = cfg.trials
    rng = np.random.default_rng(_IDENTITY_SEED)
    tables = {}
    cols = {k: [] for k in ("trial", "kind", "d", "a", "b", "eta", "power",
                            "direct", "rhs", "residual", "rel_residual")}
    for t in range(trials):
        kind = (sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS)[t % 2]
        d = cfg.d or 2 + ((t // 2) % 2)
        shape = t % 3
        if shape == 0:
            a = 0.0
        elif shape == 1:
            a = float(rng.uniform(0.05, 0.9))   # becomes eta*a below
        else:
            a = float(rng.uniform(1.0, 4.0))    # boundary term in play
        b = a + float(rng.uniform(1.0, 3.0))
        eta_hi = (cfg.limit - 2) / b
        eta = float(rng.uniform(min(10.0, eta_hi / 2), min(60.0, eta_hi)))
        if shape == 1:
            a /= eta    # 0 < eta*a < 1: the cut falls below index 1
        power = int(rng.integers(2, 5))
        if kind not in tables:
            tables[kind] = sieve.build_sieve(kind, cfg.limit)
        wa = explicit.WeightedAverage(
            explicit.PolynomialWeight(a, b, eta, power=power), tables[kind],
            d)
        direct, rhs, rel = _exact_identity(wa, f"trial {t} ({kind}, d={d})")
        row = {"trial": t, "kind": kind, "d": d, "a": a, "b": b, "eta": eta,
               "power": power, "direct": direct, "rhs": rhs,
               "residual": abs(direct - rhs), "rel_residual": rel}
        for key, col in cols.items():
            col.append(row[key])
    summary = {
        "rows": trials,
        "median_rel_residual": _median(cols["rel_residual"]),
        "max_rel_residual": float(np.max(cols["rel_residual"])),
        "identity_ok": all(r <= _REL_IDENTITY_TOL
                           for r in cols["rel_residual"]),
    }
    return cols, summary


_SHARED = ("workers", "output", "format")     # every target reads these
_ZEROS = ("zeros", "count") + _SHARED
_SAMPLED = ("limit", "samples") + _ZEROS
_LAMBDA, _MU = sieve.KIND_LIOUVILLE, sieve.KIND_MOEBIUS
_DEFAULTS = {"limit": 10000, "format": "csv", "workers": 1}

# target -> (runner, sign kind, the options its runner reads, their
# defaults, the options it needs); every row sets format and workers,
# and identity leaves d unset, so its trials alternate d = 2 and 3
_VERIFY = {
    "L": (_run_summatory, _LAMBDA, _SAMPLED, _DEFAULTS, ("zeros",)),
    "M": (_run_summatory, _MU, _SAMPLED, _DEFAULTS, ("zeros",)),
    "cesaro": (_run_cesaro, _LAMBDA, _SAMPLED, _DEFAULTS, ("zeros",)),
    "cesaro-mu": (_run_cesaro, _MU, _SAMPLED, _DEFAULTS, ("zeros",)),
    "dfold": (_run_dfold, _LAMBDA, _SAMPLED + ("d",),
              {**_DEFAULTS, "d": 3}, ("zeros",)),
    "dirichlet": (_run_dirichlet, _LAMBDA, ("limit", "s") + _ZEROS, _DEFAULTS,
                  ("zeros", "s")),
    "exponential": (_run_exponential, _LAMBDA, ("limit", "y") + _ZEROS,
                    {**_DEFAULTS, "y": (0.1, 0.05, 0.02, 0.01)},
                    ("zeros",)),
    "weighted": (_run_weighted, _LAMBDA, ("limit", "weight", "d") + _ZEROS,
                 {**_DEFAULTS, "d": 2}, ("weight",)),
    "identity": (_run_identity, None, ("limit", "trials", "d") + _SHARED,
                 {**_DEFAULTS, "limit": 4096, "trials": 20}, ()),
}


def _median(values):
    """np.median's value, without the numpy.ma import that np.median
    makes on its first call (about 15 ms of every verify run)."""
    s = np.sort(np.asarray(values, dtype=np.float64))
    half = s.size // 2
    if np.isnan(s[-1]):
        return math.nan
    return float(s[half] if s.size % 2 else (s[half - 1] + s[half]) / 2.0)


def _residual_summary(cols):
    arr = np.asarray(cols["residual"], dtype=np.float64)
    env = np.asarray(cols["envelope"], dtype=np.float64)
    return {
        "rows": int(arr.size),
        "median_residual": _median(arr),
        "max_residual": float(np.max(arr)),
        "envelope_exceedances": int(np.sum(arr > env)),
        # every zero sum is real by construction; kept for perfbench/checks.py
        "max_relative_imag": 0.0,
    }


def _cmd_verify(cfg):
    inputs = {}
    zset = None if cfg.zeros is None else _load_zeroset(cfg, inputs)
    runner, kind = _VERIFY[cfg.target][:2]
    cols, summary = runner(cfg, kind, zset)
    report = cfg.output or f"verify-{cfg.target}-report.{cfg.format}"
    _write_report(report, cfg.format, cfg.command, cfg.target, cols, summary)
    manifest = _write_manifest(cfg, report, inputs)
    med = next(summary[k] for k in ("median_residual", "median_rel_residual",
                                    "identity_rel_residual") if k in summary)
    print(f"verify {cfg.target}: {summary['rows']} rows, "
          f"median {_fmt(med)} -> {report} (+ {manifest})")
    return 1 if summary.get("identity_ok") is False else 0


# ---------------------------------------------------------------------------
# the non-verify commands


def _cmd_sieve(cfg):
    kind = sieve.KIND_LIOUVILLE
    table = sieve.build_sieve(kind, cfg.limit)
    out = cfg.output or "sieve-table.bin"
    sieve.dump_table(table, out)
    growth = sieve.growth_diagnostic(table)
    total = int(table.values.sum(dtype=np.int64))
    manifest = _write_manifest(
        cfg, out, {},
        results={"kind": kind, "limit": cfg.limit,
                 "summatory_at_limit": total, "growth_diagnostic": growth})
    print(f"sieve: {kind} up to {cfg.limit}, prefix[{cfg.limit}] = "
          f"{total} -> {out} (+ {manifest})")
    if growth > 3.0:
        print(f"invariant failure: summatory growth ratio {growth:.3f} "
              f"exceeds 3", file=sys.stderr)
        return 1
    return 0


def _cmd_convolve(cfg):
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, cfg.limit)
    series = convolve.convolve_fft(table, cfg.d, cfg.limit)
    out = cfg.output or f"convolution-d{cfg.d}.csv"
    convolve.export_csv(series, out)
    digest = hashlib.sha256(series.values).hexdigest()
    manifest = _write_manifest(
        cfg, out, {},
        results={"kind": series.kind, "d": cfg.d, "limit": cfg.limit,
                 "method": series.method, "fft_length": series.fft_length,
                 "limbs": list(series.limbs), "max_residue": series.residue,
                 "values_sha256": digest})
    print(f"convolve: d={cfg.d} up to {cfg.limit} via {series.method} "
          f"-> {out} (+ {manifest})")
    return 0


def _cmd_zeros_enrich(cfg):
    inputs = {}
    zset = _load_zeroset(cfg, inputs)
    out = cfg.output or "zeros-cache.bin"
    if out.endswith(".csv"):
        zeros.export_csv(zset, out)
    else:
        zeros.save_cache(zset, out)
    manifest = _write_manifest(
        cfg, out, inputs,
        results={"count": len(zset.gammas), "t_max": zset.t_max,
                 "threads": specfun.zeta_threads(), "zeta_table_entries":
                 specfun.zeta_table_entries(zset.gammas)})
    print(f"zeros-enrich: {len(zset.gammas)} zeros, t_max "
          f"{zset.t_max:.6f} -> {out} (+ {manifest})")
    return 0


def _cmd_bench(cfg):
    limit = cfg.limit
    failures = []
    results = {"machine": platform.platform(),
               "processor": platform.machine(),
               "python": platform.python_version()}

    t0 = time.perf_counter()
    table = sieve.build_sieve(sieve.KIND_LIOUVILLE, limit)
    dt = time.perf_counter() - t0
    results["sieve_limit"] = limit
    results["sieve_seconds"] = dt
    results["sieve_entries_per_second"] = limit / dt if dt > 0 else None

    t0 = time.perf_counter()
    fast = convolve.convolve_fft(table, 2, limit)
    t_fft = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = convolve.convolve_naive(table, 2, limit)
    t_naive = time.perf_counter() - t0
    results["convolve_d2_limit"] = limit
    results["convolve_d2_fft_seconds"] = t_fft
    results["convolve_d2_naive_seconds"] = t_naive
    results["convolve_d2_speedup"] = t_naive / t_fft if t_fft > 0 else None
    if not np.array_equal(fast.values, slow.values):
        failures.append("d=2 convolution methods disagree")
    # tiny inputs sit below the FFT crossover, so only meaningfully
    # sized runs carry the speed assertion
    if limit >= 4096 and t_fft >= t_naive:
        failures.append(
            f"FFT convolution ({t_fft:.3f}s) not faster than naive "
            f"({t_naive:.3f}s) at limit {limit}")

    hash_limit = min(limit, 1 << 14)
    sub = sieve.build_sieve(sieve.KIND_LIOUVILLE, hash_limit)
    h_fft = hashlib.sha256(
        convolve.convolve_fft(sub, 3, hash_limit).values).hexdigest()
    h_naive = hashlib.sha256(
        convolve.convolve_naive(sub, 3, hash_limit).values).hexdigest()
    results["d3_hash_limit"] = hash_limit
    results["d3_fft_sha256"] = h_fft
    results["d3_naive_sha256"] = h_naive
    if h_fft != h_naive:
        failures.append(f"d=3 output hashes differ at limit {hash_limit}")

    report = cfg.output or f"bench-report.{cfg.format}"
    cols = {"metric": list(results), "value": [results[k] for k in results]}
    summary = {"hard_failures": len(failures)}
    _write_report(report, cfg.format, "bench", None, cols, summary)
    manifest = _write_manifest(cfg, report, {}, results=results)
    print(f"bench: limit {limit}, fft {t_fft:.3f}s vs naive {t_naive:.3f}s "
          f"-> {report} (+ {manifest})")
    if failures:
        for line in failures:
            print(f"invariant failure: {line}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument wiring


# command -> (handler, help, the options its parser declares, their
# defaults, the options it needs); verify takes the last two from its
# target's row
_COMMANDS = {
    "sieve": (_cmd_sieve, "build and dump a sign table", ("limit", "output"),
              {}, ("limit",)),
    "convolve": (_cmd_convolve, "build the d-fold series",
                 ("limit", "d", "output"), {"d": 2}, ("limit",)),
    "zeros-enrich": (_cmd_zeros_enrich, "enrich zero ordinates and cache them",
                     ("zeros", "count", "output"), {}, ("zeros",)),
    "verify": (_cmd_verify, "compare direct sums with truncated formulas",
               tuple(_OPTIONS), {}, ()),
    "bench": (_cmd_bench, "timing and cross-method checks",
              ("limit", "output", "format"),
              {"limit": 1 << 18, "format": "csv"}, ()),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liouconv",
        description="sign-sum convolutions against zeta-zero formulas")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, names, _, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        if command == "verify":
            sp.add_argument("target", choices=tuple(_VERIFY))
        for name in names:
            parse, help_text, _ = _OPTIONS[name]
            sp.add_argument(f"--{name}", type=parse, help=help_text)
        sp.add_argument("--config", help="key=value defaults file")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = _make_config(args)
        return _COMMANDS[cfg.command][0](cfg)
    except SystemExit as exc:     # argparse's usage errors and --help
        return exc.code
    except (UsageError, OSError) as exc:     # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
