"""Command line behavior: parsing, reports, manifests, determinism."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from liouconv import cli, explicit, sieve, specfun, zeros

Z = object()   # stands for --zeros and the 80-zero cache


@pytest.fixture(scope="module")
def cache80(tmp_path_factory):
    """A small enriched cache on disk for verify runs."""
    path = tmp_path_factory.mktemp("zcache") / "z80.npz"
    zset = zeros.enrich(zeros.bundled_ordinates(80))
    zeros.save_cache(zset, path)
    return str(path)


def _summary_block(text):
    head, _, tail = text.partition("\n\nkey,value\n")
    out = {}
    for line in tail.strip().splitlines():
        key, _, value = line.partition(",")
        out[key] = value
    return head, out


def test_usage_errors_exit_2(tmp_path, cache80):
    assert cli.main(["verify", "dirichlet", "--limit", "100"]) == 2
    assert cli.main(["verify", "L", "--zeros", cache80,
                     "--count", "5", "--T", "30"]) == 2
    assert cli.main(["verify", "L", "--zeros", cache80,
                     "--samples", "log:10:0:100"]) == 2
    assert cli.main(["verify", "weighted", "--weight", "3:2:10"]) == 2
    assert cli.main(["verify", "dirichlet", "--zeros", cache80,
                     "--s", "0.5"]) == 2
    assert cli.main(["verify", "dirichlet", "--zeros", cache80,
                     "--s", "1.0000001,5"]) == 2
    assert cli.main(["verify", "exponential", "--zeros", cache80,
                     "--limit", "100", "--y", "0.01"]) == 2
    assert cli.main(["verify", "weighted", "--weight", "0:2:600",
                     "--limit", "500"]) == 2
    # the weight's own rules: eta > 0 and power >= 2
    assert cli.main(["verify", "weighted", "--weight", "0:2:0"]) == 2
    assert cli.main(["verify", "weighted", "--weight", "0:2:10:1"]) == 2
    # --count cuts a zero set, so without --zeros it is a usage error
    assert cli.main(["verify", "weighted", "--limit", "2000",
                     "--weight", "0:2.5:40", "--count", "5",
                     "--output", str(tmp_path / "w.csv")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    assert cli.main(["verify", "identity", "--config", str(bad)]) == 2
    bad.write_text("T = 50\n")
    assert cli.main(["verify", "L", "--zeros", cache80,
                     "--config", str(bad)]) == 2


def test_subcommands_reject_flags_they_do_not_use(tmp_path, capsys):
    for command, flag in (("sieve", "--workers=2"),
                          ("convolve", "--workers=2"),
                          ("bench", "--workers=2"), ("sieve", "--format=csv"),
                          ("convolve", "--format=csv"),
                          ("zeros-enrich", "--format=csv"),
                          ("verify L", "--format=xml")):
        assert cli.main(command.split() + ["--output", "unused", flag]) == 2
    assert cli.main(["--help"]) == 0
    # the zero set is cut by --count alone; --T is no flag of any target
    assert cli.main(["verify", "L", "--T", "30"]) == 2
    for target, flag, value in (("dirichlet", "samples", "log:5:10:100"),
                                ("dirichlet", "trials", "3"),
                                ("dirichlet", "y", "0.1"),
                                ("dirichlet", "weight", "0:1:10"),
                                ("cesaro", "d", "2"), ("L", "s", "3"),
                                ("identity", "zeros", "z.npz"),
                                ("identity", "count", "5"),
                                ("exponential", "samples", "log:5:10:100")):
        capsys.readouterr()
        assert cli.main(["verify", target, f"--{flag}", value]) == 2
        assert (f"error: verify {target} does not use --{flag}"
                in capsys.readouterr().err)
    # config-file keys a target does not read are ignored, not errors;
    # the shared flags go anywhere
    cfgfile = tmp_path / "shared.cfg"
    cfgfile.write_text("s = 3\ny = 0.1\nweight = 0:1:10\n")
    assert cli.main(["verify", "identity", "--config", str(cfgfile),
                     "--limit", "256", "--trials", "1", "--workers", "2",
                     "--format", "json",
                     "--output", str(tmp_path / "id.json")]) == 0


@pytest.mark.parametrize("argv", [
    ["sieve", "--limit", "100"],
    ["zeros-enrich", "--zeros", Z],
    ["verify", "identity", "--limit", "256", "--trials", "1"],
], ids=["sieve", "zeros-enrich", "verify-identity"])
def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, cache80,
                                   argv):
    """An --output in a missing directory, or one that names a
    directory, is a usage error found before the command does any
    work."""
    argv = [cache80 if arg is Z else arg for arg in argv]
    command = argv[0]

    def work(cfg):
        raise AssertionError(f"{command} ran with an unusable --output")

    with monkeypatch.context() as patch:
        patch.setitem(cli._COMMANDS, command,
                      (work,) + cli._COMMANDS[command][1:])
        missing = tmp_path / "missing" / "out.csv"
        for output in (missing, tmp_path):
            assert cli.main(argv + ["--output", str(output)]) == 2
            assert "error: --output" in capsys.readouterr().err
    assert not missing.parent.exists()


@pytest.mark.parametrize("target, samples, message", [
    pytest.param("L", "log:5:10:20000", "sample range exceeds --limit",
                 id="L"),
    pytest.param("cesaro", "log:5:10:20000", "sample range exceeds --limit",
                 id="cesaro"),
    pytest.param("cesaro", "linear:3:0:800",
                 "sample points must be positive: need lo > 0", id="linear"),
])
def test_sample_range_meets_the_default_limit(tmp_path, capsys, target,
                                              samples, message):
    """Without --limit the samples are checked against the default limit,
    and against x > 0, before any work: the zeros file named is never
    opened."""
    missing = str(tmp_path / "absent.bin")
    assert cli.main(["verify", target, "--zeros", missing,
                     "--samples", samples]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("target, limit", [
    ("L", "5"), ("cesaro", "8"), ("dfold", "9"),
])
def test_default_grid_meets_the_limit(tmp_path, capsys, cache80, target,
                                      limit):
    """Without --samples the default grid starts at x = 10, so a --limit
    below 10 is refused before any work: the zeros file named is never
    opened.  From --limit 10 on the grid fits."""
    missing = str(tmp_path / "absent.bin")
    assert cli.main(["verify", target, "--zeros", missing,
                     "--limit", limit]) == 2
    assert (f"error: the default sample grid starts at x = 10, above "
            f"--limit {limit}; raise --limit or pass --samples"
            in capsys.readouterr().err)
    assert cli.main(["verify", target, "--zeros", cache80, "--limit", "10",
                     "--output", str(tmp_path / "r.csv")]) == 0


def test_identity_needs_limit_4(tmp_path, capsys):
    """Below --limit 4 the drawn weights cannot fit eta*b >= 1 > eta*a, so
    the limit is refused before any trial runs; from 4 on they fit."""
    out = str(tmp_path / "id.csv")
    for limit in ("2", "3"):
        assert cli.main(["verify", "identity", "--limit", limit,
                         "--output", out]) == 2
        assert ("error: verify identity needs --limit of at least 4"
                in capsys.readouterr().err)
    assert cli.main(["verify", "identity", "--limit", "4", "--trials", "6",
                     "--output", out]) == 0


def test_sample_and_value_parsers():
    assert cli._parse_samples("log:5:10:100") == ("log", 5, 10.0, 100.0)
    assert cli._parse_samples("linear:3:1:9") == ("linear", 3, 1.0, 9.0)
    for spec in ("linear:3:0:9", "linear:3:-5:9", "log:3:0:9"):
        with pytest.raises(cli.UsageError):
            cli._parse_samples(spec)
    assert cli._parse_complex("6") == 6.0 + 0j
    assert cli._parse_complex("6,2") == 6.0 + 2.0j
    assert cli._parse_weight("0:2.5:40") == (0.0, 2.5, 40.0, 2)
    assert cli._parse_weight("1:2:30:4") == (1.0, 2.0, 30.0, 4)
    with pytest.raises(cli.UsageError):
        cli._parse_samples("geom:5:10:100")
    with pytest.raises(cli.UsageError):
        cli._parse_complex("1,2,3")


def test_identity_run_report_structure(tmp_path):
    report = tmp_path / "identity.csv"
    code = cli.main(["verify", "identity", "--trials", "6",
                     "--limit", "1024", "--output", str(report)])
    assert code == 0
    head, summary = _summary_block(report.read_text())
    rows = head.strip().splitlines()
    assert rows[0].split(",")[:4] == ["trial", "kind", "d", "a"]
    assert len(rows) == 7
    # every third trial cuts the first factor below index 1: 0 < eta*a < 1
    header = rows[0].split(",")
    for row in rows[2::3]:
        vals = dict(zip(header, row.split(",")))
        assert 0.0 < float(vals["eta"]) * float(vals["a"]) < 1.0
    assert summary["identity_ok"] == "true"
    assert float(summary["max_rel_residual"]) < 1e-8


def test_manifest_contents(tmp_path, cache80):
    report = tmp_path / "M.csv"
    code = cli.main(["verify", "M", "--limit", "1500", "--zeros", cache80,
                     "--samples", "linear:4:100:1500",
                     "--output", str(report)])
    assert code == 0
    manifest = json.loads((tmp_path / "M.csv.manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["target"] == "M"
    assert manifest["config"]["limit"] == 1500
    assert manifest["config"]["workers"] == 1
    want_input = hashlib.sha256(open(cache80, "rb").read()).hexdigest()
    assert manifest["inputs"][cache80] == want_input
    want_report = hashlib.sha256(report.read_bytes()).hexdigest()
    assert manifest["report"]["sha256"] == want_report
    assert sorted(manifest["versions"]) == ["liouconv", "numpy", "python"]
    assert manifest["ignored_config"] == {}


def test_median_matches_numpy(rng):
    for size in range(1, 12):
        vals = rng.normal(size=size) * 10.0 ** rng.integers(-6, 6, size)
        assert cli._median(vals) == float(np.median(vals))
    assert math.isnan(cli._median([1.0, math.nan, 2.0]))


def test_cli_runs_without_scipy(tmp_path, cli_env):
    # a fresh interpreter enriches zeros and runs a Cesaro sweep, and
    # nothing on that path imports scipy
    ords = zeros.bundled_ordinates(20)
    (tmp_path / "ordinates.txt").write_text(
        "".join(f"{k + 1} {g:.13f}\n" for k, g in enumerate(ords)))
    script = (
        "import sys\n"
        "from liouconv import cli\n"
        "assert cli.main(['zeros-enrich', '--zeros', 'ordinates.txt',"
        " '--count', '20', '--output', 'z.bin']) == 0\n"
        "assert cli.main(['verify', 'cesaro', '--limit', '3000',"
        " '--zeros', 'z.bin', '--samples', 'log:4:100:3000',"
        " '--output', 'c.csv']) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=cli_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_report_bytes_worker_invariant(tmp_path, cache80):
    args = ["verify", "cesaro", "--limit", "4000", "--zeros", cache80,
            "--samples", "log:5:400:4000"]
    r1 = tmp_path / "w1.csv"
    r2 = tmp_path / "w2.csv"
    assert cli.main(args + ["--workers", "1", "--output", str(r1)]) == 0
    assert cli.main(args + ["--workers", "2", "--output", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_json_report_is_column_oriented(tmp_path, cache80):
    report = tmp_path / "L.json"
    code = cli.main(["verify", "L", "--limit", "800", "--zeros", cache80,
                     "--samples", "log:6:10:800", "--format", "json",
                     "--output", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    cols = doc["columns"]
    lengths = {len(v) for v in cols.values()}
    assert lengths == {6}
    assert doc["summary"]["rows"] == 6
    assert "median_residual" in doc["summary"]


def test_zeros_enrich_and_reuse(tmp_path):
    ords = zeros.bundled_ordinates(40)
    src = tmp_path / "ordinates.txt"
    src.write_text("".join(f"{k + 1} {g:.13f}\n" for k, g in enumerate(ords)))
    cache = tmp_path / "cache.npz"
    assert cli.main(["zeros-enrich", "--zeros", str(src),
                     "--count", "30", "--output", str(cache)]) == 0
    back = zeros.load_cache(cache)
    assert len(back) == 30
    manifest = json.loads((tmp_path / "cache.npz.manifest.json").read_text())
    assert manifest["results"]["count"] == 30
    assert manifest["results"]["threads"] == specfun.zeta_threads() >= 1
    report = tmp_path / "L.csv"
    assert cli.main(["verify", "L", "--limit", "500", "--zeros", str(cache),
                     "--samples", "linear:3:50:500",
                     "--output", str(report)]) == 0


def test_zeros_enrich_counts_table_entries(tmp_path, cache80):
    # the n^-s table entries of the zeta pass, a function of the
    # ordinates alone: 6728 for the first 80 zeros
    out = tmp_path / "again.npz"
    assert cli.main(["zeros-enrich", "--zeros", cache80,
                     "--output", str(out)]) == 0
    manifest = json.loads((tmp_path / "again.npz.manifest.json").read_text())
    assert manifest["results"]["zeta_table_entries"] == 6728


def test_zeros_enrich_writes_csv(tmp_path):
    """An output name ending in .csv gets the CSV export, not a cache."""
    ords = tmp_path / "ordinates.txt"
    ords.write_text("".join(f"{g:.13f}\n"
                            for g in zeros.bundled_ordinates(12)))
    out = tmp_path / "zeros.csv"
    assert cli.main(["zeros-enrich", "--zeros", str(ords), "--count", "10",
                     "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,gamma,zprime_re,zprime_im,z2_re,z2_im"
    assert len(lines) == 11
    assert not zeros.is_cache(out)
    manifest = json.loads((tmp_path / "zeros.csv.manifest.json").read_text())
    assert manifest["results"]["count"] == 10


@pytest.mark.parametrize("target, samples, rows, lo, hi", [
    pytest.param("cesaro", None, 40, 10.0, 2000.0, id="cesaro-40-10.0"),
    pytest.param("dfold", None, 20, 20.0, 2000.0, id="dfold-20-20.0"),
    pytest.param("L", "log:1:100:800", 1, 100.0, 100.0, id="L-log-1"),
    pytest.param("L", "linear:1:100:100", 1, 100.0, 100.0, id="L-linear-1"),
])
def test_default_samples(tmp_path, cache80, target, samples, rows, lo, hi):
    """Without --samples a Cesaro target samples a log grid up to the
    limit: 40 points for cesaro, 20 from limit/100 for dfold.  A grid of
    one point, log or linear, is its lower end alone."""
    report = tmp_path / "report.csv"
    extra = ["--samples", samples] if samples else []
    assert cli.main(["verify", target, "--zeros", cache80, "--limit", "2000",
                     "--output", str(report)] + extra) == 0
    head, summary = _summary_block(report.read_text())
    xs = [float(row.split(",")[0]) for row in head.splitlines()[1:]]
    assert summary["rows"] == str(rows) and len(xs) == rows
    assert (xs[0], xs[-1]) == (lo, hi)


@pytest.mark.parametrize("name", ["ords.npz", "z30.bin"])
def test_zeros_routed_by_content(tmp_path, name):
    """--zeros reads a cache by its magic bytes, whatever the suffix."""
    ords = zeros.bundled_ordinates(30)
    source = tmp_path / name
    if name == "ords.npz":
        source.write_text("".join(f"{g:.13f}\n" for g in ords))
    else:
        zeros.save_cache(zeros.enrich(ords), source)
    report = tmp_path / "L.csv"
    assert cli.main(["verify", "L", "--limit", "500", "--zeros", str(source),
                     "--count", "20", "--samples", "linear:3:50:500",
                     "--output", str(report)]) == 0
    assert report.read_text().splitlines()[1].split(",")[-2] == "20"


@pytest.mark.parametrize("source", ["cache", "text"])
def test_count_beyond_the_zeros_file_exits_2(tmp_path, capsys, cache80,
                                             source):
    """--count is checked against the zeros that a cache or an ordinate
    file holds, the same way for both."""
    path = cache80
    if source == "text":
        path = str(tmp_path / "ords.txt")
        with open(path, "w") as fh:
            fh.write("".join(f"{g:.13f}\n"
                             for g in zeros.bundled_ordinates(80)))
    argv = ["verify", "L", "--limit", "500", "--zeros", path,
            "--samples", "linear:3:50:500",
            "--output", str(tmp_path / "L.csv")]
    capsys.readouterr()
    assert cli.main(argv + ["--count", "81"]) == 2
    assert (f"error: --count 81 exceeds the 80 zeros in {path}"
            in capsys.readouterr().err)
    assert cli.main(argv + ["--count", "80"]) == 0


@pytest.mark.parametrize("limit, weight, with_zeros, fold", [
    pytest.param("500", "0:2.5:40", False, (2, 101), id="identity"),
    pytest.param("2000", "1.5:2.5:30:3", True, (2, 76), id="zeros"),
])
def test_weighted_builds_the_inner_series_once(tmp_path, monkeypatch,
                                               cache80, limit, weight,
                                               with_zeros, fold):
    """Both sides of verify weighted's exact identity, and with zeros at
    eta*a >= 1 the boundary term of its zero expansion, read one S_2."""
    folds = []
    real = explicit.convolve_fft
    monkeypatch.setattr(explicit, "convolve_fft",
                        lambda *args: folds.append(args[1:]) or real(*args))
    argv = ["verify", "weighted", "--limit", limit, "--d", "3",
            "--weight", weight, "--output", str(tmp_path / "w.csv")]
    if with_zeros:
        argv += ["--zeros", cache80]
    assert cli.main(argv) == 0
    assert folds == [fold]


def test_config_file_precedence(tmp_path, cache80):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("limit = 900\ntrials = 3\n# comment\n")
    report = tmp_path / "id.csv"
    assert cli.main(["verify", "identity", "--config", str(cfgfile),
                     "--trials", "2", "--output", str(report)]) == 0
    manifest = json.loads((tmp_path / "id.csv.manifest.json").read_text())
    assert manifest["config"]["limit"] == 900     # from the file
    assert manifest["config"]["trials"] == 2      # flag wins
    assert manifest["ignored_config"] == {}


@pytest.mark.parametrize("argv, defaults, flags", [
    (["verify", "dfold", Z], {"limit": 10000, "d": 3},
     ["--limit", "10000", "--d", "3"]),
    (["verify", "weighted", Z, "--weight", "0:2.5:40"],
     {"limit": 10000, "d": 2}, ["--limit", "10000", "--d", "2"]),
    (["verify", "exponential", Z],
     {"limit": 10000, "y": [0.1, 0.05, 0.02, 0.01]},
     ["--limit", "10000", "--y", "0.1,0.05,0.02,0.01"]),
    (["convolve", "--limit", "300"], {"d": 2}, ["--d", "2"]),
], ids=["dfold", "weighted", "exponential", "convolve"])
def test_row_defaults_reach_the_manifest(tmp_path, cache80, argv, defaults,
                                         flags):
    """A run on its row's defaults records them in the manifest's config
    block, and its report matches, byte for byte, that of a run passing
    the same values as flags."""
    argv = [a for arg in argv for a in (["--zeros", cache80] if arg is Z
                                        else [arg])]
    reports = [tmp_path / "defaults.csv", tmp_path / "flags.csv"]
    for extra, report in zip(([], flags), reports):
        assert cli.main(argv + extra + ["--output", str(report)]) == 0
    manifest = json.loads(
        (tmp_path / "defaults.csv.manifest.json").read_text())
    assert {k: manifest["config"][k] for k in defaults} == defaults
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_manifest_lists_ignored_config_keys(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("s = 3\ny = 0.1\n")
    report = tmp_path / "id.csv"
    assert cli.main(["verify", "identity", "--config", str(cfgfile),
                     "--limit", "256", "--trials", "1",
                     "--output", str(report)]) == 0
    manifest = json.loads((tmp_path / "id.csv.manifest.json").read_text())
    assert manifest["config"]["s"] is None
    assert manifest["config"]["y"] is None
    assert manifest["ignored_config"] == {"s": [3.0, 0.0], "y": [0.1]}
    # a subcommand reads the options its parser declares
    cfgfile.write_text("limit = 300\nd = 3\nformat = json\n")
    out = tmp_path / "table.bin"
    assert cli.main(["sieve", "--config", str(cfgfile),
                     "--output", str(out)]) == 0
    manifest = json.loads((tmp_path / "table.bin.manifest.json").read_text())
    assert manifest["config"]["limit"] == 300
    assert manifest["config"]["d"] is None
    assert manifest["config"]["format"] is None
    assert manifest["ignored_config"] == {"d": 3, "format": "json"}


@pytest.mark.parametrize("argv, echo", [
    (["verify", "identity", "--limit", "256"],
     {"trials": 20, "format": "csv", "workers": 1, "zeros": None}),
    (["verify", "L", Z, "--limit", "800", "--samples", "log:3:10:800"],
     {"trials": None, "format": "csv", "workers": 1, "d": None}),
    (["bench", "--limit", "512"],
     {"trials": None, "format": "csv", "workers": None}),
    (["sieve", "--limit", "300"],
     {"trials": None, "format": None, "workers": None}),
    (["convolve", "--limit", "300"],
     {"trials": None, "format": None, "workers": None}),
    (["zeros-enrich", Z], {"trials": None, "format": None, "workers": None}),
], ids=["identity", "L", "bench", "sieve", "convolve", "zeros-enrich"])
def test_manifest_echoes_null_for_unread_options(tmp_path, cache80, argv,
                                                  echo):
    """Only the options a run reads carry a value in the manifest's
    config block; trials, format and workers are null elsewhere."""
    argv = [a for arg in argv for a in (["--zeros", cache80] if arg is Z
                                        else [arg])]
    out = tmp_path / "out.bin"
    assert cli.main(argv + ["--output", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.bin.manifest.json").read_text())
    assert {k: manifest["config"][k] for k in echo} == echo


@pytest.mark.parametrize("argv, key, least", [
    (["sieve", "--limit", "1"], "limit", 2),
    (["zeros-enrich", Z, "--count", "0"], "count", 1),
    (["verify", "dfold", Z, "--d", "1"], "d", 2),
    (["verify", "identity", "--trials", "0"], "trials", 1),
    (["verify", "identity", "--workers", "0"], "workers", 1),
], ids=["sieve-limit", "zeros-enrich-count", "dfold-d", "identity-trials",
        "identity-workers"])
def test_values_below_the_least_exit_2(monkeypatch, capsys, cache80, argv,
                                       key, least):
    """A value under its option's least value is a usage error found
    before the command does any work."""
    argv = [a for arg in argv for a in (["--zeros", cache80] if arg is Z
                                        else [arg])]

    def work(cfg):
        raise AssertionError(f"{argv[0]} ran with --{key} below {least}")

    monkeypatch.setitem(cli._COMMANDS, argv[0],
                        (work,) + cli._COMMANDS[argv[0]][1:])
    assert cli.main(argv) == 2
    assert (f"error: --{key} must be at least {least}"
            in capsys.readouterr().err)


def test_bad_ordinate_file_is_an_input_error(tmp_path, capsys):
    """A ValueError from reading the inputs exits 2 with "input error:"
    and leaves no cache behind."""
    ords = tmp_path / "ordinates.txt"
    ords.write_text(f"{zeros.bundled_ordinates(1)[0]:.13f}\n13.0\n")
    out = tmp_path / "cache.bin"
    assert cli.main(["zeros-enrich", "--zeros", str(ords),
                     "--output", str(out)]) == 2
    assert ("input error: line 2: non-monotone ordinate 13.0"
            in capsys.readouterr().err)
    assert not out.exists()


def test_bench_small_exits_clean(tmp_path):
    report = tmp_path / "bench.json"
    code = cli.main(["bench", "--limit", "512", "--format", "json",
                     "--output", str(report)])
    assert code == 0
    manifest = json.loads((tmp_path / "bench.json.manifest.json").read_text())
    res = manifest["results"]
    assert res["d3_fft_sha256"] == res["d3_naive_sha256"]
    assert res["convolve_d2_fft_seconds"] > 0.0


_SWEEP = ["direct", "main_term", "single_sum", "double_sum", "total",
          "residual", "envelope", "truncation_T", "zeros_used", "pair_terms"]
_SWEEP_SUMMARY = {"rows", "median_residual", "max_residual",
                  "envelope_exceedances", "max_relative_imag"}
_DIRICHLET = ["re_s", "im_s", "direct_re", "direct_im", "main_re", "main_im",
              "single_re", "single_im", "double_re", "double_im", "total_re",
              "total_im", "residual", "envelope", "truncation_T",
              "zeros_used", "pair_terms"]
_WEIGHTED = ["a", "b", "eta", "power", "d", "direct", "identity_rhs",
             "identity_rel_residual"]


@pytest.mark.parametrize("argv,columns,summary", [
    (["L", Z, "--limit", "800", "--samples", "log:3:10:800"],
     ["x"] + _SWEEP, _SWEEP_SUMMARY),
    (["M", Z, "--limit", "800", "--samples", "log:3:10:800"],
     ["x"] + _SWEEP, _SWEEP_SUMMARY),
    (["cesaro", Z, "--limit", "2000", "--samples", "log:3:200:2000"],
     ["x"] + _SWEEP, _SWEEP_SUMMARY),
    (["cesaro-mu", Z, "--limit", "2000", "--samples", "log:3:200:2000"],
     ["x"] + _SWEEP, _SWEEP_SUMMARY),
    (["dfold", Z, "--limit", "2000", "--samples", "log:3:200:2000"],
     ["x"] + _SWEEP, _SWEEP_SUMMARY),
    (["dirichlet", Z, "--limit", "2000", "--s", "3,1"], _DIRICHLET,
     _SWEEP_SUMMARY),
    (["dirichlet", Z, "--limit", "2000", "--s", "3"], _DIRICHLET,
     _SWEEP_SUMMARY),
    (["dirichlet", Z, "--limit", "2000", "--s", "3,5"], _DIRICHLET,
     _SWEEP_SUMMARY),
    (["exponential", Z, "--limit", "4000", "--y", "0.1,0.01"],
     ["y", "direct", "main_term", "single_sum", "double_sum", "total",
      "residual", "envelope", "deficit", "truncation_T", "zeros_used"],
     _SWEEP_SUMMARY | {"deficit_monotone", "deficit_final"}),
    (["weighted", Z, "--limit", "2000", "--weight", "0:2.5:40"],
     _WEIGHTED + ["main_term", "single_sum", "double_sum", "total",
                  "envelope", "truncation_T", "zeros_used", "pair_terms",
                  "residual"],
     {"rows", "identity_rel_residual", "identity_ok", "median_residual",
      "max_residual", "max_relative_imag", "envelope_exceedances"}),
    (["weighted", "--limit", "2000", "--weight", "0:2.5:40"],
     _WEIGHTED, {"rows", "identity_rel_residual", "identity_ok"}),
    (["identity", "--limit", "1024", "--trials", "2"],
     ["trial", "kind", "d", "a", "b", "eta", "power", "direct", "rhs",
      "residual", "rel_residual"],
     {"rows", "median_rel_residual", "max_rel_residual", "identity_ok"}),
], ids=["L", "M", "cesaro", "cesaro-mu", "dfold", "dirichlet", "dirichlet-s3",
        "dirichlet-s3-5", "exponential", "weighted-zeros", "weighted",
        "identity"])
def test_verify_report_schema(tmp_path, cache80, argv, columns, summary):
    """Each target's CSV columns, in order, and its summary keys.  Every
    zero target exits 0 and reports max_relative_imag as 0.0: its sums
    are formed from real parts, so there is nothing to discard."""
    argv = [a for arg in argv for a in (["--zeros", cache80] if arg is Z
                                        else [arg])]
    report = tmp_path / "report.csv"
    assert cli.main(["verify"] + argv + ["--output", str(report)]) == 0
    head, got = _summary_block(report.read_text())
    assert head.splitlines()[0].split(",") == columns
    assert set(got) == summary
    assert got.get("max_relative_imag", "0.0") == "0.0"


def test_default_artifact_names(tmp_path, monkeypatch):
    ords = tmp_path / "ordinates.txt"
    ords.write_text("".join(f"{g:.13f}\n"
                            for g in zeros.bundled_ordinates(10)))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sieve", "--limit", "100"]) == 0
    assert cli.main(["zeros-enrich", "--zeros", str(ords)]) == 0
    raw = (tmp_path / "sieve-table.bin").read_bytes()
    assert raw[:16] == b"LAMBDATBL\x01" + (100).to_bytes(6, "little")
    assert raw[16:] == sieve.build_sieve(sieve.KIND_LIOUVILLE,
                                         100).values[1:].tobytes()
    assert len(zeros.load_cache("zeros-cache.bin")) == 10
    assert (tmp_path / "sieve-table.bin.manifest.json").exists()
    assert (tmp_path / "zeros-cache.bin.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["sieve", "--limit", "300000", "--output", "table.bin"],
    ["convolve", "--limit", "3000", "--d", "3", "--output", "series.csv"],
], ids=["sieve", "convolve"])
def test_exact_commands_never_form_prefix_sums(tmp_path, monkeypatch, argv):
    """sieve takes L(N) from the values and streams growth_diagnostic;
    convolve never reads the prefix sums either."""
    def refuse(table):
        raise AssertionError("prefix sums formed")

    monkeypatch.setattr(sieve.SieveTable, "prefix", property(refuse))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    if argv[0] == "sieve":
        values = sieve.build_sieve(sieve.KIND_LIOUVILLE, 300000).values
        results = json.loads(
            (tmp_path / "table.bin.manifest.json").read_text())["results"]
        assert results["summatory_at_limit"] == int(values.sum())


def test_sieve_growth_failure_exits_1(tmp_path, monkeypatch, capsys):
    """An all-ones table breaks the growth bound: the table and its
    manifest are still written, and main returns 1 instead of raising."""
    monkeypatch.setattr(sieve, "_sieve_fill",
                        lambda kind, primes, values, a, b:
                        values[a:b].fill(1))
    table_path = tmp_path / "table.bin"
    assert cli.main(["sieve", "--limit", "1000",
                     "--output", str(table_path)]) == 1
    assert "invariant failure" in capsys.readouterr().err
    raw = table_path.read_bytes()
    assert raw[10:16] == (1000).to_bytes(6, "little")
    assert raw[16:] == b"\x01" * 1000
    manifest = json.loads(
        (tmp_path / "table.bin.manifest.json").read_text())
    assert manifest["results"]["growth_diagnostic"] > 3.0


@pytest.mark.parametrize("argv, where", [
    (["weighted", "--limit", "2000", "--weight", "0:2.5:40"], "weighted run"),
    (["identity", "--limit", "1024", "--trials", "2"],
     "trial 0 (liouville, d=2)"),
], ids=["weighted", "identity"])
def test_exact_identity_failure_exits_1(tmp_path, monkeypatch, capsys, argv,
                                        where):
    """A right-hand side one off the direct sum breaks the exact identity:
    the report, with identity_ok false, and its manifest are still
    written, and main returns 1 instead of raising."""
    direct = explicit.weighted_average_direct
    monkeypatch.setattr(explicit, "weighted_average_rhs",
                        lambda wa: direct(wa) + 1.0)
    report = tmp_path / "report.csv"
    assert cli.main(["verify"] + argv + ["--output", str(report)]) == 1
    assert (f"invariant failure: {where}: exact identity residual"
            in capsys.readouterr().err)
    assert _summary_block(report.read_text())[1]["identity_ok"] == "false"
    manifest = json.loads(
        (tmp_path / "report.csv.manifest.json").read_text())
    assert (manifest["report"]["sha256"]
            == hashlib.sha256(report.read_bytes()).hexdigest())


def test_sieve_and_convolve_artifacts(tmp_path):
    table_path = tmp_path / "table.npz"
    assert cli.main(["sieve", "--limit", "2000",
                     "--output", str(table_path)]) == 0
    assert table_path.exists()
    series_path = tmp_path / "series.csv"
    assert cli.main(["convolve", "--limit", "1000", "--d", "3",
                     "--output", str(series_path)]) == 0
    header = series_path.read_text().splitlines()[0]
    assert header == "n,value"
    manifest = json.loads((tmp_path / "series.csv.manifest.json").read_text())
    results = manifest["results"]
    assert results["method"] == "fft-certified"
    assert results["fft_length"] == 2000    # least 5-smooth >= 1999
    assert results["limbs"] == [1, 1]
    assert 0.0 <= results["max_residue"] < 0.25
