"""The benchmark's workloads: seed -> CLI argument lists and check positions.

Every workload is a fixed amount of work.  The seed moves only the lower
end of the cesaro-pairs sample grid (inside a narrow band, so the cost is
the same) and the positions the output checks look at.  The program sees
nothing but the argument lists built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Sizes are pinned: changing one invalidates every baseline.
CESARO_LIMIT = 1_000_000
CESARO_ZEROS = 1000
CESARO_SAMPLES = 40
SIEVE_LIMIT = 10_000_000
D2_LIMIT = 1_048_576
D3_LIMIT = 100_000
IDENTITY_LIMIT = 4096
IDENTITY_TRIALS = 20
SUMMATORY_LIMIT = 10_000
ALL_ZEROS = 10_000
EXPONENTIAL_ZEROS = 1000
# rows of the CLI's default grids: 50 samples for verify L, four decay
# parameters y for verify exponential
L_SAMPLES = 50
EXPONENTIAL_YS = 4


@dataclass
class Call:
    """One CLI invocation: the argv for ``liouconv.cli.main`` and its outputs."""

    name: str
    argv: list
    outputs: list = field(default_factory=list)


@dataclass
class Plan:
    workload: str
    setup: list      # calls that prepare the workload's given inputs
    timed: list      # calls whose wall time is the workload's wall_s
    picks: dict      # seed-chosen check positions


def _cesaro_pairs(rng, zeros_txt):
    lo = round(float(rng.uniform(990.0, 1010.0)), 3)
    cache = f"zeros-{CESARO_ZEROS}.npz"
    setup = [Call("zeros-enrich", ["zeros-enrich", "--zeros", zeros_txt,
                                   "--count", str(CESARO_ZEROS),
                                   "--output", cache], [cache])]
    samples = f"log:{CESARO_SAMPLES}:{lo!r}:{CESARO_LIMIT}"
    timed = [Call("verify-cesaro",
                  ["verify", "cesaro", "--limit", str(CESARO_LIMIT),
                   "--zeros", cache, "--count", str(CESARO_ZEROS),
                   "--samples", samples, "--workers", "2",
                   "--output", "cesaro.csv"], ["cesaro.csv"])]
    picks = {"lo": lo,
             "rows": sorted(rng.choice(CESARO_SAMPLES, 2, replace=False)
                            .tolist()),
             "zero_index": sorted(rng.choice(CESARO_ZEROS, 3, replace=False)
                                  .tolist())}
    return Plan("cesaro-pairs", setup, timed, picks)


def _exact_series(rng, zeros_txt):
    timed = [
        Call("sieve", ["sieve", "--limit", str(SIEVE_LIMIT),
                       "--output", "sieve-table.npz"], ["sieve-table.npz"]),
        Call("convolve-d2", ["convolve", "--d", "2", "--limit", str(D2_LIMIT),
                             "--output", "conv-d2.csv"], ["conv-d2.csv"]),
        Call("convolve-d3", ["convolve", "--d", "3", "--limit", str(D3_LIMIT),
                             "--output", "conv-d3.csv"], ["conv-d3.csv"]),
        Call("verify-identity", ["verify", "identity", "--limit",
                                 str(IDENTITY_LIMIT), "--trials",
                                 str(IDENTITY_TRIALS), "--output",
                                 "identity.csv"], ["identity.csv"]),
    ]
    picks = {
        "sieve_n": sorted(rng.integers(1, SIEVE_LIMIT + 1, 64).tolist())
        + [SIEVE_LIMIT],
        "d2_n": sorted(rng.integers(2, D2_LIMIT + 1, 6).tolist()) + [D2_LIMIT],
        "d3_n": sorted(rng.integers(3, D3_LIMIT + 1, 6).tolist()) + [D3_LIMIT],
    }
    return Plan("exact-series", [], timed, picks)


def _zeros_summatory(rng, zeros_txt):
    cache = f"zeros-{ALL_ZEROS}.npz"
    timed = [
        Call("zeros-enrich", ["zeros-enrich", "--zeros", zeros_txt,
                              "--output", cache], [cache]),
        Call("verify-L", ["verify", "L", "--limit", str(SUMMATORY_LIMIT),
                          "--zeros", cache, "--output", "L.csv"], ["L.csv"]),
        Call("verify-exponential",
             ["verify", "exponential", "--limit", str(SUMMATORY_LIMIT),
              "--zeros", cache, "--count", str(EXPONENTIAL_ZEROS),
              "--output", "exponential.csv"], ["exponential.csv"]),
    ]
    picks = {"rows": sorted(rng.choice(L_SAMPLES, 2, replace=False).tolist()),
             "zero_index": sorted(rng.choice(ALL_ZEROS, 3, replace=False)
                                  .tolist())}
    return Plan("zeros-summatory", [], timed, picks)


WORKLOADS = {
    "cesaro-pairs": _cesaro_pairs,
    "exact-series": _exact_series,
    "zeros-summatory": _zeros_summatory,
}


def make_plan(workload, seed, zeros_txt):
    """The calls and check positions of one workload for one seed."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, zeros_txt)
