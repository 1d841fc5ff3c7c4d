"""Outside-in tracing: wrap each layer's public functions at module level.

The wrappers replace module attributes of an already imported
``liouconv``; nothing inside the package changes.  Each call records a
span (name, start, end, parent span, run id) plus a few counts read off
its arguments and result.  Spans stay in memory until the run ends.

``explicit`` imports ``convolve_fft`` by name, so that attribute is
wrapped too; both names share one wrapper and one span name.
"""

from __future__ import annotations

import functools
import os
import threading
import time

import numpy as np


def _size(args, kwargs, key, pos):
    value = kwargs[key] if key in kwargs else args[pos]
    return int(np.size(value))


def _file_bytes(args, kwargs, key, pos):
    path = kwargs[key] if key in kwargs else args[pos]
    return os.path.getsize(path)


# span name -> (module, attribute, counts(args, kwargs, result) -> dict)
TARGETS = {
    "sieve.build_sieve": ("sieve", "build_sieve",
                          lambda a, k, r: {"entries": int(r.limit)}),
    "sieve.dump_table": ("sieve", "dump_table", None),
    "sieve.summatory": ("sieve", "summatory", None),
    "convolve.convolve_fft": ("convolve", "convolve_fft",
                              lambda a, k, r: {"kept": int("fallback"
                                                           not in r.method)}),
    "convolve.convolve_naive": ("convolve", "convolve_naive", None),
    "convolve.cesaro_sum": ("convolve", "cesaro_sum", None),
    "convolve.export_csv": ("convolve", "export_csv",
                            lambda a, k, r: {"bytes": _file_bytes(a, k, "path", 1)}),
    "specfun.log_gamma": ("specfun", "log_gamma",
                          lambda a, k, r: {"points": _size(a, k, "z", 0)}),
    "specfun.zeta": ("specfun", "zeta",
                     lambda a, k, r: {"points": _size(a, k, "s", 0)}),
    "specfun.zeta_derivative": ("specfun", "zeta_derivative",
                                lambda a, k, r: {"points": _size(a, k, "s", 0)}),
    "zeros.load_ordinates": ("zeros", "load_ordinates", None),
    "zeros.enrich": ("zeros", "enrich", lambda a, k, r: {"zeros": len(r)}),
    "zeros.save_cache": ("zeros", "save_cache",
                         lambda a, k, r: {"bytes": _file_bytes(a, k, "path", 1)}),
    "zeros.load_cache": ("zeros", "load_cache",
                         lambda a, k, r: {"bytes": _file_bytes(a, k, "path", 0)}),
    "explicit.explicit_cesaro": ("explicit", "explicit_cesaro",
                                 lambda a, k, r: {"pair_terms": r.pair_terms,
                                                  "zeros_used": r.zeros_used}),
    "explicit.explicit_summatory": ("explicit", "explicit_summatory", None),
    "explicit.exponential_explicit": ("explicit", "exponential_explicit", None),
    "explicit.exponential_direct": ("explicit", "exponential_direct", None),
    "explicit.blocked_sum": ("explicit", "blocked_sum",
                             lambda a, k, r: {"terms": _size(a, k, "values", 0)}),
    "explicit.weighted_average_direct": ("explicit", "weighted_average_direct",
                                         None),
    "explicit.weighted_average_rhs": ("explicit", "weighted_average_rhs", None),
    "cli.main": ("cli", "main", None),
}

# attributes that hold a function another module owns; wrapped only while
# they still hold that same function
ALIASES = [("explicit", "convolve_fft", "convolve.convolve_fft")]


class Tracer:
    """Span recorder; spans are [name, start, end, parent, run, counts]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._local = threading.local()

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.run_id, None]
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                try:
                    span[5] = counts(args, kwargs, result)
                except (AttributeError, TypeError, OSError):
                    pass     # a changed signature costs a count, not the call
            return result
        return traced

    def install(self, package):
        """Wrap every target in TARGETS on the given ``liouconv`` package.

        A target the package no longer has is skipped; its metrics read 0.
        """
        originals = {}
        wrappers = {}
        for name, (module, attr, counts) in TARGETS.items():
            mod = getattr(package, module)
            if hasattr(mod, attr):
                originals[name] = getattr(mod, attr)
                wrappers[name] = self.wrap(name, originals[name], counts)
                setattr(mod, attr, wrappers[name])
        for module, attr, name in ALIASES:
            mod = getattr(package, module)
            if name in originals and getattr(mod, attr, None) is originals[name]:
                setattr(mod, attr, wrappers[name])


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, window):
    """Per-layer metrics of one traced run.

    ``window`` is the (start, end) of the timed calls; the cli coverage
    share is measured inside it.  Every other metric sums all spans of
    the run, set-up included, so set-up work shows in its layer.
    Names ending in ``self_s`` are self time; other ``_s`` names are the
    inclusive time of the named calls.
    """
    own = self_times(spans)
    total = {}
    selft = {}
    calls = {}
    counts = {}
    for s, o in zip(spans, own):
        name = s[0]
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        selft[name] = selft.get(name, 0.0) + o
        calls[name] = calls.get(name, 0) + 1
        for key, value in (s[5] or {}).items():
            ck = f"{name}:{key}"
            counts[ck] = counts.get(ck, 0) + value

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(name, key):
        return counts.get(f"{name}:{key}", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    # each unordered pair i <= j of the zeros used offers two sign
    # patterns, (rho_i, rho_j) and (rho_i, conj rho_j)
    slots = 0
    for s in spans:
        if s[0] == "explicit.explicit_cesaro" and s[5]:
            k = s[5]["zeros_used"]
            slots += k * (k + 1)
    pair_terms = c("explicit.explicit_cesaro", "pair_terms")

    start, end = window
    cli_cover = sum(s[2] - s[1] for s in spans
                    if s[0] == "cli.main" and s[1] >= start and s[2] <= end)
    wall = end - start

    return {
        "sieve.build_s": t("sieve.build_sieve"),
        "sieve.build_calls": n("sieve.build_sieve"),
        "sieve.entries": c("sieve.build_sieve", "entries"),
        "sieve.dump_s": t("sieve.dump_table"),
        "convolve.fft_self_s": selft.get("convolve.convolve_fft", 0.0),
        "convolve.fft_calls": n("convolve.convolve_fft"),
        "convolve.fallback_s": t("convolve.convolve_naive"),
        "convolve.fallback_calls": n("convolve.convolve_naive"),
        "convolve.fft_kept_ratio": ratio(c("convolve.convolve_fft", "kept"),
                                         n("convolve.convolve_fft")),
        "convolve.export_s": t("convolve.export_csv"),
        "convolve.export_bytes": c("convolve.export_csv", "bytes"),
        "convolve.cesaro_sum_s": t("convolve.cesaro_sum"),
        "convolve.cesaro_sum_calls": n("convolve.cesaro_sum"),
        "specfun.log_gamma_s": t("specfun.log_gamma"),
        "specfun.log_gamma_calls": n("specfun.log_gamma"),
        "specfun.log_gamma_points": c("specfun.log_gamma", "points"),
        "specfun.zeta_s": t("specfun.zeta"),
        "specfun.zeta_points": c("specfun.zeta", "points"),
        "specfun.zeta_derivative_s": t("specfun.zeta_derivative"),
        "specfun.zeta_derivative_points": c("specfun.zeta_derivative",
                                            "points"),
        "zeros.enrich_self_s": selft.get("zeros.enrich", 0.0),
        "zeros.enrich_zeros": c("zeros.enrich", "zeros"),
        "zeros.load_ordinates_s": t("zeros.load_ordinates"),
        "zeros.cache_write_s": t("zeros.save_cache"),
        "zeros.cache_read_s": t("zeros.load_cache"),
        "zeros.cache_bytes": (c("zeros.save_cache", "bytes")
                              + c("zeros.load_cache", "bytes")),
        "explicit.cesaro_self_s": selft.get("explicit.explicit_cesaro", 0.0),
        "explicit.cesaro_calls": n("explicit.explicit_cesaro"),
        "explicit.pair_terms": pair_terms,
        "explicit.pair_slots": slots,
        "explicit.pair_kept_ratio": ratio(pair_terms, slots),
        "explicit.blocked_sum_s": t("explicit.blocked_sum"),
        "explicit.blocked_sum_calls": n("explicit.blocked_sum"),
        "explicit.blocked_sum_terms": c("explicit.blocked_sum", "terms"),
        "explicit.summatory_s": t("explicit.explicit_summatory"),
        "explicit.exponential_s": (t("explicit.exponential_explicit")
                                   + t("explicit.exponential_direct")),
        "explicit.identity_s": (t("explicit.weighted_average_direct")
                                + t("explicit.weighted_average_rhs")),
        "cli.self_s": selft.get("cli.main", 0.0),
        "cli.calls": n("cli.main"),
        "cli.uncovered_frac": ratio(wall - cli_cover, wall),
        "trace.spans": len(spans),
    }
