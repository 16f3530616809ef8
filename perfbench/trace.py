"""Run one benchmark operation with span and count wrappers on chaosco's layers.

    python3 perfbench/trace.py TRACE_JSON cli <chaosco CLI arguments>
    python3 perfbench/trace.py TRACE_JSON lib <libops arguments>

The wrappers are installed from here, with no edit to the package: every
module attribute bound to a wrapped function is replaced, so names imported
with ``from ... import`` (``cli`` and ``montecarlo`` bind ``coeffs_terminal``,
``evaluate`` and others that way) are traced too.  Generators are timed
across their iteration, one span per ``next``.

A span's self time is its duration minus the time of the spans it encloses.
When the operation ends, calls and self time per span, the counts, and the
tail-mass cache statistics are written to TRACE_JSON.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

import chaosco
import chaosco.cli as cli
from chaosco import chaos, clark_ocone, hermite, montecarlo, multiindex


class Tracer:
    """Span stack and counters of one process.

    Every wrapped function runs on the calling thread: sample_paths's worker
    threads only run the unwrapped block sampler, so one stack suffices.
    """

    def __init__(self):
        self.stack = []  # [name, start, time of enclosed spans]
        self.spans = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counts = Counter()
        self.bound_orders = set()

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self, calls=1):
        name, start, enclosed = self.stack.pop()
        duration = time.perf_counter() - start
        span = self.spans[name]
        span[0] += calls
        span[1] += duration - enclosed
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name, fn, count=None):
        """Wrap ``fn`` in a span; ``count(result, *args)`` adds to the counters."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if count is not None:
                count(result, *args, **kwargs)
            return result

        return wrapper

    def generator(self, name, fn):
        """Wrap a generator function: a span per ``next``.

        Yields are counted as ``<name>.indexes`` and, for the span that
        consumes them, as ``<consumer>.enumerated``.
        """

        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            consumer = self.stack[-1][0] if self.stack else "top"
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave(calls=0)
                self.counts[name + ".indexes"] += 1
                self.counts[consumer + ".enumerated"] += 1
                yield item

        return wrapper

    def result(self):
        info = clark_ocone._tail_mass_value.cache_info()
        return {
            "spans": {k: {"calls": c, "self_s": s} for k, (c, s) in self.spans.items()},
            "counts": dict(self.counts, **{
                "clark_ocone.error_norm_bound.distinct": len(self.bound_orders),
                "clark_ocone.tail_mass.cache_hits": info.hits,
                "clark_ocone.tail_mass.cache_lookups": info.hits + info.misses,
            }),
        }


def _replace(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap each layer's public functions at every import site."""
    modules = [chaosco, cli, chaos, clark_ocone, hermite, montecarlo, multiindex,
               *extra_modules]

    def add(key, n):
        tracer.counts[key] += n

    def bound_count(result, f, n, n1, s, r):
        tracer.bound_orders.add((id(f), s + r * n))

    def verify_count(result, *args):
        add("clark_ocone.verify_bound.rows", 1)
        add("clark_ocone.verify_bound.failed", int(not result.holds))

    spans = [
        (hermite, "gauss_hermite_rule", "hermite.gauss_hermite_rule", None),
        (hermite, "eval_all", "hermite.eval_all",
         lambda r, *a: add("hermite.eval_all.values", r.size)),
        (hermite, "hermite_indicator_integral", "hermite.indicator_integral", None),
        (chaos, "sobolev_norm", "chaos.sobolev_norm",
         lambda r, f, s: add("chaos.sobolev_norm.coeffs_visited", len(f.coeffs))),
        (chaos, "refine", "chaos.refine",
         lambda r, *a: add("chaos.refine.fine_coeffs", len(r.coeffs))),
        (chaos, "evaluate", "chaos.evaluate",
         lambda r, f, xi: add("chaos.evaluate.term_paths",
                              len(f.coeffs) * math.prod(np.shape(xi)[:-1]))),
        (chaos, "write_expansion_csv", "chaos.write_expansion_csv",
         lambda r, f, *a: add("chaos.write_expansion_csv.rows", len(f.coeffs))),
        (clark_ocone, "decompose", "clark_ocone.decompose",
         lambda r, f: add("clark_ocone.decompose.terms", len(r.terms))),
        (clark_ocone, "err_norm_refined", "clark_ocone.err_norm_refined",
         lambda r, f, *a: add("clark_ocone.err_norm_refined.coeffs_visited", len(f.coeffs))),
        (clark_ocone, "tail_mass", "clark_ocone.tail_mass",
         lambda r, *a: add("clark_ocone.tail_mass.nonzero", int(r > 0.0))),
        (clark_ocone, "error_norm_bound", "clark_ocone.error_norm_bound", bound_count),
        (clark_ocone, "verify_bound", "clark_ocone.verify_bound", verify_count),
        (clark_ocone, "evaluate_decomposition", "clark_ocone.evaluate_decomposition", None),
        (montecarlo, "hermite_expand_terminal", "montecarlo.hermite_expand_terminal", None),
        (montecarlo, "coeffs_terminal", "montecarlo.coeffs_terminal",
         lambda r, *a: add("montecarlo.coeffs_terminal.coeffs", len(r.coeffs))),
        (montecarlo, "coeffs_occupation_time", "montecarlo.coeffs_occupation_time", None),
        (montecarlo, "occupation_error_norm", "montecarlo.occupation_error_norm", None),
        (montecarlo, "sample_paths", "montecarlo.sample_paths",
         lambda r, *a, **k: (add("montecarlo.sample_paths.normals", r.increments.size),
                             add("montecarlo.sample_paths.blocks",
                                 -(-r.n_samples // montecarlo.SAMPLE_BLOCK)))),
        (montecarlo, "tracking_error_hedge", "montecarlo.tracking_error_hedge",
         lambda r, payoff, grid, batch: add("montecarlo.tracking_error_hedge.path_steps",
                                            batch.increments.size)),
        (montecarlo, "mc_err_norm", "montecarlo.mc_err_norm", None),
        (cli, "resolve_config", "cli.resolve_config", None),
        (cli, "_write_atomic", "cli.write",
         lambda r, path, text: add("cli.output_bytes", len(text.encode("utf-8")))),
    ]
    for module, attr, name, count in spans:
        original = getattr(module, attr)
        _replace(modules, original, tracer.span(name, original, count))

    for attr in ("enumerate_upto", "enumerate_matching"):
        original = getattr(multiindex, attr)
        _replace(modules, original, tracer.generator(f"multiindex.{attr}", original))

    post_init = chaos.ChaosExpansion.__post_init__

    def construct_count(result, expansion):
        add("chaos.construct.coeffs", len(expansion.coeffs))

    chaos.ChaosExpansion.__post_init__ = tracer.span("chaos.construct", post_init,
                                                     construct_count)
    for command, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[command] = tracer.span("cli.handler", handler)


def main(argv) -> int:
    trace_path, kind, *args = argv
    tracer = Tracer()
    if kind == "cli":
        install(tracer)
        run = cli.main
    else:
        import libops

        install(tracer, [libops])
        run = libops.main
    try:
        return run(args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.result(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
