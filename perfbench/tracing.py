"""Spans around the public functions of ``ambitlab``, recorded from outside.

``Tracer.install`` wraps each function in ``TRACED`` at every module
attribute of the loaded ``ambitlab`` modules that is bound to it.  Patching
only the defining module would miss calls: ``limits`` and ``cli`` bind
``simulate_lattice``, ``expected_scaled_pv`` and others by ``from ... import``,
while ``asymptotics`` reaches ``kernels.mu_mass`` through the module.

A span is ``[name, start, end, parent, work]``; ``parent`` indexes the span
that was open when the call began (-1 for a root) and ``work`` is the count
that ``WORK`` derives from the call's arguments and result.  Spans stay in
memory; ``layer_metrics`` turns a finished list into the per-layer metrics.
"""

import functools
import importlib
import inspect
import math
import statistics
import sys
import time

TRACED = {
    "cli": ("validate", "run"),
    "limits": ("lln_experiment", "clt_experiment", "sigma_functional"),
    "kernels": ("compute_cn", "mu_mass", "concentration_mass"),
    "asymptotics": ("region_catalog", "region_measures", "assumption2_ratio",
                    "slope_fit"),
    "simulate": ("simulate_lattice", "increments", "increment_covariance",
                 "sample_increments_exact", "rho_bar"),
    "variation": ("variation_field", "scaled_power_variation",
                  "expected_scaled_pv"),
    "volatility": ("sample_volatility",),
}

# Called once per replication or grid point, so their duration spread is
# reported as well.
PERCENTILES = ("simulate.simulate_lattice", "variation.expected_scaled_pv")


def _noise_cells(args, result):
    return int(args["M"]) ** 2


def _dim(args, result):
    return int(result.dim)


def _corners(args, result):
    # Same quotient and floor as the retained-corner count in variation.
    eps = int(args["k"]) / int(args["n"])
    ci = math.floor(float(args["s"]) / eps)
    cj = math.floor(float(args["t"]) / eps)
    return ci * cj if ci > 0 and cj > 0 else 0


def _cn_key(args, result):
    return f"{args['spec']!r}|{int(args['n'])}"


# Span name -> (metric suffix, count from the bound arguments and the result).
# The "distinct" metric counts distinct keys; the others sum the counts.
WORK = {
    "simulate.simulate_lattice": ("noise_cells", _noise_cells),
    "simulate.increment_covariance": ("dim", _dim),
    "variation.expected_scaled_pv": ("corners", _corners),
    "kernels.compute_cn": ("distinct", _cn_key),
}


def metric_names():
    """Every per-layer metric with its unit, in a fixed order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            span = f"{module}.{fn}"
            names += [(f"{span}.calls", "count"), (f"{span}.total_s", "s"),
                      (f"{span}.self_s", "s")]
            if span in PERCENTILES:
                names += [(f"{span}.p50_ms", "ms"), (f"{span}.p90_ms", "ms")]
            if span in WORK:
                names.append((f"{span}.{WORK[span][0]}", "count"))
    names.append(("tracing_overhead_s", "s"))
    return names


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = work[1](bound.arguments, result)
            return result

        return wrapper

    def install(self):
        """Rebind every module attribute that refers to a traced function."""
        wrappers = {}
        for module, functions in TRACED.items():
            mod = importlib.import_module(f"ambitlab.{module}")
            for fn in functions:
                original = getattr(mod, fn)
                wrappers[id(original)] = (original, self._wrap(f"{module}.{fn}", original))
        for mod in ambitlab_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()


def ambitlab_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ambitlab" or name.startswith("ambitlab."))]


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children of one span never overlap and
    their summed durations are the part of the parent's interval they cover.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _percentile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1e3 * cuts[q - 1]


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed as in ``metric_names``."""
    own = self_times(spans)
    by_name = {}
    for span, self_s in zip(spans, own):
        by_name.setdefault(span[0], []).append((span[2] - span[1], self_s, span[4]))
    metrics = {}
    for module, functions in TRACED.items():
        for fn in functions:
            name = f"{module}.{fn}"
            rows = by_name.get(name, [])
            metrics[f"{name}.calls"] = len(rows)
            metrics[f"{name}.total_s"] = sum(r[0] for r in rows)
            metrics[f"{name}.self_s"] = sum(r[1] for r in rows)
            if name in PERCENTILES:
                durations = [r[0] for r in rows]
                metrics[f"{name}.p50_ms"] = _percentile_ms(durations, 50)
                metrics[f"{name}.p90_ms"] = _percentile_ms(durations, 90)
            if name in WORK:
                suffix = WORK[name][0]
                counts = [r[2] for r in rows if r[2] is not None]
                metrics[f"{name}.{suffix}"] = (len(set(counts)) if suffix == "distinct"
                                               else sum(counts))
    return metrics
