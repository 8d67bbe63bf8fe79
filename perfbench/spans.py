"""Outside-in tracing of passperf for the benchmark's per-layer metrics.

Nothing in the package is edited. ``Tracer.install`` replaces every public
passperf function at each module-level name a caller looks it up by (for
example ``passperf.wdma.refined_unit`` or ``passperf.cli.run_sweep``) with a
wrapper that records one span per call: name, start, end, parent, and a
work count taken from the arguments. Spans stay in memory until the run
ends. Self times are derived from the spans afterwards: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter

PACKAGE_MODULES = ("cli", "config", "geometry", "montecarlo", "noma", "quadrature", "sweep", "wdma")

# Span names (``<module>.<function>``) grouped into the layers reported.
LAYERS = {
    "quadrature.rule": ("quadrature.chebyshev_rule", "quadrature.integrate_unit",
                        "quadrature.integrate_interval", "quadrature.refined_unit",
                        "quadrature.refined_interval"),
    "quadrature.j": ("quadrature.j0", "quadrature.j1"),
    "geometry.density": ("geometry.diff_pdf", "geometry.diff_cdf", "geometry.sq_diff_cdf"),
    "geometry.sample": ("geometry.sample_wdma", "geometry.sample_noma"),
}
# Spans not named in LAYERS fall into the layer of their module.

# Public analytic functions whose inclusive cost per call is reported.
CELL_FUNCTIONS = {
    "wdma.outage": "wdma.wdma_outage",
    "wdma.rate": "wdma.wdma_avg_rate",
    "wdma.outage_floor": "wdma.wdma_outage_floor",
    "wdma.rate_ceiling": "wdma.wdma_rate_ceiling",
    "noma.outage_near": "noma.noma_outage_near",
    "noma.outage_far": "noma.noma_outage_far",
    "noma.rate_near": "noma.noma_rate_near",
    "noma.rate_far": "noma.noma_rate_far",
    "noma.zero_outage_thresholds": "noma.noma_zero_outage_thresholds",
    "noma.breakpoints": "noma.noma_breakpoints",
}

# The per-difference calls find_crossover makes: one of these per evaluation.
CROSSOVER_PROBES = ("noma.noma_rate_near", "noma.noma_outage_far")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(value) -> int:
    shape = getattr(value, "shape", ())
    return math.prod(shape)


def _broadcast_size(*values) -> int:
    shapes = [getattr(v, "shape", ()) for v in values]
    width = max(len(s) for s in shapes)
    padded = [(1,) * (width - len(s)) + tuple(s) for s in shapes]
    return math.prod(max(dims) for dims in zip(*padded)) if width else 1


class Tracer:
    """Span recorder; spans live in flat arrays indexed by span number."""

    def __init__(self):
        self.names: list = []  # span name table; one entry per wrapped function
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.mc_blocks: list = []  # (span index, (scheme, seed, start)) per simulated block
        self._stack = [-1]
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name, work):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, work_arr, stack = (
            self.span_name, self.parent, self.start, self.end, self.work, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            work_arr.append(work(args, kwargs) if work is not None else 0.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = t0
                stack.pop()

        return traced

    def _work_counters(self) -> dict:
        def blocks(args, kwargs):
            key = (_arg(args, kwargs, 0, "scheme"), _arg(args, kwargs, 4, "seed"),
                   _arg(args, kwargs, 5, "start"))
            self.mc_blocks.append((len(self.span_name) - 1, key))
            return _arg(args, kwargs, 6, "count")

        def sample_size(args, kwargs):
            size = kwargs.get("size", args[2] if len(args) > 2 else None)
            return 1 if size is None else size

        density = lambda args, kwargs: _size(args[0])  # noqa: E731
        return {
            "quadrature.integrate_unit": lambda args, kwargs: _arg(args, kwargs, 1, "n_nodes"),
            "quadrature.j0": lambda args, kwargs: _broadcast_size(*args[:3]),
            "quadrature.j1": lambda args, kwargs: _broadcast_size(*args[:3]),
            "geometry.diff_pdf": density,
            "geometry.diff_cdf": density,
            "geometry.sq_diff_cdf": density,
            "geometry.sample_wdma": sample_size,
            "geometry.sample_noma": sample_size,
            "montecarlo.sinr_trials": blocks,
        }

    def install(self, modules: dict) -> None:
        """Wrap every public package function at every module-level binding.

        ``modules`` maps the short module names of PACKAGE_MODULES to the
        imported modules. One wrapper serves all bindings of a function, so
        a span is named after the function, not the caller.
        """
        counters = self._work_counters()
        wrappers = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not owner.startswith("passperf.")):
                    continue
                name = f"{owner.split('.', 1)[1]}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name, counters.get(name))
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def mark(self) -> int:
        return len(self.span_name)

    # -- analysis ---------------------------------------------------------

    def summarize(self, first: int, last: int) -> "SpanSummary":
        """Aggregate the spans first..last-1 of one pass."""
        duration = [self.end[i] - self.start[i] for i in range(first, last)]
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += duration[i - first]
        summary = SpanSummary()
        for i in range(first, last):
            name = self.names[self.span_name[i]]
            summary.calls[name] += 1
            summary.inclusive[name] += duration[i - first]
            summary.self_s[name] += duration[i - first] - child[i - first]
            summary.work[name] += self.work[i]
            p = self.parent[i]
            if (p >= first and name in CROSSOVER_PROBES
                    and self.names[self.span_name[p]] == "sweep.find_crossover"):
                summary.crossover_evals += 1
        blocks = [key for index, key in self.mc_blocks if first <= index < last]
        summary.mc_blocks = len(blocks)
        summary.mc_distinct_blocks = len(set(blocks))
        return summary

    def dump(self, path, first: int, last: int) -> None:
        """Write spans first..last-1 to ``path`` as a NumPy .npz archive.

        Arrays: ``names`` (span name table), ``name`` (index into it),
        ``start`` and ``end`` (perf_counter seconds), ``parent`` (span index,
        -1 for a root) and ``work`` (the call's work count).
        """
        import numpy as np

        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last] - first
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32)[first:last],
                 start=np.frombuffer(self.start)[first:last],
                 end=np.frombuffer(self.end)[first:last],
                 parent=np.where(parent < 0, -1, parent),
                 work=np.frombuffer(self.work)[first:last])


class SpanSummary:
    """Per-function totals of a stretch of spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_s: Counter = Counter()
        self.work: Counter = Counter()
        self.crossover_evals = 0
        self.mc_blocks = 0
        self.mc_distinct_blocks = 0

    def layer_self_s(self) -> dict:
        """Self time per layer: LAYERS groups, else the function's module."""
        layer_of = {name: layer for layer, names in LAYERS.items() for name in names}
        totals = Counter()
        for name, value in self.self_s.items():
            totals[layer_of.get(name, name.split(".", 1)[0])] += value
        return dict(totals)

    def counts(self) -> dict:
        """Everything in the summary that must repeat exactly between passes."""
        return {"calls": dict(self.calls), "work": dict(self.work),
                "crossover_evals": self.crossover_evals, "mc_blocks": self.mc_blocks,
                "mc_distinct_blocks": self.mc_distinct_blocks}

    def _group(self, table: Counter, layer: str) -> float:
        return sum(table[name] for name in LAYERS[layer])

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the pass, keyed by their BENCHMARK.json names."""
        layers = self.layer_self_s()
        rule_s = layers.get("quadrature.rule", 0.0)
        nodes = self.work["quadrature.integrate_unit"]
        mc_s = layers.get("montecarlo", 0.0)
        trials = self.work["montecarlo.sinr_trials"]
        metrics = {
            "quadrature.rule.calls": self.calls["quadrature.integrate_unit"],
            "quadrature.nodes": nodes,
            "quadrature.rule.self_s": rule_s,
            "quadrature.ns_per_node": 1e9 * rule_s / nodes if nodes else 0.0,
            "quadrature.j.calls": self._group(self.calls, "quadrature.j"),
            "quadrature.j.elements": self._group(self.work, "quadrature.j"),
            "quadrature.j.self_s": layers.get("quadrature.j", 0.0),
            "geometry.density.calls": self._group(self.calls, "geometry.density"),
            "geometry.density.elements": self._group(self.work, "geometry.density"),
            "geometry.density.self_s": layers.get("geometry.density", 0.0),
            "geometry.sample.trials": self._group(self.work, "geometry.sample"),
            "geometry.sample.self_s": layers.get("geometry.sample", 0.0),
            "montecarlo.trials": trials,
            "montecarlo.self_s": mc_s,
            "montecarlo.ns_per_trial": 1e9 * mc_s / trials if trials else 0.0,
            "montecarlo.block_reuse": (self.mc_distinct_blocks / self.mc_blocks
                                       if self.mc_blocks else 0.0),
        }
        for label, name in CELL_FUNCTIONS.items():
            calls = self.calls[name]
            metrics[f"{label}.calls"] = calls
            metrics[f"{label}.ms_per_call"] = 1e3 * self.inclusive[name] / calls if calls else 0.0
        metrics.update({
            "sweep.self_s": layers.get("sweep", 0.0),
            "sweep.write_csv_s": self.inclusive["sweep.write_csv"],
            "sweep.crossover_evals": self.crossover_evals,
            "cli.self_s": layers.get("cli", 0.0),
            "config.derive_constants.calls": self.calls["config.derive_constants"],
        })
        return metrics
