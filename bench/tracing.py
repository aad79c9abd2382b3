"""Spans around calls into memnet's public functions, and the per-layer
metrics computed from them.

The tracer replaces public names in the ``memnet.*`` module namespaces with
wrappers that record one span per call: (label, start, end, parent span,
fit id, exception class).  Calls resolve those names through the module
globals at call time, so wrapping ``memnet.harmonic.relu_mixture`` catches
every call ``single_neuron_step`` makes.  Nothing under ``src/`` changes.
Spans stay in memory until the worker process ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# (module namespace holding the name, public name, span label).  A name that
# is imported into another module is wrapped where its caller looks it up.
TARGETS = (
    ("memnet.harmonic", "harmonic_fit", "harmonic.harmonic_fit"),
    ("memnet.harmonic", "single_neuron_step", "harmonic.single_neuron_step"),
    ("memnet.harmonic", "sample_complex_neuron", "harmonic.sample_complex_neuron"),
    ("memnet.harmonic", "decompose_directions", "harmonic.decompose_directions"),
    ("memnet.harmonic", "relu_mixture", "harmonic.relu_mixture"),
    ("memnet.harmonic", "hermite_eval", "hermite.hermite_eval"),
    ("memnet.harmonic", "genericity", "data.genericity"),
    ("memnet.ntk", "genericity", "data.genericity"),
    ("memnet.ntk", "ntk_step", "ntk.ntk_step"),
    ("memnet.ntk", "boost_fit", "network.boost_fit"),
    ("memnet.constructive", "exact_fit_generic", "constructive.exact_fit_generic"),
    ("memnet.constructive", "baum_relu_fit", "constructive.baum_relu_fit"),
    ("memnet.constructive", "baum_threshold_fit", "constructive.baum_threshold_fit"),
    ("memnet.constructive", "evaluate", "network.evaluate"),
)

# Labels a traced pass of each workload kind must record at least once; a
# refactor that stops routing calls through a wrapped name fails the run
# instead of reporting an empty layer.
REQUIRED = {
    "harmonic": ("harmonic.harmonic_fit", "harmonic.single_neuron_step",
                 "harmonic.sample_complex_neuron", "harmonic.decompose_directions",
                 "harmonic.relu_mixture", "hermite.hermite_eval", "data.genericity"),
    "combinatorial": ("data.genericity", "ntk.ntk_step", "network.boost_fit",
                      "constructive.exact_fit_generic", "constructive.baum_relu_fit",
                      "constructive.baum_threshold_fit", "network.evaluate"),
}

# Span fields, in the order a span list holds them.
FIELDS = ("label", "start", "end", "parent", "fit", "error")


class MissingLayerError(RuntimeError):
    """A wrapped public name is gone, or a layer recorded no calls."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.fit: str | None = None
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, name, label in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, name, None)
            if not callable(fn):
                raise MissingLayerError(f"{module_name}.{name} is missing")
            setattr(module, name, self._wrap(label, fn))

    def _wrap(self, label, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.fit, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
        return traced


def layer_metrics(workers: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its workers' spans and fits.

    Times are sums over the pass; self time is a span's duration minus the
    durations of its direct children; ``first_ms`` is the first call in each
    worker process (the cold cache build), median over workers.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    errors: dict[tuple, int] = defaultdict(int)
    first: dict[str, list] = defaultdict(list)
    n_spans = 0
    for worker in workers:
        spans = worker["spans"]
        n_spans += len(spans)
        child = [0.0] * len(spans)
        for label, start, end, parent, _fit, _error in spans:
            if parent >= 0:
                child[parent] += end - start
        seen = set()
        for i, (label, start, end, _parent, _fit, error) in enumerate(spans):
            calls[label] += 1
            total[label] += end - start
            self_time[label] += end - start - child[i]
            if error is not None:
                errors[label, error] += 1
            if label not in seen:
                seen.add(label)
                first[label].append(1000.0 * (end - start))

    def steps(method):
        return sum(f["steps"] for w in workers for f in w["fits"]
                   if f["method"] == method and f["ok"])

    def ratio(num, den):
        return num / den if den else 0.0

    def first_ms(label):
        return statistics.median(first[label]) if first[label] else 0.0

    sampler = "harmonic.sample_complex_neuron"
    return {
        "harmonic.harmonic_fit.self_s": self_time["harmonic.harmonic_fit"],
        "harmonic.single_neuron_step.calls": calls["harmonic.single_neuron_step"],
        "harmonic.single_neuron_step.s": total["harmonic.single_neuron_step"],
        "harmonic.step_accept_ratio": ratio(steps("harmonic"),
                                            calls["harmonic.single_neuron_step"]),
        "harmonic.bias_search.self_s": self_time["harmonic.single_neuron_step"],
        "harmonic.sample_complex_neuron.calls": calls[sampler],
        "harmonic.sample_complex_neuron.s": total[sampler],
        "harmonic.sample_complex_neuron.fail_ratio": ratio(
            errors[sampler, "SamplerFailureError"], calls[sampler]),
        "harmonic.decompose_directions.calls": calls["harmonic.decompose_directions"],
        "harmonic.decompose_directions.s": total["harmonic.decompose_directions"],
        "harmonic.decompose_directions.first_ms": first_ms("harmonic.decompose_directions"),
        "harmonic.relu_mixture.calls": calls["harmonic.relu_mixture"],
        "harmonic.relu_mixture.s": total["harmonic.relu_mixture"],
        "harmonic.relu_mixture.first_ms": first_ms("harmonic.relu_mixture"),
        "hermite.hermite_eval.calls": calls["hermite.hermite_eval"],
        "hermite.hermite_eval.s": total["hermite.hermite_eval"],
        "data.genericity.calls": calls["data.genericity"],
        "data.genericity.s": total["data.genericity"],
        "ntk.ntk_step.calls": calls["ntk.ntk_step"],
        "ntk.ntk_step.s": total["ntk.ntk_step"],
        "ntk.step_accept_ratio": ratio(steps("ntk"), calls["ntk.ntk_step"]),
        "network.boost_fit.self_s": self_time["network.boost_fit"],
        "constructive.exact_fit_generic.s": total["constructive.exact_fit_generic"],
        "constructive.baum_relu_fit.s": total["constructive.baum_relu_fit"],
        "constructive.baum_threshold_fit.s": total["constructive.baum_threshold_fit"],
        "network.evaluate.calls": calls["network.evaluate"],
        "network.evaluate.s": total["network.evaluate"],
        "trace.spans": n_spans,
    }


def missing_layers(kind: str, workers: list[dict]) -> list[str]:
    """Required labels of ``kind`` that no span of the pass carries."""
    seen = {span[0] for worker in workers for span in worker["spans"]}
    return [label for label in REQUIRED[kind] if label not in seen]
