"""The benchmark's tracer (perfbench/tracing.py) wraps library methods it
finds by name in each class's own namespace; these tests keep them there, so
a refactor that moves one into a base class fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
import inspect
import os

import labelled_spaces.cli  # noqa: F401  the tracer wraps every layer module
from labelled_spaces import DomainError, FiniteFilterFamily, filters

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_live_in_their_own_classes():
    tracing = load_tracing()
    for mod_name, cls_name, meth, _ in tracing.METHODS + tracing.COUNTED:
        cls = getattr(importlib.import_module("labelled_spaces." + mod_name), cls_name)
        assert meth in vars(cls), "%s.%s" % (cls_name, meth)


def test_install_traces_and_uninstall_restores(loops4):
    _, fam = loops4
    tracing = load_tracing()
    class_before, module_before = dict(vars(FiniteFilterFamily)), dict(vars(filters))
    tracer = tracing.Tracer(DomainError)
    try:
        tracer.install()
        FiniteFilterFamily.from_top(fam, ("a",), {"3"}).completion()
    finally:
        tracer.uninstall()
    assert dict(vars(FiniteFilterFamily)) == class_before
    assert dict(vars(filters)) == module_before
    spans = tracer.self_times()
    assert spans["filters.from_top"][0] == 1
    assert spans["filters.completion"][0] == 1


class RecordingSpans(dict):
    """Empty span totals that record every name looked up in them."""

    def __init__(self):
        super().__init__()
        self.asked = set()

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)


class IdleTracer:
    def __init__(self):
        self.spans = RecordingSpans()
        self.counts = {}

    def self_times(self):
        return self.spans


def test_layer_metrics_read_only_spans_the_tracer_makes():
    # a renamed function or method would leave its per-layer metric at zero
    tracing = load_tracing()
    made = {name for _, _, _, name in tracing.METHODS}
    for layer in tracing.LAYERS:
        mod = importlib.import_module("labelled_spaces." + layer)
        made |= {
            "%s.%s" % (layer, attr) for attr, fn in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__
        }
    tracer = IdleTracer()
    tracing.layer_metrics(tracer)
    assert tracer.spans.asked and tracer.spans.asked <= made, tracer.spans.asked - made
