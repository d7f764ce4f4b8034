"""Span tracing of the library's layers, installed from the benchmark.

``Tracer.install`` wraps the public functions of every layer module, and the
public methods that do a layer's work, without changing the library: each
name is replaced wherever a module binds it, so calls through
``from .graph import relative_range`` are seen too.  A span records its
name, start, end, parent span and op id in flat arrays kept in memory and
written out by ``write``.  A few very hot methods are only counted.
"""

import array
import gzip
import inspect
import sys
import time

LAYERS = ("graph", "family", "semigroup", "filters", "transition", "boundary", "spectra",
          "lgrfile", "cli")

# public methods that carry a layer's work: (module, class, method, span name)
METHODS = (
    ("family", "AccommodatingFamily", "__init__", "family.build"),
    ("family", "AccommodatingFamily", "algebra", "family.algebra"),
    ("family", "AccommodatingFamily", "algebra_over", "family.algebra_over"),
    ("family", "RestrictedAlgebra", "build", "family.algebra_build"),
    ("filters", "FiniteFilterFamily", "from_top", "filters.from_top"),
    ("filters", "FiniteFilterFamily", "completion", "filters.completion"),
    ("filters", "FiniteFilterFamily", "contains_idempotent", "filters.contains_idempotent"),
    ("filters", "FiniteFilterFamily", "is_complete", "filters.is_complete"),
    ("filters", "LassoFilterFamily", "__init__", "filters.lasso"),
    ("filters", "LassoFilterFamily", "completion", "filters.completion"),
    ("filters", "LassoFilterFamily", "contains_idempotent", "filters.contains_idempotent"),
    ("filters", "LassoFilterFamily", "is_complete", "filters.is_complete"),
    ("transition", "UltrafilterTransitionGraph", "__init__", "transition.build"),
    ("transition", "UltrafilterTransitionGraph", "lassos", "transition.lassos"),
    ("transition", "UltrafilterTransitionGraph", "has_branching_cycles",
     "transition.has_branching_cycles"),
)
# hot methods that are counted, not spanned: (module, class, method, counter)
COUNTED = (
    ("graph", "LabelledGraph", "step", "graph.step.calls"),
    ("graph", "LabelledGraph", "__hash__", "graph.hash.calls"),
    ("transition", "UltrafilterTransitionGraph", "successors", "transition.walk_steps"),
    ("transition", "UltrafilterTransitionGraph", "predecessors", "transition.walk_steps"),
)


class Tracer:
    def __init__(self, domain_error):
        self.domain_error = domain_error
        self.names = []
        self.name_ids = {}
        self.span_name = array.array("H")
        self.span_op = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [-1]
        self.active = {}
        self.counts = {}
        self.op = -1
        self.restore = []

    # -- wrapping ----------------------------------------------------------
    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, fn, name):
        sid = self._name_id(name)
        layer = name.split(".", 1)[0]
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(tracer.span_start)
            tracer.span_name.append(sid)
            tracer.span_op.append(tracer.op)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.active[name] = tracer.active.get(name, 0) + 1
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                tracer._returned(name, args, result)
                return result
            except tracer.domain_error:
                parent = tracer.stack[-2]
                if layer == "filters" and (
                        parent < 0 or not tracer.names[tracer.span_name[parent]].startswith(
                            "filters.")):
                    tracer._count("filters.refusals")
                raise
            finally:
                tracer.span_end[idx] = clock()
                tracer.stack.pop()
                tracer.active[name] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, key):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _returned(self, name, args, result):
        """Counts read off a layer's results at its boundary."""
        if name == "transition.build":
            self._count("transition.nodes", len(args[0].nodes))
            self._count("transition.edges", len(args[0].edges))
        elif name == "transition.lassos":
            self._count("transition.lassos.returned", len(result))
        elif name == "filters.lasso" and self.active.get("transition.lassos"):
            self._count("transition.lassos.built")
        elif name == "boundary.boundary_paths":
            self._count("boundary.infinite_returned", len(result.infinite))
        elif name == "boundary.isolated_points":
            self._count("boundary.infinite_returned",
                        sum(1 for p in result if hasattr(p, "cycle")))
        elif name == "family.algebra_build":
            self._count("family.algebra.builds")

    def _replace(self, owner, attr, new):
        self.restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package="labelled_spaces"):
        """Wrap every layer."""
        mods = {name: sys.modules["%s.%s" % (package, name)] for name in LAYERS}
        every = [m for n, m in sys.modules.items()
                 if (n == package or n.startswith(package + ".")) and m is not None]
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._replace(cls, meth, classmethod(self.span(raw.__func__, name)))
            else:
                self._replace(cls, meth, self.span(raw, name))
        for mod_name, cls_name, meth, key in COUNTED:
            cls = getattr(mods[mod_name], cls_name)
            self._replace(cls, meth, self.counter(cls.__dict__[meth], key))
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self.span(fn, "%s.%s" % (layer, attr))
                for other in every:
                    if other.__dict__.get(attr) is fn:
                        self._replace(other, attr, wrapped)

    def uninstall(self):
        for owner, attr, old in reversed(self.restore):
            setattr(owner, attr, old)
        self.restore = []

    # -- results -----------------------------------------------------------
    def start_op(self, op_id):
        self.op = op_id
        self.stack = [-1]
        self.active = {k: 0 for k in self.active}

    def self_times(self):
        """Per span name: (calls, total self seconds), where a span's self
        time is its duration minus the time covered by its child spans."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        names = self.span_name
        for i in range(n):
            key = self.names[names[i]]
            calls, total = out.get(key, (0, 0.0))
            out[key] = (calls + 1, total + (end[i] - start[i]) - child[i])
        return out

    def write(self, path):
        """All spans as CSV: op, span, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start,end\n")
            for i in range(len(self.span_start)):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % (
                    self.span_op[i], i, self.span_parent[i], self.names[self.span_name[i]],
                    self.span_start[i], self.span_end[i]))


def layer_metrics(tracer):
    """The named per-layer metrics from a finished traced pass."""
    spans = tracer.self_times()
    counts = tracer.counts

    def calls(*names):
        return sum(spans.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "graph.relative_range.calls": calls("graph.relative_range"),
        "graph.relative_range.self_s": self_s("graph.relative_range"),
        "graph.step.calls": counts.get("graph.step.calls", 0),
        "graph.hash.calls": counts.get("graph.hash.calls", 0),
        "family.build.calls": calls("family.build"),
        "family.build.self_s": self_s("family.build"),
        "family.validate.calls": calls("family.validate"),
        "family.validate.self_s": self_s("family.validate"),
        "family.closure.self_s": self_s("family.closure"),
        "family.algebra.calls": calls("family.algebra_over"),
        "family.algebra.self_s": self_s("family.algebra", "family.algebra_over",
                                        "family.algebra_build"),
        "family.algebra.miss_ratio": ratio(counts.get("family.algebra.builds", 0),
                                           calls("family.algebra_over")),
        "semigroup.multiply.calls": calls("semigroup.multiply"),
        "semigroup.multiply.self_s": self_s("semigroup.multiply"),
        "semigroup.leq.calls": calls("semigroup.leq"),
        "semigroup.leq.self_s": self_s("semigroup.leq"),
        "semigroup.make_element.calls": calls("semigroup.make_element"),
        "semigroup.make_element.self_s": self_s("semigroup.make_element"),
        "filters.preimage_filter.calls": calls("filters.preimage_filter"),
        "filters.preimage_filter.self_s": self_s("filters.preimage_filter"),
        "filters.from_top.self_s": self_s("filters.from_top"),
        "filters.lasso.calls": calls("filters.lasso"),
        "filters.lasso.self_s": self_s("filters.lasso"),
        "filters.completion.self_s": self_s("filters.completion"),
        "filters.membership.self_s": self_s("filters.es_filter_membership",
                                            "filters.contains_idempotent"),
        "filters.refusals": counts.get("filters.refusals", 0),
        "transition.build.self_s": self_s("transition.build"),
        "transition.nodes": counts.get("transition.nodes", 0),
        "transition.edges": counts.get("transition.edges", 0),
        "transition.lassos.self_s": self_s("transition.lassos"),
        "transition.lassos.kept_ratio": ratio(counts.get("transition.lassos.returned", 0),
                                              counts.get("transition.lassos.built", 0)),
        "transition.walk_steps": counts.get("transition.walk_steps", 0),
        "boundary.boundary_paths.self_s": self_s("boundary.boundary_paths"),
        "boundary.isolated_points.self_s": self_s("boundary.isolated_points"),
        "boundary.lassos.kept_ratio": ratio(counts.get("boundary.infinite_returned", 0),
                                            calls("boundary.make_infinite_path")),
        "spectra.tight_spectrum.self_s": self_s("spectra.tight_spectrum"),
        "spectra.compare.self_s": self_s("spectra.compare_spectrum_with_boundary"),
        "spectra.refute.self_s": self_s("spectra.refute_tightness"),
        "lgrfile.parse.calls": calls("lgrfile.parse_graph_file"),
        "lgrfile.parse.self_s": self_s("lgrfile.parse_graph_file"),
        "cli.run_command.self_s": self_s("cli.run_command"),
    }
    return m
