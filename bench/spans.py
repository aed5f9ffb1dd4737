"""Per-layer spans taken from outside the program.

Tracer.install wraps the public functions of each orthoposet module, plus
the two brute-force Poset members (the constructor, which closes the order,
and up_sets). The modules import each other's functions by name
(`from .poset import classify`), so a wrapper is bound under every module
that holds the function, the defining one included; calls inside a module
then pass through the wrapper too. `cli.main` is the root span of a request.

A span is (name, start, end, parent, request). Spans stay in memory until
the run ends. The layer of a span is the module that defines the function;
its self time is its duration minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "poset", "spectrum", "chain", "builder", "verify", "oracle")
POSET_MEMBERS = ("__init__", "up_sets")


class Tracer:

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.requests = [], []
        self.stack = []
        self.request = -1
        self.counts = {}
        self.maxima = {}

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def high_water(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, name, fn, on_result=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced

    def install(self):
        """Wrap every layer's public functions in every module holding them."""
        modules = {layer: importlib.import_module("orthoposet." + layer)
                   for layer in LAYERS}
        modules["orthoposet"] = importlib.import_module("orthoposet")
        for layer in LAYERS[1:]:
            mod = modules[layer]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap("%s.%s" % (layer, attr), fn,
                                   ON_RESULT.get((layer, attr)))
                for holder in modules.values():
                    if getattr(holder, attr, None) is fn:
                        setattr(holder, attr, traced)
        poset_cls = modules["poset"].Poset
        for attr in POSET_MEMBERS:
            setattr(poset_cls, attr, self.wrap(
                "poset.Poset.%s" % attr, getattr(poset_cls, attr)))
        modules["cli"].main = self.wrap("cli.main", modules["cli"].main)

    def layer_totals(self):
        """{layer: {"calls", "self_s"}} and {span name: {"calls", "s"}}."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        by_name = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += 1
            layer["self_s"] += duration - child[i]
            entry = by_name.setdefault(name, {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            entry["s"] += duration
        return layers, by_name

    def write(self, path):
        """Spans as JSON lines, start and end in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i] - t0,
                    "end": self.ends[i] - t0, "parent": self.parents[i],
                    "request": self.requests[i]}) + "\n")


def _chains(tracer, args, chains):
    tracer.count("chain.chains", len(chains))
    for ch in chains:
        tracer.high_water("chain.max_dim", ch.dimension)


def _families(tracer, args, families):
    tracer.count("builder.families", len(families))


def _checked(tracer, args, report):
    tracer.count("verify.passed", int(report.passed))


def _commutant(tracer, args, dim):
    tracer.high_water("verify.commutant.n_max", args[0].dimension)


def _profiles(tracer, args, profiles):
    tracer.count("oracle.profiles", len(profiles))


def _searched(tracer, args, family):
    tracer.count("oracle.found", int(family is not None))


ON_RESULT = {
    ("chain", "enumerate_irreducibles"): _chains,
    ("builder", "build_from_chain"): _families,
    ("verify", "check_all"): _checked,
    ("verify", "commutant_dim"): _commutant,
    ("oracle", "rank_profiles"): _profiles,
    ("oracle", "search_numeric"): _searched,
}
