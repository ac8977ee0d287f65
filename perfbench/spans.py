"""Outside-in tracing of stirlingzero: spans from wrappers, none from inside.

:class:`Tracer` wraps the public functions and the public methods (plus the
arithmetic operators) of the package's modules, replacing each one in every
module namespace that imported it by name, and replaces the process pool
that ``config_sums`` imported by name.  While ``active`` is set, every
wrapped call records one span ``(name, start, end, parent)`` in memory; a
wrapped generator records one span per ``next``.  :meth:`Tracer.layer_metrics`
reduces the spans to the per-layer metrics of ``LAYER_METRICS``.

Forked pool workers inherit the wrappers, but what they record stays in the
worker and is lost: on the ``sweep`` workload the layers below the pool are
covered only for work done in the parent process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "stirlingzero"
MODULES = ("algebra", "stirling", "partitions", "config_sums",
           "series_vanishing", "bridge", "ledger", "cli")
# operator methods are private by name but are where the arithmetic goes;
# __radd__/__rmul__ are class attributes of their own, so each is wrapped
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__neg__", "__pow__"})

# span names that make up one measured group
GROUPS = {
    "algebra.mul": ("algebra.MultiPoly.__mul__", "algebra.MultiPoly.__rmul__"),
    "algebra.add": ("algebra.MultiPoly.__add__", "algebra.MultiPoly.__radd__"),
    "algebra.exp": ("algebra.Series.exp",),
    "algebra.log": ("algebra.Series.log",),
    "algebra.interp": ("algebra.interpolate_in_var",),
    "series_vanishing.coeff": ("series_vanishing.symbolic_expansion_coefficient",),
    "bridge.check": ("bridge.bridge_check",),
    "bridge.coefficient": ("bridge.bridge_coefficient",),
    "partitions.next": ("partitions.iter_unordered_partitions.next",
                        "partitions.iter_ordered_partitions.next"),
    "config_sums.sum": ("config_sums.sum_collapsed", "config_sums.sum_ordered"),
    "stirling.eval": ("stirling.eval_P", "stirling.eval_P_symbolic"),
    "stirling.poly": ("stirling.stirling_poly",),
    "pool.submit": ("pool.submit",),
    "pool.wait": ("pool.result", "pool.shutdown"),
    "ledger.write": ("ledger.write_record",),
}

# (metric, unit, kind, what): kind "calls" counts a group's spans, "s" is a
# group's inclusive time (nested spans of the same group counted once),
# "self_s" a group's self time, "layer_self_s" the self time of every span
# of one module, "yields" the items a group of generators yielded, and
# "counter" a count the wrappers keep beside the spans
LAYER_METRICS = (
    ("algebra.mul.calls", "count", "calls", "algebra.mul"),
    ("algebra.mul.term_pairs", "count", "counter", "algebra.mul.term_pairs"),
    ("algebra.mul.s", "s", "s", "algebra.mul"),
    ("algebra.add.calls", "count", "calls", "algebra.add"),
    ("algebra.add.s", "s", "s", "algebra.add"),
    ("algebra.exp.calls", "count", "calls", "algebra.exp"),
    ("algebra.exp.self_s", "s", "self_s", "algebra.exp"),
    ("algebra.log.calls", "count", "calls", "algebra.log"),
    ("algebra.log.self_s", "s", "self_s", "algebra.log"),
    ("algebra.interp.calls", "count", "calls", "algebra.interp"),
    ("algebra.interp.samples", "count", "counter", "algebra.interp.samples"),
    ("algebra.interp.self_s", "s", "self_s", "algebra.interp"),
    ("series_vanishing.coeff.calls", "count", "calls", "series_vanishing.coeff"),
    ("series_vanishing.coeff.self_s", "s", "self_s", "series_vanishing.coeff"),
    ("series_vanishing.checks", "count", "counter", "series_vanishing.checks"),
    ("bridge.instances", "count", "calls", "bridge.check"),
    ("bridge.coefficient.self_s", "s", "self_s", "bridge.coefficient"),
    ("partitions.yielded", "count", "yields", "partitions.next"),
    ("partitions.s", "s", "s", "partitions.next"),
    ("config_sums.instances", "count", "calls", "config_sums.sum"),
    ("config_sums.visited", "count", "counter", "config_sums.visited"),
    ("config_sums.self_s", "s", "layer_self_s", "config_sums"),
    ("stirling.eval.calls", "count", "calls", "stirling.eval"),
    ("stirling.eval.s", "s", "s", "stirling.eval"),
    ("stirling.poly.s", "s", "s", "stirling.poly"),
    ("config_sums.pool.spawns", "count", "counter", "pool.spawns"),
    ("config_sums.pool.submit_s", "s", "s", "pool.submit"),
    ("config_sums.pool.wait_s", "s", "s", "pool.wait"),
    ("ledger.records", "count", "calls", "ledger.write"),
    ("ledger.write_s", "s", "s", "ledger.write"),
    ("cli.self_s", "s", "layer_self_s", "cli"),
)


def _count_term_pairs(counts, args, result):
    a, b = args
    if isinstance(b, type(a)):  # poly x poly; a scalar factor is one pass
        counts["algebra.mul.term_pairs"] += len(a.terms) * len(b.terms)


# counters kept beside the spans, keyed by the span name that feeds them
COUNTERS = {
    "algebra.MultiPoly.__mul__": _count_term_pairs,
    "algebra.MultiPoly.__rmul__": _count_term_pairs,
    "algebra.interpolate_in_var":
        lambda counts, args, result: counts.update(
            {"algebra.interp.samples": len(args[0])}),
    "series_vanishing.vanishing_report":
        lambda counts, args, result: counts.update(
            {"series_vanishing.checks": len(result)}),
    "config_sums.sum_collapsed":
        lambda counts, args, result: counts.update(
            {"config_sums.visited": result.configurations_visited}),
    "config_sums.sum_ordered":
        lambda counts, args, result: counts.update(
            {"config_sums.visited": result.configurations_visited}),
}


class Tracer:
    """Spans and counters of the wrapped package, recorded while ``active``.

    ``perturb`` maps a span name to ``f(args, result) -> result``; the
    wrapper returns what ``f`` gives, which is how the benchmark shows its
    gate can fail.
    """

    def __init__(self, perturb=None):
        self.perturb = dict(perturb or {})
        self.active = False
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts = Counter()
        self._stack = [-1]
        self._undo = []

    # ------------------------------------------------------------ recording

    def _enter(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with a span per call while active (a span per ``next`` for generators)."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        counter = COUNTERS.get(name)
        perturb = self.perturb.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(i)
            if counter is not None:
                counter(tracer.counts, args, result)
            if perturb is not None:
                result = perturb(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self
        step = name + ".next"

        def steps(gen):
            while True:
                i = tracer._enter(step)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(i)
                tracer.counts[step] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return steps(gen) if tracer.active else gen

        return traced

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                if tracer.active:
                    tracer.counts["pool.spawns"] += 1
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                fut = tracer.wrap("pool.submit", super().submit)(*args, **kwargs)
                fut.result = tracer.wrap("pool.result", fut.result)
                return fut

            def shutdown(self, *args, **kwargs):
                return tracer.wrap("pool.shutdown", super().shutdown)(*args, **kwargs)

        return TracedPool

    # ---------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap the package in place; :meth:`uninstall` undoes it."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        originals = {}  # id -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(short, obj)
                elif callable(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        # replace every binding, including names imported by other modules
        for mod in [importlib.import_module(PACKAGE)] + modules:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, entry[1])
        config_sums = modules[MODULES.index("config_sums")]
        self._set(config_sums, "ProcessPoolExecutor",
                  self._traced_pool(config_sums.ProcessPoolExecutor))

    def _install_class(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                replacement = type(member)(self.wrap(name, member.__func__))
            elif inspect.isfunction(member):
                replacement = self.wrap(name, member)
            else:
                continue  # properties and data
            self._set(cls, attr, replacement)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------ reducing

    def layer_metrics(self) -> dict:
        """Every metric of ``LAYER_METRICS`` from the spans recorded so far."""
        own = self_times(self.starts, self.ends, self.parents)
        by_name = {}
        for i, name in enumerate(self.names):
            by_name.setdefault(name, []).append(i)
        out = {}
        for metric, _unit, kind, what in LAYER_METRICS:
            if kind == "counter":
                out[metric] = self.counts[what]
                continue
            if kind == "layer_self_s":
                out[metric] = float(sum(own[i] for i, name in enumerate(self.names)
                                        if name.split(".", 1)[0] == what))
                continue
            idx = sorted(i for name in GROUPS[what] for i in by_name.get(name, ()))
            if kind == "calls":
                out[metric] = len(idx)
            elif kind == "yields":
                out[metric] = sum(self.counts[name] for name in GROUPS[what])
            elif kind == "self_s":
                out[metric] = float(sum(own[i] for i in idx))
            else:
                out[metric] = inclusive_time(idx, self.starts, self.ends)
        return out

    def dump(self, path, meta: dict) -> None:
        """Write the spans: ``[name index, start, end, parent]``, times from the first start."""
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[index[n], s - t0, e - t0, p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": names, "spans": spans}, fh)


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def inclusive_time(idx, starts, ends) -> float:
    """Time covered by the spans ``idx`` (in start order), nested ones counted once."""
    total = 0.0
    reach = float("-inf")
    for i in idx:
        if starts[i] >= reach:
            total += ends[i] - starts[i]
            reach = ends[i]
    return total
