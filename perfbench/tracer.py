"""Spans around querybound's public functions, installed from outside.

``Tracer.install()`` replaces every public function defined in the modules
on the CLI path (``LAYERS``) in every ``querybound`` module namespace that
holds it, so calls between and within modules are seen too. It also wraps:

- ``numpy.linalg.eigh``/``eigvalsh``: each dense symmetric eigensolve, with
  its n^3 and a digest of its input for the distinct-input share;
- ``numpy.kron``: bytes of each product formed inside ``kron_strategy``;
- ``Workload.gram``: the first materialization of a Gram (n^2 * 8 bytes).

Spans are kept in memory as (id, parent, name, layer, start, end, request); the
per-layer metrics are computed from them at the end. A layer's self time is
its spans' duration minus the part of each span covered by its children.
Spans opened in a worker thread hang under the span the main thread has open.
"""

import hashlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "workloads", "strategies", "bounds", "mechanism", "numkernel")

EIG = {"numpy.linalg.eigh", "numpy.linalg.eigvalsh"}

# metric group -> span names (self time summed over these spans)
GROUPS = {
    "workloads.build": {"all_range", "all_predicate_gram", "data_cube"},
    "workloads.project": {"column_project"},
    "strategies.build": {"identity_strategy", "workload_strategy", "hierarchical_strategy",
                         "haar_strategy", "sqrt_strategy", "kron_strategy",
                         "load_strategy_csv"},
    "bounds.subrange": {"range_subrange_svdb", "range_subrange_eigvals"},
    "bounds.svdb": {"svdb", "svdb_log", "uniform_svdb_log"},
    "bounds.report": {"bound_report"},
    "bounds.projected": {"svdb_projected"},
    "mechanism.analytic": {"analytic_total_error"},
    "mechanism.mc": {"empirical_error"},
    "numkernel.eig": EIG | {"sym_eig"},
    "numkernel.sqrt": {"psd_sqrt"},
    "numkernel.validate": {"as_sym_matrix", "check_psd"},
}
# metric -> span names whose calls it counts
CALLS = {
    "workloads.build.calls": GROUPS["workloads.build"],
    "workloads.gram.calls": {"Workload.gram"},
    "workloads.project.calls": GROUPS["workloads.project"],
    "strategies.build.calls": GROUPS["strategies.build"],
    "bounds.subrange.solves": {"range_subrange_svdb"},
    "bounds.svdb.calls": {"svdb", "svdb_log"},
    "mechanism.analytic.calls": GROUPS["mechanism.analytic"],
    "numkernel.eig.calls": EIG,
    "numkernel.sqrt.calls": GROUPS["numkernel.sqrt"],
}
COUNTERS = ("workloads.gram.bytes", "strategies.kron.dense_bytes",
            "bounds.projected.subsets", "mechanism.mc.trials", "numkernel.eig.n3")

METRICS = {  # name -> unit, in report order
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "workloads.build.calls": "count", "workloads.build.self_s": "s",
    "workloads.gram.calls": "count", "workloads.gram.bytes": "bytes",
    "workloads.project.calls": "count", "workloads.project.self_s": "s",
    "strategies.build.calls": "count", "strategies.build.self_s": "s",
    "strategies.kron.dense_bytes": "bytes",
    "bounds.subrange.solves": "count", "bounds.subrange.self_s": "s",
    "bounds.svdb.calls": "count", "bounds.svdb.self_s": "s",
    "bounds.report.self_s": "s",
    "bounds.projected.subsets": "count", "bounds.projected.self_s": "s",
    "mechanism.analytic.calls": "count", "mechanism.analytic.self_s": "s",
    "mechanism.mc.trials": "count", "mechanism.mc.self_s": "s",
    "numkernel.eig.calls": "count", "numkernel.eig.self_s": "s",
    "numkernel.eig.n3": "count", "numkernel.eig.unique_share": "ratio",
    "numkernel.sqrt.calls": "count", "numkernel.sqrt.self_s": "s",
    "numkernel.validate.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# counters read from the arguments of a traced call
ARG_COUNTERS = {
    "svdb_projected": ("bounds.projected.subsets",
                       lambda a, k: len(_arg(a, k, 1, "family"))),
    "empirical_error": ("mechanism.mc.trials",
                        lambda a, k: int(_arg(a, k, 4, "trials"))),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # (id, parent, name, layer, start, end, request)
        self.counters = defaultdict(float)
        self.digests = set()
        self._lock = threading.Lock()  # counters are bumped from pool threads too
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool thread's first span: charge it to the main thread's open span
        return self._main[-1] if self._main else (None, None)

    def span(self, name, layer, fn, counter=None):
        def traced(*args, **kwargs):
            if counter is not None:
                key, value = counter
                self.count(key, value(args, kwargs))
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent[0], name, layer, start, end, self.request))
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, key, value):
        with self._lock:
            self.counters[key] += value

    def _innermost(self):
        stack = self._stack()
        return stack[-1][1] if stack else None

    # --- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                traced = self.span(name, layer, fn, ARG_COUNTERS.get(name))
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, attr, traced)

        def digest(arr):
            arr = np.ascontiguousarray(arr)
            key = (arr.shape, arr.dtype.str, hashlib.sha1(arr.view(np.uint8)).digest())
            with self._lock:
                self.digests.add(key)
        # its own span, so hashing is not charged to the caller's self time
        digest = self.span("trace.digest", "trace", digest)

        def eig(name, fn):
            timed = self.span(f"numpy.linalg.{name}", "numkernel", fn)

            def counted(a, *args, **kwargs):
                self.count("numkernel.eig.n3", float(np.shape(a)[-1]) ** 3)
                digest(a)
                return timed(a, *args, **kwargs)
            return counted

        for name in ("eigh", "eigvalsh"):
            self._set(np.linalg, name, eig(name, getattr(np.linalg, name)))

        kron = np.kron

        def counted_kron(a, b):
            out = kron(a, b)
            if self._innermost() == "kron_strategy":
                self.count("strategies.kron.dense_bytes", out.nbytes)
            return out
        self._set(np, "kron", counted_kron)

        Workload = sys.modules[f"{self.package}.workloads"].Workload
        gram = Workload.gram
        first = self.span("Workload.gram", "workloads", gram.fget)

        def gram_getter(w):
            if getattr(w, "_gram", None) is not None:
                return gram.fget(w)
            self.count("workloads.gram.bytes", 8.0 * w.n * w.n)
            return first(w)
        self._set(Workload, "gram", property(gram_getter))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- aggregation ------------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, _, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out

    def metrics(self) -> dict:
        own = self.self_times()
        by_layer, by_name, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for sid, _, name, layer, *_ in self.spans:
            by_layer[layer] += own[sid]
            by_name[name] += own[sid]
            calls[name] += 1
        out = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
        for group, names in GROUPS.items():
            out[f"{group}.self_s"] = sum(by_name[n] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls[n] for n in names)
        for key in COUNTERS:
            out[key] = self.counters[key]
        eig_calls = out["numkernel.eig.calls"]
        out["numkernel.eig.unique_share"] = len(self.digests) / eig_calls if eig_calls else 0.0
        out["trace.spans"] = len(self.spans)
        return {k: out[k] for k in METRICS if k in out}
