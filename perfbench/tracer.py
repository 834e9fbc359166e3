"""Span tracing of fcslab from outside the library.

``Tracer.install()`` replaces, for the rest of the process, the public
functions of every fcslab layer module (and a few methods) with wrappers that record one span per call:
name, parent span, thread, start and end.  Spans stay in memory; the caller
reads ``Tracer.spans`` after the run and writes them out.  Counters (integrand
evaluations, eigendecompositions, atoms merged) are kept beside the spans.

``from .x import f`` copies a function into the importing namespace at import
time, so every binding of an original across the ``fcslab.*`` namespaces, and
in their module-level dicts, is replaced, not just the defining one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# The traced fcslab modules, one layer each.
LAYERS = ("scenarios", "linalg", "states", "dynamics", "modular", "fcs", "checks", "cli")

# Methods traced as spans named "<layer>.<method>".
METHODS = {
    ("dynamics", "Scenario"): ("unitary_coupled", "with_lam", "evolve"),
    ("states", "AtomicMeasure"): ("from_points", "char"),
}

# Integrators whose integrand evaluations are counted as "<layer>.<name>.evals".
INTEGRATORS = (("fcs", "quad_vec"), ("dynamics", "quad"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id or 0, name, thread ident, start, end)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(), start, end))

        return traced

    def _run_under(self, parent: int, fn, *args, **kwargs):
        # Runs in a pool thread: spans opened by fn get the submitter's span as parent.
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace every binding of ``original`` in fcslab module namespaces
        and in their module-level dicts."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fcslab" or mod_name.startswith("fcslab.")):
                continue
            namespaces = [vars(mod)] + [
                v for k, v in vars(mod).items() if type(v) is dict and not k.startswith("__")
            ]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = replacement

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"fcslab.{layer}") for layer in LAYERS}
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    self._rebind(fn, self.wrap(f"{layer}.{name}", fn))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for name in names:
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    inner = self.wrap(f"{layer}.{name}", raw.__func__)
                    if name == "from_points":
                        inner = self._count_merge(inner)
                    setattr(cls, name, classmethod(inner))
                else:
                    setattr(cls, name, self.wrap(f"{layer}.{name}", raw))
        for layer, name in INTEGRATORS:
            integrator = getattr(mods[layer], name)
            self._rebind(integrator, self._count_evals(f"{layer}.{name}", integrator))
        np.linalg.eigh = self._count_eigh(np.linalg.eigh)
        self._rebind(ThreadPoolExecutor, self._executor_class())

    # -- counters ------------------------------------------------------------

    def _count_evals(self, name: str, integrator):
        @functools.wraps(integrator)
        def counted(f, *args, **kwargs):
            def integrand(*a, **k):
                self.add(f"{name}.evals")
                return f(*a, **k)

            return integrator(integrand, *args, **kwargs)

        return counted

    def _count_eigh(self, eigh):
        @functools.wraps(eigh)
        def counted(a, *args, **kwargs):
            d = np.shape(a)[-1]
            self.add("numpy.eigh.calls")
            # Computed, not measured: ~9 d^3 real flops for a symmetric
            # eigendecomposition with vectors (Golub & Van Loan), 4x for complex.
            self.add("numpy.eigh.flops", (36.0 if np.iscomplexobj(a) else 9.0) * d**3)
            return eigh(a, *args, **kwargs)

        return counted

    def _count_merge(self, from_points):
        signature = inspect.signature(from_points)

        @functools.wraps(from_points)
        def counted(*args, **kwargs):
            mu = from_points(*args, **kwargs)
            weights = signature.bind(*args, **kwargs).arguments["weights"]
            w = np.clip(np.asarray(weights, dtype=float).ravel(), 0.0, None)
            self.add("states.from_points.points_in", w.size)
            self.add("states.from_points.atoms_out", len(mu.weights))
            self.add("states.from_points.dropped_mass", math.fsum(w) - math.fsum(mu.weights))
            return mu

        return counted

    def _executor_class(self):
        tracer = self

        class SpanExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0
                return super().submit(tracer._run_under, parent, fn, *args, **kwargs)

        return SpanExecutor


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total duration and self time.

    Self time is the span's duration minus the durations of its child spans
    in the same thread; children in pool threads run concurrently with their
    parent and are not subtracted.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, tid, start, end in spans:
        if parent in by_id and by_id[parent][3] == tid:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _, name, _, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[sid]
    return dict(out)


def busy_ratio(spans: list[tuple], name: str, workers: int) -> float:
    """Time the child spans of ``name`` spans were busy, in any thread, over
    (workers * duration of the ``name`` spans); 0 when no such span ran."""
    wall = 0.0
    busy = 0.0
    ids = set()
    for sid, _, n, _, start, end in spans:
        if n == name:
            ids.add(sid)
            wall += end - start
    for _, parent, _, _, start, end in spans:
        if parent in ids:
            busy += end - start
    return busy / (workers * wall) if wall > 0 else 0.0
