"""In-memory span tracer for the benchmark's traced run.

The tracer wraps every public function of the library's layer modules and
rebinds each name that a caller looks up: the module attribute itself and
every other module of the package that imported the name directly (for
example ``repetition.seesaw_max`` as well as ``optimize.seesaw_max``).
Nothing in the library changes; the wrappers live in the benchmark's own
process only and are removed by ``uninstall``.

A span has a name, start, end, parent span and item id. Spans go into
flat arrays while the run is going and are written out when it ends.
Self time is a span's duration minus the time its child spans cover; the
run is single-threaded, so the children of one span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("linalg", "separable", "optimize", "repetition", "bellqma", "encoding", "cli")
# Public methods traced as layer functions: (module, class, method).
METHODS = (("bellqma", "Stage2Acceptor", "accept_probability"),)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.item_id = -1
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "item": np.array(self.item, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def truncate(self, n: int) -> None:
        for a in (self.name_id, self.parent, self.item, self.start, self.end):
            del a[n:]

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        return self_times(a["parent"], a["start"], a["end"])

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time)."""
        name_id = self.arrays()["name_id"]
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        secs = np.bincount(name_id, weights=self.self_times(), minlength=k)
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        open_, close, counters = self.open, self.close, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, hooks: dict) -> None:
        """Wrap the layers' public functions and rebind every reference."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        for mname, mod in list(sys.modules.items()):
            if mname != package and not mname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{package}.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer}.{meth}"
            self.originals[name] = fn
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def bypassed_calls(self, run) -> dict[str, int]:
        """Run ``run()`` under a profiler and count calls that skipped a wrapper.

        Every call of a wrapped function enters the original's code object
        once, through its wrapper; a caller holding a reference the rebinding
        missed enters it without a span. Spans, counters and hooks of this
        pass are discarded.
        """
        codes = {fn.__code__: name for name, fn in self.originals.items()}
        entered: Counter[str] = Counter()

        def profile(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    entered[name] += 1

        mark = len(self.start)
        saved = dict(self.counters)
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        spans = Counter(self.names[i] for i in self.name_id[mark:])
        self.truncate(mark)
        self.counters.clear()
        self.counters.update(saved)
        return {n: c - spans[n] for n, c in entered.items() if c > spans[n]}


# -- counters read from arguments and results ---------------------------------


def layer_hooks(package: str) -> dict:
    """Hooks that turn arguments and results into per-layer counts.

    ``macs`` is computed, not measured: samples times D**2 for the dense
    D x D form each sample is evaluated against.
    """
    opt = importlib.import_module(f"{package}.optimize")
    brute_default = inspect.signature(opt.brute_force_max).parameters["samples"].default

    def seesaw(counters, args, kwargs, res):
        counters["optimize.seesaw_max.iterations"] += res.iterations
        counters["optimize.seesaw_max.converged"] += bool(res.converged)

    def brute(counters, args, kwargs, res):
        c = args[0] if args else kwargs["c"]
        samples = kwargs.get("samples", brute_default)
        counters["optimize.brute_force_max.samples"] += samples
        counters["optimize.brute_force_max.macs"] += samples * c.dim ** 2

    def witness(counters, args, kwargs, res):
        w = args[0] if args else kwargs["w"]
        counters["separable.witness_evidence.samples"] += res.samples
        counters["separable.witness_evidence.macs"] += res.samples * w.dim ** 2

    def repetition(counters, args, kwargs, res):
        counters["repetition.perfect"] += res.verdict == "perfect"

    def verify(counters, args, kwargs, res):
        key = "bellqma.accepted" if res.accepted else f"bellqma.rejected.{res.rejection_stage}"
        counters[key] += 1

    def encode(counters, args, kwargs, res):
        counters["encoding.components"] += res.dimension

    return {
        "optimize.seesaw_max": seesaw,
        "optimize.brute_force_max": brute,
        "separable.witness_evidence": witness,
        "repetition.verify_perfect_repetition": repetition,
        "bellqma.arthur_verify": verify,
        "encoding.encode_state": encode,
    }
