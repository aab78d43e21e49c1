"""Span tracing of evimatch, installed from outside the package.

``Tracer.install`` replaces every public function of every evimatch module,
plus ``Tensor.backward`` and ``Adam.step``, with a wrapper that records one
span (name, start, end, parent) per call.  A name bound elsewhere by
``from ... import`` is replaced at that import site too, and so is any
module-level dict that holds the function (the CLI's command table), so a
call is traced however it is looked up.  ``uninstall`` puts every original
object back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import time

PACKAGE = "evimatch"
# module names double as the first part of every span name
MODULES = ("cli", "datagen", "io", "events", "representations", "extractor",
           "autodiff", "optim", "distillation", "matching", "geometry",
           "metrics")
# public methods traced under their own span names
METHODS = {("autodiff", "Tensor", "backward"): "autodiff.backward",
           ("optim", "Adam", "step"): "optim.adam_step"}


def self_times(names, starts, ends, parents):
    """Per-name (self seconds, calls) from parallel span arrays.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    parents[i] is the index of span i's parent, or -1 for a root span.
    """
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = {}
    for i, name in enumerate(names):
        s, c = out.get(name, (0.0, 0))
        out[name] = (s + (ends[i] - starts[i]) - child[i], c + 1)
    return out


class Tracer:
    """Records spans while installed; ``hooks`` see each traced result.

    hooks maps a span name to ``fn(result, args, kwargs)``, called after
    the traced function returns, outside the span's own time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.hooks = {}
        self.names = []  # span name, per span
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self._patches = []  # (owner, key, original, is_dict)

    def _wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, clock = self.parents, self._stack, self.clock
        hooks = self.hooks

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, key, value, is_dict=False):
        original = owner[key] if is_dict else getattr(owner, key)
        self._patches.append((owner, key, original, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self):
        """Wrap every traced callable at every place it is looked up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # every module-level binding and dict entry of an original function
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._patch(obj, key, wrappers[id(val)], True)
        for (short, cls_name, meth), span in METHODS.items():
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, self._wrap(span, vars(cls)[meth]))
        return self

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per-name (self seconds, calls) over every span recorded so far."""
        if self._stack:
            raise RuntimeError("summary requested inside an open span")
        return self_times(self.names, self.starts, self.ends, self.parents)

    def write_csv(self, path):
        """Write spans as `name,start_s,end_s,parent` lines, with times
        counted from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent\n")
            for n, s, e, p in zip(self.names, self.starts, self.ends,
                                  self.parents):
                f.write(f"{n},{s - t0:.9f},{e - t0:.9f},{p}\n")
