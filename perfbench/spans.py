"""Module-boundary spans for the traced benchmark run.

``Tracer.install`` wraps every public function of the package's layer
modules, and every public method of the classes they define, in place at
run time; the package source is not touched.  A function imported into
another module under the same name (``from .strategy import
distributed_update``) is replaced there too, so calls across module
boundaries are seen wherever they are made.  Spans are aggregated in
memory by (span, parent span): calls, inclusive seconds and self seconds,
where self time is the span's duration minus the part its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("topology", "policy", "numerics", "model", "strategy", "theory",
          "sim", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str | None], list] = {}
        self.top_s = 0.0          # summed duration of spans with no parent
        self.installed: list[str] = []
        self._stack: list[list] = []

    def _wrap(self, name: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    key = (name, parent[0])
                else:
                    self.top_s += dur
                    key = (name, None)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        return span

    def install(self, package) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
            except ModuleNotFoundError:  # a removed layer: its spans are absent
                continue
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))
                    self.installed.append(name)
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(member):
                            name = f"{layer}.{attr}.{meth}"
                            setattr(obj, meth, self._wrap(name, member))
                            self.installed.append(name)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def export(self) -> dict:
        return {
            "installed": sorted(self.installed),
            "spans": [[name, parent, *rec]
                      for (name, parent), rec in sorted(
                          self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "top_s": self.top_s,
        }
