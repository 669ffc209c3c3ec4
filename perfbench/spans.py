"""Outside-in span tracing of a package, installed from the benchmark's files.

``Tracer.install`` wraps every public module-level function, every public
method of a public class and every click command callback defined in the
package's loaded modules. Modules import names from each other at import
time (``from .twisted import twisted_convolve``), so each wrapper is rebound
under every name, in every package module, that refers to the original.
``uninstall`` restores every rebinding.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of the
enclosing span or None, ``run`` the label of the round it belongs to. Spans
stay in memory until the caller writes them out.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict


def _package_modules(package: str) -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    }


def _defined_in(obj, modname: str) -> bool:
    return getattr(obj, "__module__", None) == modname


class Tracer:
    """Records spans around the package's public callables while installed.

    ``hooks`` maps a span name to ``hook(args, kwargs, result) -> (suffix,
    counts)``: a non-empty suffix is appended to the span's name, and counts
    are added to ``self.counts`` under ``f"{name}.{key}"`` for the current run.
    A hook that cannot read what it expects is skipped, so a refactor of the
    traced code never fails the run.
    """

    def __init__(self, package: str, hooks: dict | None = None):
        self.package = package
        self.hooks = hooks or {}
        self.spans: list = []
        self.counts: dict = defaultdict(Counter)
        self.run = None
        self._stack: list = []
        self._rebound: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = _package_modules(self.package)
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and _defined_in(obj, modname):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and _defined_in(obj, modname):
                    self._wrap_methods(f"{short}.{attr}", obj)
                elif inspect.isfunction(getattr(obj, "callback", None)) and _defined_in(obj.callback, modname):
                    # a click command: the callback is the subcommand's body
                    cb = obj.callback
                    self._rebind(obj, "callback", cb, self._wrap(f"{short}.{cb.__name__}", cb))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, obj, wrappers[obj])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(f"{prefix}.{name}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{prefix}.{name}", raw)
            else:
                continue
            self._rebind(cls, name, raw, wrapped)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.run]
            spans.append(span)
            stack.append(len(spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    self._apply_hook(span, hook, args, kwargs, result)

        traced.__wrapped_by_tracer__ = True
        return traced

    def _apply_hook(self, span, hook, args, kwargs, result) -> None:
        try:
            suffix, counts = hook(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return
        if suffix:
            span[0] = f"{span[0]}.{suffix}"
        for key, value in counts.items():
            self.counts[span[4]][f"{span[0]}.{key}"] += value


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def summarize(spans: list, run) -> dict:
    """Per-name ``{"self_s", "total_s", "calls"}`` and the root-span total for one run."""
    out: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    roots = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, span_run = span
        if span_run != run:
            continue
        out[name]["self_s"] += own
        out[name]["total_s"] += end - start
        out[name]["calls"] += 1
        if parent is None:
            roots += end - start
    return {"names": dict(out), "root_s": roots}
