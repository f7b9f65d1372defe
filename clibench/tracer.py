"""Span tracing of the package's layers, installed from the benchmark's side.

Every public function (and every public method and ``__post_init__`` of the
classes) defined in a layer module is replaced by a wrapper that records a
span: name, start, end and the index of the enclosing span.  The wrapper is
written onto every name that binds the original anywhere in the package, so
``torsion``'s by-name imports of ``riemann_zeta``/``all_families`` and the
kernel module returned by ``kernels.load()`` are all traced.  Generator
functions record one span per resumption, so lazy enumeration is charged to
the layer that produces each item.  The CLI's ``json.dumps`` is traced as
``cli.emit``.

Spans are kept per solve and reduced to self times and counts when the solve
ends; a layer's self time is its spans' durations minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import ModuleType

PACKAGE = "rumin_sphere"

# Layer name -> package modules that make it up.
LAYERS = {
    "cli": ("cli",),
    "verify": ("verify",),
    "torsion": ("torsion",),
    "spectrum": ("spectrum",),
    "weights": ("weights",),
    "zeta": ("zeta",),
    "kernels": ("_kernels_py", "_kernels_cy"),
}


def _kernel_terms(args, kwargs, grid_dims):
    # pair_family_sum(n, i, j, N, s) and axis_family_sum(n, i, N, s)
    N = kwargs["N"] if "N" in kwargs else args[1 + grid_dims]
    return N**grid_dims


# Span name -> (counter name, amount from (args, kwargs, result)).
COUNTERS = {
    "weights.gt_pattern_count": ("weights.gt_patterns", lambda a, k, r: r),
    "kernels.pair_family_sum": ("kernels.terms", lambda a, k, r: _kernel_terms(a, k, 2)),
    "kernels.axis_family_sum": ("kernels.terms", lambda a, k, r: _kernel_terms(a, k, 1)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.current = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.current]
        self.current = len(self.spans)
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.current = rec[3]

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    rec = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer module of the (already imported) package."""
        package = PACKAGE
        modules = {name: mod for name, mod in sys.modules.items()
                   if isinstance(mod, ModuleType)
                   and (name == package or name.startswith(package + "."))}
        replaced: dict[int, object] = {}
        for layer, short_names in LAYERS.items():
            for short in short_names:
                mod = modules.get(f"{package}.{short}")
                if mod is None:
                    continue
                for attr, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isclass(obj):
                        self._wrap_class(obj, layer)
                    elif callable(obj) and not attr.startswith("_"):
                        replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        # Rebind every name that refers to a wrapped function, in every
        # module of the package: callers that imported by name see it too.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        cli = modules.get(f"{package}.cli")
        if cli is not None and getattr(cli, "json", None) is json:
            self._set(cli, "json", _JsonShim(self._wrap(json.dumps, "cli.emit")))

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------

    def take(self, scale: float = 1.0) -> "SpanSummary":
        """Reduce and clear the spans recorded so far; times times ``scale``."""
        spans, self.spans, self.current = self.spans, [], -1
        counts, self.counts = self.counts, Counter()
        durations = [end - start for _, start, end, _ in spans]
        covered = [0.0] * len(spans)
        for idx, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                covered[parent] += durations[idx]
        summary = SpanSummary()
        for idx, (name, _, _, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            self_s = (durations[idx] - covered[idx]) * scale
            summary.self_s[name] += self_s
            summary.total_s[name] += durations[idx] * scale
            summary.calls[name] += 1
            summary.layer_self_s[layer] += self_s
            if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
                summary.layer_entries[layer] += 1
        summary.counts.update(counts)
        return summary


class SpanSummary:
    """Self and inclusive times and counts, by span name and by layer."""

    def __init__(self) -> None:
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.layer_self_s: defaultdict = defaultdict(float)
        self.layer_entries: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, other: "SpanSummary") -> None:
        for key, value in other.self_s.items():
            self.self_s[key] += value
        for key, value in other.total_s.items():
            self.total_s[key] += value
        for key, value in other.layer_self_s.items():
            self.layer_self_s[key] += value
        self.calls.update(other.calls)
        self.layer_entries.update(other.layer_entries)
        self.counts.update(other.counts)


class _JsonShim:
    """Stands in for the ``json`` module inside ``cli`` with a traced dumps."""

    def __init__(self, dumps) -> None:
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)
