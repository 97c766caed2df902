"""Spans around calls into pathlift's modules, recorded from the benchmark.

A span has a name, the layer (pathlift module) it belongs to, a start, an
end and the span that was open when it started.  Spans stay in memory and
are summarised when the run ends.  The program itself is not changed:
``instrument`` rebinds public names inside pathlift's modules (the names a
module imported from another one, or its own functions) to wrappers that
open a span around the original call, and restores them on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time

LAYERS = (
    "graph",
    "builders",
    "netfile",
    "cli",
    "paths",
    "metrics",
    "transforms",
    "autodiff",
    "pruning",
    "lipschitz",
    "experiment",
)


class _Span:
    __slots__ = ("name", "layer", "round", "start", "end", "parent", "child_time")

    def __init__(self, name, layer, round_, parent):
        self.name = name
        self.layer = layer
        self.round = round_
        self.parent = parent
        self.child_time = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.round = 0  # set by the caller; spans remember it
        self._stack: list[_Span] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        parent = self._stack[-1] if self._stack else None
        s = _Span(name, layer, self.round, parent)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += s.duration
            self.spans.append(s)

    def durations(self, name: str, self_time: bool = False) -> list:
        return [s.self_time if self_time else s.duration for s in self.spans if s.name == name]

    def per_round(self, names, rounds, what="count") -> list:
        """For each round, the number (or total duration) of spans in ``names``."""
        out = {r: 0.0 for r in rounds}
        for s in self.spans:
            if s.name in names and s.round in out:
                out[s.round] += 1 if what == "count" else s.duration
        return [out[r] for r in rounds]

    def layer_totals(self) -> dict:
        """Per layer: number of spans, busy time and self time (seconds),
        summed over all spans.

        Busy time counts a span only when no enclosing span has the same
        layer, so nested calls within one module are not counted twice.
        Self time is a span's duration minus the time its child spans cover.
        """
        out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for s in self.spans:
            row = out[s.layer]
            row["calls"] += 1
            row["self_s"] += s.self_time
            p = s.parent
            while p is not None and p.layer != s.layer:
                p = p.parent
            if p is None:
                row["busy_s"] += s.duration
        return out


class NullTracer:
    """Stands in for Tracer in untraced runs; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, layer: str):
        return self._null


def _wrap(tracer, fn, name_of, layer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name_of(args, kwargs), layer):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer, targets):
    """Rebind ``module.attr`` to a span-opening wrapper for the with-block.

    ``targets`` holds ``(module, attr, name, layer)``; ``name`` is a span
    name or a function of the call's ``(args, kwargs)`` returning one.
    Yields the list of ``module.attr`` names that do not exist, so a
    caller can report spans that a change in the program made impossible.
    """
    saved = []
    missing = []
    try:
        for module, attr, name, layer in targets:
            if not hasattr(module, attr):
                missing.append(f"{module.__name__}.{attr}")
                continue
            orig = getattr(module, attr)
            name_of = name if callable(name) else (lambda a, k, n=name: n)
            saved.append((module, attr, orig))
            setattr(module, attr, _wrap(tracer, orig, name_of, layer))
        yield missing
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)
