"""Spans recorded from outside the program, at its module boundaries.

install() replaces each public otto_tls function that otto_tls.cli,
otto_tls.sweep, otto_tls.propagator and otto_tls.thermo look up in their
module namespace with a wrapper that records a span: name, start, end,
parent.  Nothing under src/ changes.  A span's layer is the module that
defines the function, so a call from thermo into complex2.eig_hermitian2 is
a complex2 span whose parent is the thermo span that made it.

Sweeps run their points on worker threads.  A span opened on a thread with
no open span of its own takes as parent the innermost span open on the
thread that created the tracer, which is the sweep call waiting for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Optional

LOOKUP_MODULES = ("cli", "sweep", "propagator", "thermo")
LAYERS = ("complex2", "tls", "propagator", "thermo", "sweep", "cli")
EVOLVE = ("evolve_expansion", "integrate_compression")
SWEEPS = ("run_tau_sweep", "run_phase_map")


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._local.stack = self._owner_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_exit=None):
        """fn wrapped in a span; on_exit(span, bound_args, result, exc) may add attrs."""
        sig = inspect.signature(fn) if on_exit else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._owner_stack[-1] if self._owner_stack else None)
            with self._lock:
                span = Span(len(self.spans), name, parent, 0.0)
                self.spans.append(span)
            stack.append(span.id)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if on_exit:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    on_exit(span, bound.arguments, result, exc)

        return traced


def _record_steps(span: Span, args: dict, result, exc) -> None:
    """Step counts of one converged (or exhausted) stroke integration.

    steps_computed is the current doubling schedule n0 + 2 n0 + ... + n_final
    = 2 n_final - n0, computed rather than counted inside the integrator.
    """
    res = getattr(exc, "best", None) if result is None else result
    if res is None:
        return
    n0 = args["cfg"].resolve_steps(args["tau"], args["freqs"])
    span.attrs.update(steps_final=res.steps_used,
                      steps_computed=2 * res.steps_used - n0,
                      xi_error=res.xi_error_estimate,
                      converged=exc is None)


def _record_points(span: Span, args: dict, result, exc) -> None:
    if result is not None:
        span.attrs["points"] = len(result)


HOOKS = {**{n: _record_steps for n in EVOLVE}, **{n: _record_points for n in SWEEPS}}


def install(tracer: Tracer, otto_pkg) -> callable:
    """Wrap the lookups; returns a function that restores the originals."""
    undo = []
    for mod_name in LOOKUP_MODULES:
        mod = importlib.import_module(f"{otto_pkg.__name__}.{mod_name}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            layer = obj.__module__.rsplit(".", 1)[-1]
            if not obj.__module__.startswith(otto_pkg.__name__ + ".") \
                    or layer not in LAYERS:
                continue
            setattr(mod, attr, tracer.wrap(f"{layer}.{obj.__name__}", obj,
                                           HOOKS.get(obj.__name__)))
            undo.append((mod, attr, obj))

    def restore():
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)
    return restore


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end))
                   for a, b in children.get(s.id, []) if b > s.start and a < s.end]
        out[s.id] = (s.end - s.start) - union_length(clipped)
    return out
