"""Call-boundary spans for the benchmark's traced runs.

A hook names one public function of a stepavg layer (module). Installing
it wraps that function object and rebinds every module-level name that
refers to the object across the loaded ``stepavg.*`` modules, so the span
follows the function wherever its callers live; call sites are found,
never listed. Spans nest through a stack: each closes into per-name
totals and a (parent, child) edge, and a span's self time is its busy
time minus the busy time of its child spans. Only these totals are kept,
so memory stays flat however many calls a run makes.

References held outside module globals (in a dict, a closure or a
default argument) are not rebound; the function registry's handles are
reached instead by wrapping what ``functions.function_handle`` returns.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

PACKAGE = "stepavg"


class HookMissingError(RuntimeError):
    """A hooked stepavg function no longer exists under its recorded name."""


@dataclass
class SpanTotals:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Per-span totals, parent/child edges and work counters of one run."""

    def __init__(self):
        self.spans: dict = {}
        self.edges: dict = {}
        self.counts: dict = {}
        self.estimates = 0
        self.sites: dict = {}
        self._stack: list = []
        self._handles: dict = {}

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + int(amount)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None,
             adapt: Optional[Callable] = None) -> Callable:
        """Return fn wrapped in a span called name (see Hook for the callbacks)."""
        stack = self._stack
        totals = self.spans.setdefault(name, SpanTotals())
        clock = time.perf_counter_ns

        def close(frame, elapsed):
            stack.pop()
            parent = stack[-1][0] if stack else None
            if stack:
                stack[-1][1] += elapsed
            totals.calls += 1
            totals.busy_ns += elapsed
            totals.self_ns += elapsed - frame[1]
            edge = self.edges.setdefault((parent, name), SpanTotals())
            edge.calls += 1
            edge.busy_ns += elapsed

        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(self, args, kwargs)
            # [span name, child busy ns, estimates counted before entry]
            frame = [name, 0, self.estimates]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(frame, clock() - start)
                if observe is not None:
                    observe(self, frame, args, kwargs, None, exc)
                raise
            close(frame, clock() - start)
            if observe is not None:
                result = observe(self, frame, args, kwargs, result, None)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def handle(self, fn_name: str, fn: Callable) -> Callable:
        """The traced stand-in for one registry function handle."""
        key = (fn_name, id(fn))
        if key not in self._handles:
            self._handles[key] = self.wrap(f"functions.{fn_name}", fn, _count_points)
        return self._handles[key]


@dataclass(frozen=True)
class Hook:
    """One traced function: stepavg.<module>.<name>.

    adapt(tracer, args, kwargs) may rewrite the arguments before the call;
    observe(tracer, frame, args, kwargs, result, error) records counters
    after it and returns the result the caller receives.
    """

    module: str
    name: str
    observe: Optional[Callable] = None
    adapt: Optional[Callable] = None

    @property
    def span(self) -> str:
        return f"{self.module}.{self.name}"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_points(tracer, frame, args, kwargs, result, error):
    tracer.add(f"{frame[0]}.points", np.size(args[0]))
    return result


def _count_estimates(tracer, frame, args, kwargs, result, error):
    n = np.size(_arg(args, kwargs, 2, "h"))
    tracer.add(f"{frame[0]}.estimates", n)
    tracer.estimates += n
    return result


def _count_values(tracer, frame, args, kwargs, result, error):
    tracer.add(f"{frame[0]}.values", np.size(_arg(args, kwargs, 0, "values")))
    return result


def _count_steps(tracer, frame, args, kwargs, result, error):
    if error is None:
        tracer.add(f"{frame[0]}.steps", np.size(getattr(result, "steps", result)))
    return result


def _count_wasted(tracer, frame, args, kwargs, result, error):
    # A cell ends inf when the average raises on a non-finite estimate or
    # its mean is non-finite; every estimate spent on it is wasted.
    if error is not None or not math.isfinite(result.mean):
        tracer.add("bench.wasted_estimates", tracer.estimates - frame[2])
    return result


def _count_inf_cells(tracer, frame, args, kwargs, result, error):
    if error is None:
        tracer.add("bench.inf_cells", np.count_nonzero(~np.isfinite(result.cells)))
    return result


def _count_bytes(tracer, frame, args, kwargs, result, error):
    if error is None:
        tracer.add(f"{frame[0]}.bytes", len(result.encode()))
    return result


def _count_nodes(tracer, args, kwargs):
    # boole16 evaluates its integrand once on the whole node matrix, so
    # the size of that argument is the node count.
    integrand = _arg(args, kwargs, 0, "f")

    def counted(t):
        tracer.add("diffcore.boole16.nodes", np.size(t))
        return integrand(t)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=counted)


def _trace_handle(tracer, frame, args, kwargs, result, error):
    if error is not None:
        return result
    fn = _arg(args, kwargs, 0, "fn")
    fn_name = fn.value if isinstance(fn, Enum) else fn.name
    return tracer.handle(fn_name, result)


HOOKS = (
    Hook("cli", "main"),
    Hook("bench", "run_case", _count_inf_cells),
    Hook("bench", "substream_seed"),
    Hook("bench", "render", _count_bytes),
    Hook("averaging", "averaged_derivative", _count_wasted),
    Hook("averaging", "make_steps", _count_steps),
    Hook("averaging", "compensated_mean", _count_values),
    Hook("diffcore", "afd", _count_estimates),
    Hook("diffcore", "richardson5", _count_estimates),
    Hook("diffcore", "ldi", _count_estimates),
    Hook("diffcore", "boole16", adapt=_count_nodes),
    Hook("functions", "function_handle", _trace_handle),
)


@contextmanager
def installed(tracer: Tracer, hooks=HOOKS):
    """Rebind every stepavg module global that refers to a hooked function.

    Raises HookMissingError, before anything is rebound, when a hook's
    function is gone. The original bindings are restored on exit.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    targets = []
    for hook in hooks:
        module = sys.modules.get(f"{PACKAGE}.{hook.module}")
        target = getattr(module, hook.name, None)
        if not callable(target):
            raise HookMissingError(
                f"hooked function {PACKAGE}.{hook.span} no longer exists")
        targets.append((hook, target))
    restore = []
    try:
        for hook, target in targets:
            wrapper = tracer.wrap(hook.span, target, hook.observe, hook.adapt)
            sites = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, target))
                        sites.append(f"{module.__name__}.{attr}")
            tracer.sites[hook.span] = sites
        yield tracer
    finally:
        for module, attr, target in reversed(restore):
            setattr(module, attr, target)
