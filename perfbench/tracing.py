"""Span tracing installed from outside the package under test.

Tracer.install replaces every public function of the traced aoisched
modules with a timing wrapper, on the defining module and on every
module that imported it by name, so calls across module boundaries and
calls inside one module are both recorded. Nothing under src/ knows
about tracing; uninstall puts the original functions back.

A span is (span id, parent span id, name, start, end, run id, attrs).
Each thread keeps its own stack of open spans. A thread whose stack is
empty is a worker of run_experiment's pool, so its spans take the
innermost span open on the main thread (run_experiment's) as parent.
"""
from __future__ import annotations

import functools
import inspect
import threading
import time
import tracemalloc

TRACED_MODULES = ("cli", "sim", "relaxed", "index", "fluid", "oracle")
# Per-slot helpers stay unwrapped: a span per slot would cost more than
# the slot itself.
UNWRAPPED = {"sim.step"}
# Calls whose peak tracemalloc allocation is recorded.
MEMORY_TRACKED = {
    "sim.simulate",
    "fluid.assemble_linear",
    "fluid.spectral_report",
    "oracle.joint_mdp_optimal",
}


def _sim_attrs(bound):
    args = bound.arguments
    return {"n": args["cfg"].n, "policy": args["policy"].kind,
            "slots": args["horizon"]}


def _deviation_attrs(bound):
    args = bound.arguments
    return {"n": args["cfg"].n, "slots": args["horizon"]}


def _hitting_attrs(bound):
    bound.apply_defaults()
    args = bound.arguments
    return {"n": args["cfg"].n, "cap": args["cap"]}


def _main_attrs(bound):
    argv = bound.arguments.get("argv") or []
    return {"cmd": argv[0] if argv else None}


ATTRS = {
    "sim.simulate": _sim_attrs,
    "sim.fluid_deviation": _deviation_attrs,
    "sim.hitting_time": _hitting_attrs,
    "cli.main": _main_attrs,
}


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "run", "attrs",
                 "peak_bytes", "result")

    def __init__(self, sid, parent, name, start, run, attrs):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.run = run
        self.attrs = attrs
        self.peak_bytes = None
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {"id": self.sid, "parent": self.parent, "name": self.name,
               "start": self.start, "end": self.end, "run": self.run}
        if self.attrs:
            out["attrs"] = self.attrs
        if self.peak_bytes is not None:
            out["peak_bytes"] = self.peak_bytes
        return out


class Tracer:
    """Collects spans in memory; one run id per traced repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = None
        # tracemalloc slows every allocation, so only a repetition whose
        # span timings are not used turns it on.
        self.track_memory = False
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._mem_depth = 0
        self._mem_group: list[Span] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs=None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(sid, parent, name, time.perf_counter(), self.run_id, attrs)
        stack.append(sid)
        if self.track_memory and name in MEMORY_TRACKED:
            self._memory_enter(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.track_memory and span.name in MEMORY_TRACKED:
            self._memory_exit()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def _memory_enter(self, span: Span) -> None:
        # Overlapping tracked calls (the replications of one pool batch)
        # share one tracemalloc window and are charged its peak.
        with self._lock:
            if self._mem_depth == 0:
                tracemalloc.start()
                self._mem_group = []
            self._mem_depth += 1
            self._mem_group.append(span)

    def _memory_exit(self) -> None:
        with self._lock:
            self._mem_depth -= 1
            if self._mem_depth == 0:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                for member in self._mem_group:
                    member.peak_bytes = peak
                self._mem_group = []

    # -- installation -----------------------------------------------------
    def _wrap(self, name: str, func):
        tracer = self
        extract = ATTRS.get(name)
        signature = inspect.signature(func) if extract else None

        def wrapper(*args, **kwargs):
            attrs = extract(signature.bind(*args, **kwargs)) if extract else None
            span = tracer.open(name, attrs)
            try:
                result = func(*args, **kwargs)
                span.result = result if name == "sim.hitting_time" else None
                return result
            finally:
                tracer.close(span)

        return functools.wraps(func)(wrapper)

    def install(self, pkg) -> None:
        """Wrap the public functions of pkg's traced modules everywhere."""
        modules = {short: getattr(pkg, short) for short in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                wrappers[id(value)] = self._wrap(name, value)
        holders = [pkg] + [getattr(pkg, s) for s in ("model", "errors")]
        holders += list(modules.values())
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._installed):
            setattr(holder, attr, value)
        self._installed = []
