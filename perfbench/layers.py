"""Per-layer tracing from outside the program.

Each traced entry point is a public function of one ``caosim`` module. The
tracer finds every attribute, in every loaded ``caosim`` module, that holds
that function object, and replaces it with a wrapper for the duration of a
traced round; callers that look the name up at call time (module globals,
``from .x import f`` bindings, the package namespace) then reach the
wrapper. A wrapper records the call count and the self time: its duration
minus the part covered by wrapped calls made inside it. For a function behind
a ``functools`` cache it also counts the misses, from the cache's own
statistics; without a cache every call is a miss.

An entry point that a later version no longer defines or no longer reaches
keeps its rows, with zero calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from workloads import caosim_modules

# (metric prefix, module, function). The prefix names the layer.
ENTRY_POINTS = (
    ("kernel.plan_for", "kernel", "plan_for"),
    ("kernel.compiled_step", "kernel", "compiled_step"),
    ("kernel.pure_step", "kernel", "pure_step"),
    ("engine.step", "engine", "step"),
    ("engine.derive", "engine", "derive"),
    ("operational.step_operational", "operational", "step_operational"),
    ("operational.resolve", "operational", "resolve"),
    ("simulate.run", "simulate", "run"),
    ("simulate.check_conservation", "simulate", "check_conservation"),
    ("dsl.try_parse", "dsl", "try_parse"),
    ("dsl.export_trace", "dsl", "export_trace"),
    ("dsl.parse_trace", "dsl", "parse_trace"),
    ("model.check", "model", "check"),
    ("model.validate", "model", "validate"),
    ("rational.left_null_space", "rational", "left_null_space"),
    ("cli.main", "cli", "main"),
)


@dataclass
class Counter:
    calls: int = 0
    self_s: float = 0.0
    misses: int = 0  # calls that did the work: all of them, unless a cache answered
    extra: int = 0  # the entry point's own count: fallbacks, entries or bytes


def _count_fallback(counter: Counter, args, kwargs, result) -> None:
    if result is None:
        counter.extra += 1


def _count_entries(counter: Counter, args, kwargs, result) -> None:
    counter.extra += len(result.steps)


def _count_bytes_out(counter: Counter, args, kwargs, result) -> None:
    counter.extra += len(result.encode())


def _count_bytes_in(counter: Counter, args, kwargs, result) -> None:
    counter.extra += len((args[0] if args else kwargs["text"]).encode())


# metric prefix -> (name of the extra count, how a call adds to it)
EXTRA_COUNTS: dict[str, tuple[str, Callable]] = {
    "kernel.compiled_step": ("fallbacks", _count_fallback),
    "simulate.run": ("entries", _count_entries),
    "dsl.export_trace": ("bytes", _count_bytes_out),
    "dsl.parse_trace": ("bytes", _count_bytes_in),
}


class Tracer:
    """Wraps the entry points while installed and accumulates their counters."""

    def __init__(self):
        self.counters = {prefix: Counter() for prefix, _, _ in ENTRY_POINTS}
        self._patched: list[tuple[object, str, object]] = []
        # time spent in wrapped callees, one slot per open call plus the root
        self._stack = [0.0]

    def _wrapper(self, prefix: str, fn):
        counter = self.counters[prefix]
        on_result = EXTRA_COUNTS.get(prefix, (None, None))[1]
        clock = time.perf_counter
        stack = self._stack
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            stack.append(0.0)
            missed = cache_info().misses if cache_info else None
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - began
                counter.self_s += took - stack.pop()
                counter.calls += 1
                if missed is None or cache_info().misses != missed:
                    counter.misses += 1
                stack[-1] += took
            if on_result is not None:
                on_result(counter, args, kwargs, result)
            return result

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear  # passes still start from empty caches
        return traced

    def install(self) -> None:
        modules = caosim_modules()
        by_name = {m.__name__: m for m in modules}
        for prefix, module_name, attr in ENTRY_POINTS:
            fn = getattr(by_name.get(f"caosim.{module_name}"), attr, None)
            if fn is None:
                continue
            wrapper = self._wrapper(prefix, fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Flat metric dict for what was recorded since construction."""
        out: dict[str, float] = {}
        for prefix, counter in self.counters.items():
            out[f"{prefix}.self_s"] = counter.self_s
            out[f"{prefix}.calls"] = counter.calls
            if prefix in EXTRA_COUNTS:
                out[f"{prefix}.{EXTRA_COUNTS[prefix][0]}"] = counter.extra
        plan = self.counters["kernel.plan_for"]
        out["kernel.plan_for.hits"] = plan.calls - plan.misses
        out["kernel.plan_for.misses"] = plan.misses
        compiled = self.counters["kernel.compiled_step"]
        out["kernel.compiled_ok_ratio"] = (
            (compiled.calls - compiled.extra) / compiled.calls if compiled.calls else 0.0
        )
        return out
