"""The three workloads: seeded inputs, timed units of work, and their oracles.

Every workload runs the same three passes, which differ only in the engine
route and the kernel backend handed to ``run()``:

    both         the defaults: engine="both" on the default backend
    matrix       engine="matrix" on the compiled backend
    matrix-pure  engine="matrix" on the pure backend

A pass is a sequence of units ("solves"). Each unit is timed on its own and
checked right after, outside its timed region, by an oracle that belongs to
the benchmark. The program is always reached through attributes of the
``caosim`` package and its modules, looked up at call time, so that a traced
run can wrap them.

Why these three: ``loop`` loads the per-step path (kernel, plan caches,
``engine.step``, the operational route, trace recording) with parse and
export almost absent; ``chain`` has a wide state of big integers on which the
compiled kernel mostly falls back, so a kernel-only gain should not show
there while binding, recording or fast-forwarding gains should; ``ensemble``
settles in about 1.5 steps per graph, so it loads the front end and the
analysis (parse, validate, flatten, JSON write and read, rational RREF) and
bypasses the stepping loop.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import traceback
from pathlib import Path

import caosim
import caosim.cli
from reference import Meter

PASSES = ("both", "matrix", "matrix-pure")
RUN_ARGS = {
    "both": {},
    "matrix": {"engine": "matrix", "backend": "compiled"},
    "matrix-pure": {"engine": "matrix", "backend": "pure"},
}


@dataclasses.dataclass
class Outcome:
    """What one pass did: a time per unit, raw and reference-scaled, and how many failed."""

    seconds: list[float] = dataclasses.field(default_factory=list)
    scaled: list[float] = dataclasses.field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)


def caosim_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "caosim" or name.startswith("caosim.")]


def clear_caches() -> None:
    """Empty every ``functools`` cache in the package, as in a fresh process."""
    for module in caosim_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_pass(workload, pass_name: str) -> Outcome:
    """Time each unit of one pass, then check it outside its timed region.

    The pass starts from empty caches, so every round sees the same cold
    flattening as the first. Each unit is timed by a reference ``Meter``. A
    unit that raises counts as failed, like one whose oracle fails.
    """
    clear_caches()
    out = Outcome()
    meter = Meter()
    for unit in range(workload.units):
        error = None
        try:
            with meter:
                result = workload.solve(pass_name, unit)
        except Exception as exc:  # a unit that raises is a failed operation
            error = exc
        out.seconds.append(meter.seconds)
        out.scaled.append(meter.scaled)
        if error is None:
            try:
                problem = workload.check(pass_name, unit, result)
            except Exception as exc:
                error = exc
        if error is not None:
            problem = "".join(traceback.format_exception(error))
        if problem:
            out.failed += 1
            print(f"perfbench: {workload.name}/{pass_name} unit {unit}: {problem}", file=sys.stderr)
    return out


class Loop:
    """An 8-entity cyclic CAO using all four forms, run to a step budget.

    Every operator moves as much weight out as in, so the total of the state
    is conserved; the start (a+1, a, 0, ...) never reaches a fixed point and
    stays far inside int64 range.
    """

    name = "loop"
    units = 1
    steps = 20_000
    TEXT = """\
cao loop {{
  initial i = {i}
  initial j = {j}
  intermediate d
  intermediate s
  intermediate g
  intermediate u
  intermediate h
  intermediate k

  M (i:2, j:2) -> (d:2, s:2)
  D (d:2) -> (g:1, u:1)
  D (s:2) -> (g:1, u:1)
  F (g:2, u:2) -> (h:4)
  L (h:2) -> (k:2)
  D (k:4) -> (i:2, j:2)
}}
"""

    def __init__(self, seed: int, tmp: Path):
        a = random.Random(seed).randint(10**8, 10**9)
        self.spec = caosim.parse(self.TEXT.format(i=a + 1, j=a), allow_cycles=True)
        self.weights = [*caosim.conserved_weights(self.spec), (1,) * self.spec.m]
        self.reference = None

    def solve(self, pass_name: str, unit: int):
        return caosim.run(self.spec, max_steps=self.steps, **RUN_ARGS[pass_name])

    def check(self, pass_name: str, unit: int, trace) -> str | None:
        if trace.termination != "step-limit" or trace.step_count != self.steps:
            return f"stopped with {trace.termination} after {trace.step_count} steps"
        if self.reference is None:
            self.reference = trace.steps
        elif trace.steps != self.reference:
            return "trace differs from the first pass's trace"
        first, last = trace.steps[0].state, trace.steps[-1].state
        for w in self.weights:
            if sum(a * b for a, b in zip(w, first)) != sum(a * b for a, b in zip(w, last)):
                return f"weight {w} is not conserved"
        return None


class Chain:
    """A base-2 chain of ``length`` entities expanding a seeded (length-1)-bit value.

    The ``both`` pass goes through the command line (``caosim radix``) in
    process; the matrix passes call ``run()`` on a chain built once.
    """

    name = "chain"
    units = 1
    length = 600

    def __init__(self, seed: int, tmp: Path):
        n = self.length
        self.value = random.Random(seed).getrandbits(n - 1) | 1 << (n - 2)
        self.chain = caosim.build_linear_chain(2, n)
        self.start = [self.value] + [0] * (n - 1)
        self.output = tmp / f"chain-digits-{os.getpid()}.txt"
        digits, rest = [], self.value
        for _ in range(n - 1):
            rest, d = divmod(rest, 2)
            digits.append(d)
        self.digits = (*digits, rest)

    def solve(self, pass_name: str, unit: int):
        if pass_name == "both":
            return caosim.cli.main(
                ["radix", "--value", str(self.value), "--base", "2",
                 "--length", str(self.length), "-o", str(self.output)]
            )
        return caosim.run(self.chain, self.start, max_steps=self.length - 1, **RUN_ARGS[pass_name])

    def check(self, pass_name: str, unit: int, result) -> str | None:
        if pass_name == "both":
            got = tuple(int(d) for d in self.output.read_text().split())
            self.output.unlink()
            return None if result == 0 and got == self.digits else f"exit {result}, digits {got}"
        if not (result.fixed_point and result.final_state == self.digits):
            return f"{result.termination}, digits {result.final_state}"
        return None


def one_sweep(starts: list[tuple[str, int]], operators) -> tuple[int, ...]:
    """Fixed point of an acyclic CAO without stepping.

    Takes each operator once, in topological order; its total firings over
    the whole run are the minimum over its inputs of
    floor((start + inflow) / radix), because an input only loses parts when
    its own operator fires. Uses neither engine of the program.
    """
    value = dict(starts)
    owner = {e: k for k, op in enumerate(operators) for e, _ in op.inputs}
    after: list[list[int]] = [[] for _ in operators]
    waiting = [0] * len(operators)
    for k, op in enumerate(operators):
        for target, _ in op.outputs:
            if target in owner:
                after[k].append(owner[target])
                waiting[owner[target]] += 1
    ready = [k for k, w in enumerate(waiting) if w == 0]
    while ready:
        k = ready.pop()
        op = operators[k]
        fired = min(value[e] // radix for e, radix in op.inputs)
        for e, radix in op.inputs:
            value[e] -= fired * radix
        for target, coeff in op.outputs:
            value[target] += fired * coeff
        for nxt in after[k]:
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                ready.append(nxt)
    return tuple(value[name] for name, _ in starts)


class Ensemble:
    """``units`` seeded random acyclic CAOs of every size, each pushed through the front end.

    A unit is one graph: try_parse -> run -> export_trace(json) ->
    parse_trace -> check_conservation. The graphs, with random start states
    written in as start values, are serialized during set-up.
    """

    name = "ensemble"
    units = 1000

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.texts: list[str] = []
        self.expected: list[tuple[int, ...]] = []
        for n in range(self.units):
            # sizes cycle through random_cao's default 2..12 entities: size sets
            # most of a graph's cost, so seeds then differ only in the rest
            size = 2 + n % 11
            spec = caosim.random_cao(rng, min_entities=size, max_entities=size, name=f"g{n}")
            state = caosim.random_state(rng, spec)
            entities = [dataclasses.replace(e, start=s) for e, s in zip(spec.entities, state)]
            self.texts.append(caosim.serialize(caosim.validate(spec.name, entities, spec.operators)))
            self.expected.append(one_sweep(list(zip(spec.names, state)), spec.operators))

    def solve(self, pass_name: str, unit: int):
        spec, _ = caosim.try_parse(self.texts[unit])
        trace = caosim.run(spec, **RUN_ARGS[pass_name])
        doc = caosim.parse_trace(caosim.export_trace(trace, "json"))
        return trace, doc, caosim.check_conservation(trace)

    def check(self, pass_name: str, unit: int, result) -> str | None:
        trace, doc, report = result
        if not (trace.fixed_point and trace.final_state == self.expected[unit]):
            return "final state differs from the one-sweep fixed point"
        if [s.state for s in doc.steps] != [s.state for s in trace.steps]:
            return "parse_trace did not reproduce the exported states"
        if not report.ok:
            return "conservation check failed"
        return None


WORKLOADS = {w.name: w for w in (Loop, Chain, Ensemble)}
