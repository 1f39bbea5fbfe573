"""Running CAOs and analysing the traces.

``run`` advances a CAO until its common carries all vanish (a fixed point:
the update leaves the state untouched from then on) or a step budget runs
out. The default mode drives the matrix engine and the operational engine in
lock step and raises on the first disagreement, so every ordinary simulation
doubles as a consistency check between the two routes.

The loop binds the routes to each parameter set as it comes into force:
the step plan and compiled kernel for the matrix route from their per-spec
caches, and for the operational route an enactor built from the resolved
operators and the state. Both routes step in stretches: each runs for up to
``_RUN_CHUNK`` updates and ends where the schedule says the parameters may
next change (``ParameterSchedule.span``). The matrix route takes them with
``kernel.advance``, the operational route by sending the enactor a step
number and a limit. Either returns the stretch as one
:class:`~caosim.model.Stretch` record: the rows of its first update in
full, then for each later update only the cells whose value differs from
the update before. ``run`` keeps the records as they are, and
:class:`Steps` builds a :class:`TraceStep` from them each time one is read.
A fixed point reached while the schedule may still change the parameters is
held: each update of it is recorded as changing nothing, up to that change.
In "both", the enactor is sent each matrix record instead: it takes one
update per update recorded and compares each as it goes, the first in full
and each later one by the cells it changed, keeping none of its own, and
names the first mismatch, from which ``run`` raises. So the check compares
the very record the trace keeps.

On the compiled backend that enactor is ``_stepcore.Enactor``: the same
literal procedure and frontier rule as ``operational.enactor``, written in
C, built from the same resolved operators and holding its state in int64.
Where an update would leave int64, or a value is not an exact int, it hands
the rest of the stretch back, and ``operational.enactor``, primed at the C
enactor's state, checks it; the next stretch starts in C again. The pure
backend runs no C, and a parameter set with a radix or coefficient outside
int64 no C kernel; both check with ``operational.enactor`` throughout.

``run`` pauses the cyclic garbage collector from before it reads the start
until its trace is built. Nothing a run allocates is part of a reference
cycle, and all of it stays reachable from the trace, so a collection during
the run would free none of it and only walk the records again.

Also here: exact conserved-weight extraction (integer row vectors w with
w·state constant along every stationary trace), by one reverse-topological
sweep over the step plan when its edges are acyclic and by dense elimination
(:mod:`caosim.rational`) when they are not; a base-b chain builder whose
fixed point is the digit expansion of its input; and a random generator of
layered acyclic CAOs for fuzzing.
"""

from __future__ import annotations

import gc
import random
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import islice, repeat, starmap
from math import gcd, lcm
from operator import attrgetter, eq, mul
from typing import Iterator, Mapping, Sequence

from . import kernel, operational, rational
from .engine import ParameterSchedule, _same_topology, derive
from .kernel import StepResult, _stepcore
from .model import (
    CaoSpec,
    Entity,
    Form,
    Operator,
    Role,
    Stretch,
    TraceStep,
    _is_integer,
    check_state,
    validate,
)

ENGINES = ("matrix", "operational", "both")
FIXED_POINT, STEP_LIMIT = "fixed-point", "step-limit"
TERMINATIONS = (FIXED_POINT, STEP_LIMIT)  # how a run ends

# Updates per stretch: how many updates one kernel call records before the
# lock-step check reads them.
_RUN_CHUNK = 1024

_CHANGES = attrgetter("changes")


class Steps(SequenceABC):
    """The entries of a run, read from its stretch records.

    A read-only sequence of :class:`TraceStep`, built on access: ``steps[i]``
    is a new object each time, whose tuples are replayed from the first
    update of its stretch. It supports ``len``, negative indices, slices
    (a tuple of entries), iteration, which replays each stretch once, and
    ``==`` and ``!=`` by value, with another ``Steps`` or a tuple of
    entries. ``rows()`` reads the entries' values without building them,
    and ``stretches`` holds the records themselves.
    """

    __slots__ = ("stretches", "_len")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, stretches: Sequence[Stretch]):
        self.stretches = tuple(stretches)
        self._len = len(self.stretches) + sum(map(len, map(_CHANGES, self.stretches)))

    def __len__(self) -> int:
        return self._len

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple]:
        """``(k, state, partials, common)`` of each entry from index
        ``start`` up to ``stop`` (default: the last), without building the
        entries: what an exporter reads."""
        stop = self._len if stop is None else stop
        at = 0
        for stretch in self.stretches:
            if at >= stop:
                return
            end = at + stretch.updates
            if end > start:
                skip = max(start - at, 0)
                for k, row in enumerate(stretch.rows(skip, stop - at), stretch.k + skip):
                    yield k, *row
            at = end

    def __iter__(self) -> Iterator[TraceStep]:
        return starmap(TraceStep, self.rows())

    def __getitem__(self, i):
        if isinstance(i, slice):
            picked = range(*i.indices(self._len))
            if not picked:
                return ()
            if picked.step > 0:
                return tuple(islice(starmap(TraceStep, self.rows(picked[0], picked[-1] + 1)), 0, None, picked.step))
            return tuple(starmap(TraceStep, list(self.rows(picked[-1], picked[0] + 1))[:: picked.step]))
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("trace step index out of range")
        return TraceStep(*next(self.rows(i, i + 1)))

    def __eq__(self, other):
        if isinstance(other, tuple):  # entries read back, as parse_trace gives them
            return len(other) == self._len and all(map(eq, self, other))
        if not isinstance(other, Steps):
            return NotImplemented
        if self._len != other._len:
            return False
        # equal records are equal entries; records that differ may still
        # replay to the same entries, so then each entry is compared
        return self.stretches == other.stretches or all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"<Steps: {self._len} entries in {len(self.stretches)} stretches>"


@dataclass(frozen=True)
class CstTrace:
    """A cardinal semantic trajectory: the full history of one run."""

    spec: CaoSpec
    engine: str
    termination: str  # one of TERMINATIONS
    steps: Steps
    schedule: ParameterSchedule | None = None

    @property
    def step_count(self) -> int:
        """Number of updates actually applied (entries minus the initial one)."""
        return len(self.steps) - 1

    @property
    def final_state(self) -> tuple[int, ...]:
        return self.steps[-1].state

    @property
    def fixed_point(self) -> bool:
        return self.termination == FIXED_POINT


@dataclass(frozen=True)
class Divergence:
    """First step at which the two engines disagreed."""

    k: int
    state: tuple[int, ...]
    matrix: StepResult
    operational: StepResult


class EngineDivergenceError(AssertionError):
    def __init__(self, where: Divergence):
        self.divergence = where
        super().__init__(
            f"engines disagree at step {where.k}: "
            f"matrix {where.matrix[0]} vs operational {where.operational[0]} "
            f"from state {where.state}"
        )


def _initial_state(
    spec: CaoSpec, initial: Mapping[str, int] | Sequence[int] | None
) -> tuple[int, ...]:
    if initial is None:
        return spec.start_state()
    if isinstance(initial, Mapping):
        values = dict(zip(spec.names, spec.start_state()))
        for name, v in initial.items():
            if name not in values:
                raise KeyError(f"no entity named {name!r} in CAO {spec.name!r}")
            values[name] = v
        return tuple(values[n] for n in spec.names)
    return tuple(initial)


def run(
    spec: CaoSpec,
    initial: Mapping[str, int] | Sequence[int] | None = None,
    *,
    max_steps: int = 1000,
    engine: str = "both",
    schedule: ParameterSchedule | None = None,
    backend: str | None = None,
) -> CstTrace:
    """Simulate until a fixed point or for at most ``max_steps`` updates.

    ``engine`` is "matrix", "operational", or "both" (run both, demand exact
    agreement on states and carries each step; the first mismatch raises
    :class:`EngineDivergenceError`). ``initial`` may be a full vector or a
    name→value mapping overriding the declared start values. ``max_steps``
    must be an ``int`` >= 0, not a ``bool`` (ValueError otherwise). A
    ``schedule`` makes the run non-stationary; fixed points are then only
    declared once the schedule can no longer change the parameters; until
    then a fixed state is recorded once per step.

    Whenever the parameter set changes, the routes in use are bound to it
    and ``check_state`` checks the state: an update of a checked state keeps
    its length and, with radices >= 2 and coefficients >= 1, its signs.

    The cyclic garbage collector is paused from before the start is read
    until the trace is built, and on every way out turned back on only if
    it was on when ``run`` was called: a caller that disabled it finds it
    disabled. The pause's only visible effect is that cyclic garbage other
    threads make meanwhile waits until the run returns.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    backend = kernel.backend_name(backend)
    if not _is_integer(max_steps):
        raise ValueError(f"max_steps must be an integer, got {max_steps!r}")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if schedule is not None and not _same_topology(spec, schedule.base):
        raise ValueError(
            f"the schedule's CAO {schedule.base.name!r} does not have the topology of {spec.name!r}"
        )
    # nothing a run allocates is in a cycle, and all of it stays reachable
    # from the trace, so a collection here would free none of it
    collecting = gc.isenabled()
    try:
        gc.disable()
        sched = schedule if schedule is not None else ParameterSchedule.constant(spec)
        state = _initial_state(spec, initial)
        current = None
        stretches: list[Stretch] = []
        k = 0
        while True:
            spec_k, until = sched.span(k)
            if spec_k is not current:
                current = spec_k
                check_state(spec_k, state)
                if engine != "operational":
                    plan = kernel.plan_for(spec_k)
                    compiled = kernel.bind(plan, backend)
                if engine != "matrix":
                    operators = operational.resolve(spec_k)
                    # C checks where C steps: on the compiled backend, with every
                    # radix and coefficient in int64
                    if engine == "both" and compiled is not None:
                        updates = _stepcore.Enactor(operators, state)
                    else:
                        updates = operational.enactor(operators, state)
                        next(updates)
            limit = min(_RUN_CHUNK, max_steps + 1 - k, _RUN_CHUNK if until is None else until - k)
            # a fixed state stays fixed, changing nothing, until the parameters may change
            hold = until is not None
            if engine == "operational":
                stretch, last, stop = updates.send((k, limit))
                if hold and stop == 0:
                    stretch.changes.extend(repeat((), limit - stretch.updates))
            else:
                stretch, last, stop = kernel.advance(plan, compiled, state, limit, k, hold=hold)
                # the enactor takes one update per update recorded and compares it as it goes
                if engine == "both" and (mismatch := updates.send((stretch, last))) is not None:
                    if type(mismatch) is int:  # the C enactor handed the stretch back there
                        mismatch, updates = _hand_back(operators, updates, stretch, last, mismatch)
                    if mismatch is not None:
                        i, enacted = mismatch
                        (at, partials, common), *after = stretch.rows(i, i + 2)
                        stepped = (after[0][0] if after else last, partials, common)
                        raise EngineDivergenceError(Divergence(k + i, at, stepped, enacted))
            stretches.append(stretch)
            k += stretch.updates
            if until is None and stop == 0 or k > max_steps:
                break
            state = last
        return CstTrace(
            spec=spec,
            engine=engine,
            termination=FIXED_POINT if until is None and stop == 0 else STEP_LIMIT,
            steps=Steps(stretches),
            schedule=schedule,
        )
    finally:
        updates = None  # closing an enactor generator allocates: close it paused
        if collecting:
            gc.enable()


def _hand_back(operators, fast, stretch, last, at):
    """The lock-step check of a stretch from update ``at`` on, where the C
    enactor ``fast`` handed it back: ``(mismatch, enactor)``.

    ``operational.enactor``, primed at ``fast``'s own state, checks the
    record of the updates left. On a mismatch it returns it, indexed in the
    whole stretch, and no enactor. Else a new C enactor starts from ``last``, which the
    generator has just proved equal to its own state, to check the next
    stretch.
    """
    updates = operational.enactor(operators, fast.state)
    next(updates)
    if (mismatch := updates.send((stretch.since(at), last))) is not None:
        i, enacted = mismatch
        return (at + i, enacted), None
    return None, _stepcore.Enactor(operators, last)


@dataclass(frozen=True)
class EngineComparison:
    equal: bool
    steps_compared: int
    divergence: Divergence | None


def compare_engines(
    spec: CaoSpec,
    initial: Mapping[str, int] | Sequence[int] | None = None,
    *,
    max_steps: int = 50,
    schedule: ParameterSchedule | None = None,
    backend: str | None = None,
) -> EngineComparison:
    """Drive both engines from the same states and report the first mismatch.

    This is ``run(engine="both")`` returning what happened instead of raising
    on divergence. Each route steps from its own state, and the two states
    are equal up to the first divergence, whose ``state`` they share.
    ``steps_compared`` counts every compared step, the diverging one included.
    """
    try:
        trace = run(
            spec, initial, max_steps=max_steps, engine="both", schedule=schedule, backend=backend
        )
    except EngineDivergenceError as e:
        return EngineComparison(False, e.divergence.k + 1, e.divergence)
    return EngineComparison(True, len(trace.steps), None)


# --- Conserved weights -------------------------------------------------------


@dataclass(frozen=True)
class ConservationReport:
    weights: tuple[tuple[int, ...], ...]
    constants: tuple[int, ...]
    failures: tuple[tuple[int, int, int], ...]  # (weight row, step k, value)

    @property
    def ok(self) -> bool:
        return not self.failures


class ConservationError(AssertionError):
    def __init__(self, report: ConservationReport):
        self.report = report
        row, k, value = report.failures[0]
        super().__init__(
            f"weight row {row} drifts at step {k}: {value} != {report.constants[row]}"
        )


def conserved_weights(spec: CaoSpec) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of {w : wᵀ(Rᵀ − N) = 0}.

    Along any stationary trace of the CAO, w·state is constant for every w
    in the span: the update adds (Rᵀ − N)·pc to the state and w annihilates
    it regardless of the carry vector. A CAO with no entities has none.

    When the step plan's edges have no cycle, :func:`_sweep_weights` solves
    for the basis by back-substitution and ``rational.canonical_basis``
    puts it in the form ``rational.left_null_space`` gives; otherwise that
    dense elimination runs on Rᵀ − N itself. Both give the same rows.
    """
    if not spec.m:
        return ()
    plan = kernel.plan_for(spec)
    rows = _sweep_weights(plan)
    if rows is None:
        return rational.left_null_space(derive(spec).transition())
    return rational.canonical_basis(rows, plan.m)


def _sweep_weights(plan: kernel.StepPlan) -> list[list[int]] | None:
    """A basis of {w : wᵀ(Rᵀ − N) = 0} with one row per sink (an entity
    of radix 0), or None when the plan's edges have a cycle.

    Column j of wᵀ(Rᵀ − N) = 0 reads n_j·w_j = Σ coeff·w_t over entity j's
    edges (j, t, coeff). With the edges acyclic, the radix entities are
    solved in reverse topological order, each after every entity it
    credits. The row of sink s sets w_s = 1 and every other sink to 0; each
    entry is kept as its own numerator and denominator, and the row is put
    over their lcm once at the end. A radix entity with no edge (a carry
    group member no output is attributed to) gets w_j = 0.
    """
    m, n = plan.m, plan.n
    out = [[] for _ in range(m)]
    into = [[] for _ in range(m)]
    unsolved = [0] * m  # per entity, the entities it credits not yet ordered
    for src, dst, coeff in plan.edges:
        out[src].append((dst, coeff))
        into[dst].append(src)
        unsolved[src] += 1
    order = [j for j in range(m) if not unsolved[j]]
    for j in order:  # the list grows as it is read
        for i in into[j]:
            unsolved[i] -= 1
            if not unsolved[i]:
                order.append(i)
    if len(order) < m:
        return None
    radix_entities = [j for j in order if n[j]]
    rows = []
    for s in order:
        if n[s]:
            continue
        num, den = [0] * m, [1] * m
        num[s] = 1
        for j in radix_entities:
            a, d = 0, 1
            for t, coeff in out[j]:
                if x := num[t]:
                    e = den[t]
                    common = lcm(d, e)
                    a = a * (common // d) + coeff * x * (common // e)
                    d = common
            if a:
                d *= n[j]
                g = gcd(a, d)
                num[j], den[j] = a // g, d // g
        common = lcm(*den)
        rows.append([x * (common // y) for x, y in zip(num, den)])
    return rows


def check_conservation(
    trace: CstTrace, weights: Sequence[Sequence[int]] | None = None
) -> ConservationReport:
    """Evaluate w·state along a trace for each weight row (exact integers).

    The value is taken in full at the start of each stretch of the trace's
    record, and after that moved by each update's changes alone, so a
    check costs what the run changed, not its width times its length.

    Weights default to the full conserved basis of the trace's CAO, which
    holds only where every step used the CAO's own parameters: a trace run
    under any other schedule needs explicit ``weights`` (ValueError without).
    An explicit row must hold one ``int`` (not a ``bool``) per entity, else
    ValueError.
    """
    if weights is None:
        sched = trace.schedule
        if sched is not None and not (sched.is_constant() and sched.default == trace.spec):
            raise ValueError(
                "the trace was run under a parameter schedule; "
                "its CAO's conserved weights need not hold, pass weights explicitly"
            )
        rows = conserved_weights(trace.spec)
    else:
        rows = tuple(tuple(w) for w in weights)
        for w in rows:
            if len(w) != trace.spec.m:
                raise ValueError(f"weight row has {len(w)} entries, CAO has {trace.spec.m} entities")
            if not all(map(_is_integer, w)):
                raise ValueError(f"weight row {w} has an entry that is not an integer")
    stretches = trace.steps.stretches
    m = trace.spec.m
    constants = [sum(map(mul, w, stretches[0].state)) for w in rows]
    failures = []
    # w·x(k+1) = w·x(k) + Σ wᵢ·Δxᵢ over the components the update changed;
    # each stretch starts from its first state in full
    for stretch in stretches:
        state = list(stretch.state)
        values = [sum(map(mul, w, state)) for w in rows]
        for k, change in enumerate([(), *stretch.changes], stretch.k):
            for i, v in zip(change[::2], change[1::2]):
                if i < m:
                    delta = v - state[i]
                    state[i] = v
                    for r, w in enumerate(rows):
                        values[r] += w[i] * delta
            if k and values != constants:
                failures += ((r, k, v) for r, (v, c) in enumerate(zip(values, constants)) if v != c)
    return ConservationReport(rows, tuple(constants), tuple(failures))


def verify_conservation(
    trace: CstTrace, weights: Sequence[Sequence[int]] | None = None
) -> ConservationReport:
    report = check_conservation(trace, weights)
    if not report.ok:
        raise ConservationError(report)
    return report


# --- Constructions and fuzzing ----------------------------------------------


def build_linear_chain(base: int, length: int, *, name: str | None = None) -> CaoSpec:
    """Chain c0 → c1 → … of unit-coefficient links, all with radix ``base``.

    Started from (v, 0, …, 0), the fixed point holds the base-``base`` digits
    of v: c0 the units digit, c1 the next, and the last entity the remaining
    leading part. Reached in at most length−1 steps when ``length`` covers
    every digit of v.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    entities = []
    for i in range(length):
        if i == 0:
            role = Role.INITIAL
        elif i == length - 1:
            role = Role.FINAL
        else:
            role = Role.INTERMEDIATE
        entities.append(Entity(f"c{i}", role))
    # a declared form spares build_spec a dataclasses.replace per link
    operators = tuple(
        Operator(inputs=((f"c{i}", base),), outputs=((f"c{i+1}", 1),), form=Form.L)
        for i in range(length - 1)
    )
    return validate(name or f"chain{base}x{length}", entities, operators)


def random_cao(
    rng: random.Random,
    *,
    min_entities: int = 2,
    max_entities: int = 12,
    radix_range: tuple[int, int] = (2, 16),
    coeff_range: tuple[int, int] = (1, 9),
    max_inputs: int = 3,
    max_outputs: int = 3,
    name: str = "fuzz",
) -> CaoSpec:
    """Random acyclic CAO: entities in layers, operators pointing forward.

    Every entity outside the last layer feeds exactly one operator; outputs
    land in strictly later layers, so the result is guaranteed acyclic and
    exercises all four operator forms (``max_inputs=1`` restricts to L/D).
    """
    m = rng.randint(min_entities, max_entities)
    order = list(range(m))
    rng.shuffle(order)
    n_layers = rng.randint(2, min(m, 4))
    cuts = sorted(rng.sample(range(1, m), n_layers - 1))
    layers = [order[a:b] for a, b in zip([0, *cuts], [*cuts, m])]

    names = [f"e{i}" for i in range(m)]
    outgoing: set[int] = set()
    operators: list[Operator] = []
    for li, layer in enumerate(layers[:-1]):
        later = [i for lay in layers[li + 1 :] for i in lay]
        pool = list(layer)
        rng.shuffle(pool)
        while pool:
            take = rng.randint(1, min(max_inputs, len(pool)))
            members = [pool.pop() for _ in range(take)]
            outgoing.update(members)
            n_out = rng.randint(1, min(max_outputs, len(later)))
            targets = rng.sample(later, n_out)
            operators.append(
                Operator(
                    inputs=tuple(
                        (names[i], rng.randint(*radix_range)) for i in members
                    ),
                    outputs=tuple(
                        (names[t], rng.randint(*coeff_range)) for t in targets
                    ),
                )
            )

    first = set(layers[0])
    entities = []
    for i in range(m):
        if i in first:
            role = Role.INITIAL
        elif i not in outgoing:
            role = Role.FINAL
        else:
            role = Role.INTERMEDIATE
        entities.append(Entity(names[i], role))
    return validate(name, entities, operators)


def random_state(
    rng: random.Random, spec: CaoSpec, limit: int = 10**6
) -> tuple[int, ...]:
    """Uniform random state with every component in [0, limit]."""
    return tuple(rng.randint(0, limit) for _ in range(spec.m))
