"""Low-level step kernels.

A :class:`StepPlan` is the flattened, index-only form of one CAO update:
per-entity radices, carry groups (the input sets of multi-input operators),
and weighted edges. It is the one place a spec is flattened for the matrix
route: the pure kernel, the compiled kernel and :func:`caosim.engine.derive`
all read it.

The compiled kernel is ``_stepcore.c``, a hand-written CPython extension
that ``setup.py`` builds when a C compiler is present. It steps in 64-bit
integers while they hold the update, and never wraps: from an update int64
cannot hold, it steps in exact Python ints until every component fits in
int64 again. The compiled kernel is the default backend when the extension
imports and the ``CAOSIM_PURE`` environment variable is unset.

Every update goes through :func:`advance`: given a plan, the kernel
:func:`bind` chose for it, a state, a limit and the first step number, it
returns a stretch of updates as ``(entries, last, stop)``, one
:class:`~caosim.model.TraceStep` per update. The kernels write each update
straight into its trace entry; nothing copies it afterwards. On the
compiled backend the stretch is one ``PlanKernel.run`` call, and
``advance`` logs each of its big-integer stretches as a DEBUG record on the
``caosim`` logger. The pure backend
takes the stretch in Python by :func:`_frontier`. Both take big integers
the frontier way: a stretch's first update computes every carry, and each
update after it changes only the entries whose common carry is nonzero and
the entries they credit, so only those entries' partial carries and the
carry groups they belong to are computed again (in a sandpile, only sites
that just received grains can topple; Dhar, PRL 64, 1990). :func:`step` is
``advance`` with a limit of one, and :func:`caosim.simulate.run` drives
whole runs with it.

Entries share what repeats, on both backends: a partial carry equal to the
previous update's is the previous entry's object, each common carry is the
object its entry's partials tuple holds for that value (its own, or for a
carry the fold lowered, the one of the group member whose partial the fold
took), and a common tuple equal to the partials is that tuple. A next-state
component the update does not touch keeps its object; C's int64 loop, which
computes every component, keeps it wherever its value is unchanged, and
shares only exact ints, so an ``int`` subclass instance in its start stays in
the start's entry. Every other value is a new int.

On the compiled backend every tuple an entry holds is born untracked by the
cyclic garbage collector when it holds only exact ``int`` objects: C builds
its tuples that way, in int64 and in big integers alike. Such a tuple cannot
be part of a reference cycle, and CPython would untrack it anyway at the
first collection that walks it; on a wide state that walk cost more than
the update. An entry whose three tuples are such tuples is born untracked
too (see :class:`~caosim.model.TraceStep`). The pure backend runs no C, so
its tuples stay tracked until a collection untracks them, and its entries,
objects with slots, stay tracked. :func:`caosim.simulate.run` pauses the
collector while it records, so for a run that collection comes after it
returns.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .model import CaoSpec, TraceStep, entity_index, held, per_spec

try:
    from . import _stepcore  # type: ignore[attr-defined]

    COMPILED_AVAILABLE = True
except ImportError:  # pragma: no cover - depends on build environment
    _stepcore = None
    COMPILED_AVAILABLE = False

BACKENDS = ("pure", "compiled")
DEFAULT_BACKEND = (
    "compiled" if COMPILED_AVAILABLE and not os.environ.get("CAOSIM_PURE") else "pure"
)

# (next state, partial carries, common carries)
StepResult = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class StepPlan:
    """Index-level description of one synchronous update.

    ``n``       per-entity radix (0 = entity feeds no operator)
    ``groups``  tuple of index tuples; each is the input set of one operator
                with >= 2 inputs (carry groups for the min fold). An entity
                feeds at most one operator, so no entity is in two groups
    ``edges``   (src, dst, coeff) triples; carry of ``src`` adds
                ``carry * coeff`` to ``dst``
    """

    n: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def m(self) -> int:
        return len(self.n)

    @cached_property
    def _compiled(self):
        """The plan's C-array twin, built once per plan; None when a radix or
        coefficient does not fit in 64 bits."""
        try:
            return _stepcore.PlanKernel(self.n, self.groups, self.edges)
        except OverflowError:
            return None

    @cached_property
    def _fanout(self):
        """The plan's adjacency for frontier stepping, built once per plan:
        ``(out, group_of)``. ``out[i]`` holds entity i's edges as
        ``(dst, coeff)`` pairs, and ``group_of[i]`` the index of the one
        group i belongs to, or None."""
        out = [[] for _ in self.n]
        group_of = [None] * self.m
        for src, dst, coeff in self.edges:
            out[src].append((dst, coeff))
        for g, members in enumerate(self.groups):
            for i in members:
                group_of[i] = g
        return tuple(map(tuple, out)), tuple(group_of)


@per_spec
def plan_for(spec: CaoSpec) -> StepPlan:
    """Flatten a validated spec into index arrays (cached while the spec lives).

    Each output's transformant is attributed to exactly one source input
    (outputs cycle through the inputs in declaration order). The common
    carry is equal across a group, so which member carries the edge does
    not change the update — but there must be exactly one edge per output,
    or multi-input operators would credit their outputs once per input.
    """
    idx = entity_index(spec)
    n = [0] * spec.m
    groups = []
    edges = []
    for op in spec.operators:
        members = tuple(idx[e] for e, _ in op.inputs)
        w = len(members)
        for e, radix in op.inputs:
            n[idx[e]] = radix
        if w > 1:
            groups.append(members)
        for o, (t, coeff) in enumerate(op.outputs):
            edges.append((members[o % w], idx[t], coeff))
    return StepPlan(n=tuple(n), groups=tuple(groups), edges=tuple(edges))


def backend_name(backend: str | None) -> str:
    """The backend that ``backend`` selects: "pure", "compiled", or for None
    the module default. Raises ValueError for any other name."""
    chosen = backend or DEFAULT_BACKEND
    if chosen not in BACKENDS:
        raise ValueError(f"unknown backend {chosen!r}")
    return chosen


def bind(plan: StepPlan, backend: str | None = None):
    """The compiled ``PlanKernel`` to step ``plan`` with, or None to use the
    pure kernel: for the pure backend, without the extension, and for a plan
    whose radices or coefficients leave int64. Raises ValueError for an
    unknown backend."""
    if backend_name(backend) == "pure" or _stepcore is None:
        return None
    return plan._compiled


def advance(
    plan: StepPlan, compiled, state: Sequence[int], limit: int, k: int = 0, *, hold: bool = False
):
    """Up to ``limit`` updates of ``state`` under ``plan``: ``(entries, last, stop)``.

    ``compiled`` is what :func:`bind` returned for the plan. ``entries``
    holds one ``TraceStep(k + i, state, partials, common)`` per update
    taken; each entry's state is the previous update's next-state tuple,
    the same object. ``last`` is the state after the last entry, and
    ``stop`` is 0 when the last entry's common carries are all zero (a fixed
    point) and 1 when ``limit`` entries were taken. With ``hold``, a fixed
    point's entry repeats up to the limit, its tuples shared and ``k``
    counting on, as a run under a schedule records a fixed state until the
    parameters may change; ``stop`` is still 0.

    On the compiled backend the whole stretch is one ``PlanKernel.run``
    call: in int64 while it holds the update, and in exact Python ints,
    stepped the frontier way, from an update it cannot hold until every
    component fits in int64 again. Each such big-integer stretch is logged
    as a DEBUG record on the ``caosim`` logger. The pure backend takes the
    whole stretch by :func:`_frontier`. A state whose length is not the
    plan's raises ValueError on either backend.
    """
    if len(state) != plan.m:
        raise ValueError(f"state has {len(state)} components, plan has {plan.m}")
    if limit <= 0:
        return [], state, 1
    if compiled is None:
        entries, last, stop = _frontier(plan, state, limit, k)
        if hold and stop == 0:
            entries += held(entries[-1], k + limit)
        return entries, last, stop
    stretches: list = []
    entries, last, stop = compiled.run(TraceStep, k, state, limit, stretches, hold)
    if stretches and (log := _debug_log()) is not None:
        for wide, taken, end in stretches:
            log.debug(
                "left int64 with %d of %d components outside it; %d updates in big integers, then %s",
                wide,
                plan.m,
                taken,
                ("a fixed point", "the stretch's limit", "back into int64")[end],
            )
    return entries, last, stop


def _debug_log():
    """The ``caosim`` logger when it handles DEBUG records, else None.

    ``logging`` is not imported here: it would add about a tenth to the
    package's import time (2.5 ms after a 22 ms ``import caosim`` on a
    2-core x86-64 host, Python 3.11), and a process that has not imported
    it has configured no logger to handle the record."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("caosim")
    return log if log.isEnabledFor(logging.DEBUG) else None


def _frontier(plan: StepPlan, state, limit: int, k: int):
    """The pure backend's stretch: up to ``limit`` (at least one) updates of
    ``state`` in Python, numbered from ``k``, returned as :func:`advance`
    returns them without ``hold``.

    The state and the carries are kept as lists, starting from zero carries
    with every entry to compute. An update changes only the firing entries
    (common carry nonzero) and the entries they credit, so only those get
    their partial carry computed again, and only the groups whose members'
    partials changed are folded again, each straight into its members.
    ``PlanKernel.run`` steps its big-integer stretches by the same rule.
    """
    n, groups = plan.n, plan.groups
    out, group_of = plan._fanout
    entries = []
    head, s = tuple(state), list(state)
    p, pc = [0] * len(s), [0] * len(s)
    fire = set()
    touched = range(len(s))
    while True:
        # carries of the entries the last update changed, then of their groups
        dirty = set()
        for j in touched:
            r = n[j]
            if r and (q := s[j] // r) != p[j]:
                p[j] = q
                if (g := group_of[j]) is not None:
                    dirty.add(g)
                else:
                    pc[j] = q
                    if q:
                        fire.add(j)
                    else:
                        fire.discard(j)
        for g in dirty:
            members = groups[g]
            low = min([p[x] for x in members])
            for x in members:
                pc[x] = low
                if low:
                    fire.add(x)
                else:
                    fire.discard(x)
        pt = tuple(p)
        entries.append(TraceStep(k, head, pt, pt if not groups or p == pc else tuple(pc)))
        if not fire:
            return entries, head, 0
        touched = set()
        for i in fire:
            c = pc[i]
            s[i] -= c * n[i]
            touched.add(i)
            for d, coeff in out[i]:
                s[d] += c * coeff
                touched.add(d)
        head = tuple(s)
        k += 1
        if len(entries) == limit:
            return entries, head, 1


def step(
    state: Sequence[int], plan: StepPlan, *, backend: str | None = None
) -> StepResult:
    """Dispatch one update to the selected backend.

    ``backend`` may be "pure", "compiled", or None (module default). The
    compiled backend takes any update it cannot represent in 64 bits in
    exact Python ints, and logs it as :func:`advance` does.
    """
    (entry,), nxt, _ = advance(plan, bind(plan, backend), state, 1)
    return nxt, entry.partials, entry.common
