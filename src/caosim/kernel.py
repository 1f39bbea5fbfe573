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
returns a stretch of updates as ``(stretch, last, stop)``, the stretch a
:class:`~caosim.model.Stretch` record: its first update's rows in full,
then for each later update only the cells whose value differs from the
update before. So a wide run costs what its updates change, not its width
times their number. On the compiled backend the stretch is one
``PlanKernel.run`` call, and ``advance`` logs each of its big-integer
stretches as a DEBUG record on the ``caosim`` logger. The pure backend
takes the stretch in Python by :func:`_frontier`. Both take big integers
the frontier way: a stretch's first update computes every carry, and each
update after it changes only the entries whose common carry is nonzero and
the entries they credit, so only those entries' partial carries and the
carry groups they belong to are computed again (in a sandpile, only sites
that just received grains can topple; Dhar, PRL 64, 1990). :func:`step`
takes one update and reads its rows straight off the kernel's result, and
:func:`caosim.simulate.run` drives whole runs with ``advance``.

Every tuple C makes of exact ints, a row or an update's changes, is born
untracked by the cyclic garbage collector; the pure backend's tuples stay
tracked until a collection untracks them.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Sequence

from .model import CaoSpec, Stretch, entity_index, per_spec

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
    """From 1 to ``limit`` updates of ``state`` under ``plan``: ``(stretch, last, stop)``.

    ``compiled`` is what :func:`bind` returned for the plan. ``stretch`` is
    the :class:`~caosim.model.Stretch` record of the updates taken,
    numbered from ``k``. ``last`` is the state after the last update, and
    ``stop`` is 0 when the last update's common carries are all zero (a
    fixed point) and 1 when ``limit`` updates were taken. With ``hold``, a
    fixed point repeats up to the limit, each repeat recorded as changing
    nothing, as a run under a schedule records a fixed state until the
    parameters may change; ``stop`` is still 0.

    On the compiled backend the whole stretch is one ``PlanKernel.run``
    call: in int64 while it holds the update, and in exact Python ints,
    stepped the frontier way, from an update it cannot hold until every
    component fits in int64 again. Each such big-integer stretch is logged
    as a DEBUG record on the ``caosim`` logger. The pure backend takes the
    whole stretch by :func:`_frontier`. A state whose length is not the
    plan's, or a limit below 1, raises ValueError on either backend.
    """
    start, partials, common, changes, last, stop = _run(plan, compiled, state, limit)
    if hold and stop == 0:
        changes += repeat((), limit - 1 - len(changes))
    return Stretch(k, start, partials, common, changes), last, stop


def _run(plan: StepPlan, compiled, state, limit: int):
    """The stretch :func:`advance` records, as the kernel returns it:
    ``(state, partials, common, changes, last, stop)``. Either kernel
    refuses a state of the wrong length and a limit below 1 with the same
    ValueError."""
    if compiled is None:
        return _frontier(plan, state, limit)
    stretches: list = []
    out = compiled.run(state, limit, stretches)
    if stretches and (log := _debug_log()) is not None:
        for wide, taken, end in stretches:
            log.debug(
                "left int64 with %d of %d components outside it; %d updates in big integers, then %s",
                wide,
                plan.m,
                taken,
                ("a fixed point", "the stretch's limit", "back into int64")[end],
            )
    return out


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


def _frontier(plan: StepPlan, state, limit: int):
    """The pure backend's stretch: up to ``limit`` (at least one) updates of
    ``state`` in Python, returned as ``PlanKernel.run`` returns them:
    ``(state, partials, common, changes, last, stop)``.

    The state and the carries are kept as lists. The first update computes
    every carry and is kept in full. An update changes only the firing
    entries (common carry nonzero) and the entries they credit, so only
    those get their partial carry computed again, and only the groups whose
    members' partials changed are folded again, each straight into its
    members. Each later update logs the components the last one changed and
    the carries that change with them. ``PlanKernel.run`` steps its
    big-integer stretches by the same rule.
    """
    n, groups = plan.n, plan.groups
    out, group_of = plan._fanout
    m = len(n)
    partial_cell, common_cell = m, 2 * m  # the first cells of the carry rows
    start = tuple(state)
    if len(start) != m:
        raise ValueError(f"state has {len(start)} components, plan has {m}")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    s = list(start)
    logged = list(start)  # each component's value as last recorded
    # the first update: every carry, kept in full
    p = [v // r if r else 0 for v, r in zip(s, n)]
    pc = p.copy()
    for members in groups:
        low = min(map(p.__getitem__, members))
        for x in members:
            pc[x] = low
    partials = tuple(p)
    common = partials if pc == p else tuple(pc)
    fire = set(compress(range(m), pc))
    changes = []
    while True:
        if not fire:
            return start, partials, common, changes, tuple(s), 0
        touched = set()
        touch = touched.add
        for i in fire:
            c = pc[i]
            s[i] -= c * n[i]
            touch(i)
            for d, coeff in out[i]:
                s[d] += c * coeff
                touch(d)
        if len(changes) + 1 == limit:
            return start, partials, common, changes, tuple(s), 1
        # the next update: the components this one changed, with their
        # carries, then the groups whose partial carries changed
        log = []
        dirty = set()
        for j in touched:
            v = s[j]
            if v != logged[j]:
                logged[j] = v
                r = n[j]
                if r and (q := v // r) != p[j]:
                    p[j] = q
                    if (g := group_of[j]) is not None:
                        log += (j, v, partial_cell + j, q)
                        dirty.add(g)
                    else:
                        pc[j] = q
                        log += (j, v, partial_cell + j, q, common_cell + j, q)
                        if q:
                            fire.add(j)
                        else:
                            fire.discard(j)
                else:
                    log += (j, v)
        for g in dirty:
            members = groups[g]
            low = min(map(p.__getitem__, members))
            for x in members:
                if pc[x] != low:
                    pc[x] = low
                    log += (common_cell + x, low)
                    if low:
                        fire.add(x)
                    else:
                        fire.discard(x)
        changes.append(tuple(log))


def step(
    state: Sequence[int], plan: StepPlan, *, backend: str | None = None
) -> StepResult:
    """Dispatch one update to the selected backend.

    ``backend`` may be "pure", "compiled", or None (module default). The
    compiled backend takes any update it cannot represent in 64 bits in
    exact Python ints, and logs it as :func:`advance` does. The rows are
    read straight off the kernel's result; no record is built.
    """
    _, partials, common, _, nxt, _ = _run(plan, bind(plan, backend), state, 1)
    return nxt, partials, common
