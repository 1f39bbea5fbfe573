"""Low-level step kernels.

A :class:`StepPlan` is the flattened, index-only form of one CAO update:
per-entity radices, carry groups (the input sets of multi-input operators),
and weighted edges. It is the one place a spec is flattened for the matrix
route: the pure kernel, the compiled kernel and :func:`caosim.engine.derive`
all read it.

The compiled kernel is ``_stepcore.c``, a hand-written CPython extension
that ``setup.py`` builds when a C compiler is present. It works in 64-bit
integers and stops instead of wrapping; any update it cannot represent is
taken in Python's unbounded integers. The compiled kernel is the default
backend when the extension imports and the ``CAOSIM_PURE`` environment
variable is unset.

Every update goes through :func:`advance`: given a plan, the kernel
:func:`bind` chose for it, a state and a limit, it returns a stretch of
updates as ``(rows, last, stop)``. It steps in C for as long as int64 holds
the state and the credits. In Python, a stretch is taken the frontier way:
its first update computes every carry, and each update after it changes
only the entries whose common carry is nonzero and the entries they credit,
so only those entries' partial carries and the carry groups they belong to
are computed again (in a sandpile, only sites that just received grains can
topple; Dhar, PRL 64, 1990). On the compiled backend the stretch goes back
into C as soon as every component fits in int64 again, and each time it
leaves C it logs a DEBUG record on the ``caosim`` logger. :func:`step` is
``advance`` with a limit of one, and :func:`caosim.simulate.run` drives
whole runs with it.

On the compiled backend every row tuple is born untracked by the cyclic
garbage collector when it holds only exact ``int`` objects: C builds its rows
that way, and :func:`_frontier` builds its own with ``_stepcore.row``. Such
a tuple cannot be part of a reference cycle, and CPython would untrack it
anyway at the first collection that walks it; on a wide state that walk
cost more than the update. The (state, partials, common) triples C returns
are untracked too when their state is, and so are the trace entries
:func:`caosim.simulate.run` builds over such rows with ``_stepcore.entries``.
The pure backend runs no C, so its rows and entries stay tracked until a
collection untracks them (an entry, being an object with slots, never).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .model import CaoSpec, entity_index

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

_INT64_MAX = 2**63 - 1

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


@lru_cache(maxsize=4096)
def plan_for(spec: CaoSpec) -> StepPlan:
    """Flatten a validated spec into index arrays (cached per spec).

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


def advance(plan: StepPlan, compiled, state: Sequence[int], limit: int):
    """Up to ``limit`` updates of ``state`` under ``plan``: ``(rows, last, stop)``.

    ``compiled`` is what :func:`bind` returned for the plan. ``rows`` holds
    one ``(state, partials, common)`` tuple per update taken; each row's
    state is the previous update's next-state tuple, the same object.
    ``last`` is the state after the last row, and ``stop`` is 0 when the
    last row's common carries are all zero (a fixed point) and 1 when
    ``limit`` rows were taken.

    Updates run in C while int64 holds them. From an update it cannot hold,
    the stretch goes on in Python by :func:`_frontier`, until every
    component fits in int64 again and the stretch goes back into C. The pure
    backend takes the whole stretch in Python the same way. A state whose
    length is not the plan's raises ValueError on either backend.
    """
    if len(state) != plan.m:
        raise ValueError(f"state has {len(state)} components, plan has {plan.m}")
    rows: list = []
    while len(rows) < limit:
        if compiled is not None:
            got, state, stop = compiled.run(state, limit - len(rows))
            rows += got
            if stop != 2:
                return rows, state, stop
            left = len(rows)
        state, stop = _frontier(plan, compiled is not None, rows, state, limit)
        if compiled is not None and (log := _debug_log()) is not None:
            log.debug(
                "left C with %d of %d components outside int64; %d updates in Python, then %s",
                sum(1 for v in rows[left][0] if not 0 <= v <= _INT64_MAX),
                plan.m,
                len(rows) - left,
                ("a fixed point", "the stretch's limit", "back into C")[stop],
            )
        if stop != 2:
            return rows, state, stop
    return rows, state, 1


def _debug_log():
    """The ``caosim`` logger when it handles DEBUG records, else None.

    ``logging`` is not imported here: it would add about a tenth to the
    package's import time (6 of 65 ms on a 2-core x86-64 host, Python
    3.11), and a process that has not imported it has configured no logger
    to handle the record."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("caosim")
    return log if log.isEnabledFor(logging.DEBUG) else None


def _frontier(plan: StepPlan, compiled: bool, rows: list, state, limit: int):
    """Take updates of ``state`` in Python, appending their rows to ``rows``
    (the stretch so far) up to ``limit`` rows in all.

    Returns ``(last, stop)``, with ``stop`` as in :func:`advance`, or 2 when
    ``compiled`` and every component of ``last`` fits in int64 after at
    least one update here, so C can take the next one.

    The state and the carries are kept as lists, starting from zero carries
    with every entry to compute. An update changes only the firing entries
    (common carry nonzero) and the entries they credit, so only those get
    their partial carry computed again, and only the groups whose members'
    partials changed are folded again, each straight into its members.
    When ``compiled``, ``big`` flags each component outside int64 and
    ``wide`` counts them; only the entries an update changed are tested
    again. Each row is copied out with ``tuple()``, or with
    ``_stepcore.row`` when ``compiled``, which also untracks it.
    """
    n, groups = plan.n, plan.groups
    out, group_of = plan._fanout
    row = _stepcore.row if compiled else tuple
    head, s = row(state), list(state)
    p, pc = [0] * len(s), [0] * len(s)
    if compiled:
        big = [not 0 <= v <= _INT64_MAX for v in s]
        wide = sum(big)
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
        pt = row(p)
        rows.append((head, pt, pt if not groups or p == pc else row(pc)))
        if not fire:
            return head, 0
        touched = set()
        for i in fire:
            c = pc[i]
            s[i] -= c * n[i]
            touched.add(i)
            for d, coeff in out[i]:
                s[d] += c * coeff
                touched.add(d)
        head = row(s)
        if len(rows) == limit:
            return head, 1
        if compiled:
            for j in touched:
                if (b := not 0 <= s[j] <= _INT64_MAX) != big[j]:
                    big[j] = b
                    wide += 1 if b else -1
            if not wide:
                return head, 2


def step(
    state: Sequence[int], plan: StepPlan, *, backend: str | None = None
) -> StepResult:
    """Dispatch one update to the selected backend.

    ``backend`` may be "pure", "compiled", or None (module default). The
    compiled backend takes any update it cannot represent in 64 bits in
    Python, and logs it as :func:`advance` does.
    """
    rows, nxt, _ = advance(plan, bind(plan, backend), state, 1)
    _, p, pc = rows[0]
    return nxt, p, pc
