"""Low-level step kernels.

A :class:`StepPlan` is the flattened, index-only form of one CAO update:
per-entity radices, carry groups (the input sets of multi-input operators),
and weighted edges. It is the one place a spec is flattened for the matrix
route: the pure kernel, the compiled kernel and :func:`caosim.engine.derive`
all read it.

The compiled kernel is ``_stepcore.c``, a hand-written CPython extension
that ``setup.py`` builds when a C compiler is present. It works in 64-bit
integers and stops instead of wrapping; any update it cannot represent is
taken by the pure kernel, which uses Python's unbounded integers. The
compiled kernel is the default backend when the extension imports and the
``CAOSIM_PURE`` environment variable is unset.

Every update goes through :func:`advance`: given a plan, the kernel
:func:`bind` chose for it, a state and a limit, it returns a stretch of
updates as ``(rows, last, stop)``. It steps in C for as long as int64 holds
the state and the credits, takes any update int64 cannot hold with
:func:`pure_step`, and goes back into C. :func:`step` is ``advance`` with a
limit of one, and :func:`caosim.simulate.run` drives whole runs with it.
"""

from __future__ import annotations

import os
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

# (next state, partial carries, common carries)
StepResult = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class StepPlan:
    """Index-level description of one synchronous update.

    ``n``       per-entity radix (0 = entity feeds no operator)
    ``groups``  tuple of index tuples; each is the input set of one operator
                with >= 2 inputs (carry groups for the min fold)
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


def pure_step(state: Sequence[int], plan: StepPlan) -> StepResult:
    """One synchronous update in unbounded integer arithmetic.

    Returns ``(next_state, partial_carries, common_carries)``. The update is
    a snapshot: every carry is computed from ``state`` before any component
    is written.
    """
    n = plan.n
    p = [s // r if r else 0 for s, r in zip(state, n)]
    pc = list(p)
    for members in plan.groups:
        low = min(p[i] for i in members)
        for i in members:
            pc[i] = low
    nxt = [s - c * r if r else s for s, c, r in zip(state, pc, n)]
    for src, dst, coeff in plan.edges:
        nxt[dst] += pc[src] * coeff
    return tuple(nxt), tuple(p), tuple(pc)


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
    one ``(state, partials, common)`` tuple per update taken, ``last`` is the
    state after the last of them, and ``stop`` is 0 when the last row's
    common carries are all zero (a fixed point) and 1 when ``limit`` rows
    were taken. Updates run in C while int64 holds them; one it cannot hold
    is taken by :func:`pure_step` before the stretch goes back into C.
    """
    rows: list = []
    while len(rows) < limit:
        if compiled is not None:
            got, state, stop = compiled.run(state, limit - len(rows))
            rows += got
            if stop != 2:
                return rows, state, stop
        nxt, p, pc = pure_step(state, plan)
        rows.append((state, p, pc))
        state = nxt
        if not any(pc):
            return rows, state, 0
    return rows, state, 1


def step(
    state: Sequence[int], plan: StepPlan, *, backend: str | None = None
) -> StepResult:
    """Dispatch one update to the selected backend.

    ``backend`` may be "pure", "compiled", or None (module default). The
    compiled backend silently falls back to the pure kernel for any update
    it cannot represent in 64 bits.
    """
    rows, nxt, _ = advance(plan, bind(plan, backend), state, 1)
    _, p, pc = rows[0]
    return nxt, p, pc
