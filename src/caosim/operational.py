"""Direct operational semantics.

Advances a CAO by enacting each operator's procedure literally: divide each
input by its radix, take the group's common carry (the minimum), remove the
consumed whole parts, credit each output with carry × coefficient. No
matrices are formed anywhere in this module — it is an independent second
route to the same dynamics, kept in plain unbounded-integer Python so the
matrix engine can be checked against it step for step.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .model import CaoSpec, check_state, entity_index

StepResult = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
IndexPairs = tuple[tuple[int, int], ...]
Resolved = tuple[tuple[IndexPairs, IndexPairs], ...]


@lru_cache(maxsize=4096)
def resolve(spec: CaoSpec) -> Resolved:
    """Each operator as ``(inputs, outputs)`` with entity names replaced by
    state-vector indices: (index, radix) and (index, coefficient) pairs."""
    idx = entity_index(spec)
    return tuple(
        (
            tuple((idx[e], n) for e, n in op.inputs),
            tuple((idx[t], r) for t, r in op.outputs),
        )
        for op in spec.operators
    )


def step_operational(spec: CaoSpec, state: Sequence[int]) -> StepResult:
    """One synchronous update; returns (next, partials, common carries).

    Same contract as the matrix engine's ``step``: every carry is read from
    the incoming snapshot, and all removals and credits land in a separate
    next state.
    """
    check_state(spec, state)
    return enact(resolve(spec), state)


def enact(operators: Resolved, state: Sequence[int]) -> StepResult:
    """Enact every resolved operator once on a snapshot of a checked state.

    The update behind :func:`step_operational`, for callers that resolve a
    spec and check the state themselves.
    """
    nxt = list(state)
    p = [0] * len(state)
    pc = [0] * len(state)
    for inputs, outputs in operators:
        partials = [state[i] // n for i, n in inputs]
        common = min(partials)
        for (i, n), carry in zip(inputs, partials):
            p[i] = carry
            pc[i] = common
            nxt[i] -= common * n
        for t, coeff in outputs:
            nxt[t] += common * coeff
    return tuple(nxt), tuple(p), tuple(pc)
