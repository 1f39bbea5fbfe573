"""Direct operational semantics.

Advances a CAO by enacting each operator's procedure literally: divide each
input by its radix, take the group's common carry (the minimum), remove the
consumed whole parts, credit each output with carry × coefficient. No
matrices are formed anywhere in this module — it is an independent second
route to the same dynamics, kept in plain unbounded-integer Python so the
matrix engine can be checked against it step for step.

An operator whose common carry is 0 is idle. Its procedure would remove
0 × radix from each input and credit 0 × coefficient to each output, which
leaves every component as it was, so the update skips those two loops and
spends work only where operators fire. The carries it reports do not change:
an idle single-input operator's partial carry is the 0 already in place, and
a multi-input operator records every input's partial carry before it knows
their minimum.
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
    spec and check the state themselves. A single-input operator (L, D)
    takes its carry with one division. A multi-input operator (F, M)
    records every input's partial carry and takes their minimum. An idle
    operator, one whose common carry is 0, removes and credits nothing, so
    its removal and credit loops are skipped.
    """
    nxt = list(state)
    p = [0] * len(state)
    pc = [0] * len(state)
    for inputs, outputs in operators:
        if len(inputs) == 1:
            i, n = inputs[0]
            common = state[i] // n
            if not common:
                continue
            p[i] = pc[i] = common
            nxt[i] -= common * n
        else:
            common = None
            for i, n in inputs:
                carry = p[i] = state[i] // n
                if common is None or carry < common:
                    common = carry
            if not common:
                continue
            for i, n in inputs:
                pc[i] = common
                nxt[i] -= common * n
        for t, coeff in outputs:
            nxt[t] += common * coeff
    return tuple(nxt), tuple(p), tuple(pc)
