"""The fixed point of an acyclic CAO in one sweep, without stepping.

The paper reads a CAO as x(k+1) = x(k) + B·u(k). Summed over a run that
settles, this gives x_final = x₀ + B·Σu, so the end state follows from each
operator's total firings Σu. In an acyclic CAO those totals are fixed by the
start state alone. An input entity loses parts only when its own operator
fires, and an operator can fire as long as every input holds its radix. So
in the end state an operator has fired exactly min over its inputs of
⌊(start + inflow) / radix⌋ times, whatever the order of the firings. This is
the abelian property of chip-firing (Björner, Lovász & Shor, Europ. J.
Combin. 12, 1991; Bond & Levine, "Abelian networks I", 2016). An operator's
inflow is known once every operator that feeds it has fired, so one pass in
topological order gives the end state in O(operators + edges).

This is a third route to the dynamics. It imports only :mod:`caosim.model`
and shares no code with the matrix route (:mod:`caosim.engine`,
:mod:`caosim.kernel`) or the operational route
(:mod:`caosim.operational`), both of which take one synchronous update at a
time. Nothing here steps: it neither reads nor produces a trace, so its
answer checks theirs, and the firing totals check any trace, since they must
equal the sum of a trace's common carries.
"""

from __future__ import annotations

from typing import Sequence

from .model import CaoSpec, check_state, entity_index


def fixed_point(
    spec: CaoSpec, state: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The state an acyclic CAO settles in from ``state``, and how many
    times each operator fired on the way: ``(final, totals)``, with
    ``totals[o]`` for ``spec.operators[o]``.

    ``state`` is checked by ``check_state``. Each operator is taken once,
    after every operator that credits one of its inputs. A CAO with a cycle
    has operators that are never reached that way, and raises ValueError;
    only the CAO's own parameters are used, as no schedule can be given.
    """
    check_state(spec, state)
    idx = entity_index(spec)
    x = list(state)
    ops = spec.operators
    # the operator each entity feeds (at most one), and each operator's
    # count of incoming edges from operators not yet taken
    feeds = [-1] * len(x)
    for o, op in enumerate(ops):
        for e, _ in op.inputs:
            feeds[idx[e]] = o
    waiting = [0] * len(ops)
    for op in ops:
        for t, _ in op.outputs:
            d = feeds[idx[t]]
            if d >= 0:
                waiting[d] += 1
    ready = [o for o, w in enumerate(waiting) if not w]
    totals = [0] * len(ops)
    # ``ready`` grows while it is walked: each operator joins it once, after
    # its last feeding operator has fired
    for o in ready:
        op = ops[o]
        fired = min([x[idx[e]] // n for e, n in op.inputs])
        for e, n in op.inputs:
            x[idx[e]] -= fired * n
        totals[o] = fired
        for t, r in op.outputs:
            j = idx[t]
            x[j] += fired * r
            d = feeds[j]
            if d >= 0:
                waiting[d] -= 1
                if not waiting[d]:
                    ready.append(d)
    if len(ready) < len(ops):
        raise ValueError(f"CAO {spec.name!r} has a cycle, so it has no one-sweep fixed point")
    return tuple(x), tuple(totals)
