"""Direct operational semantics.

Advances a CAO by enacting each operator's procedure literally: divide each
input by its radix, take the group's common carry (the minimum), remove the
consumed whole parts, credit each output with carry × coefficient. No
matrices are formed anywhere in this module — it is an independent second
route to the same dynamics, kept in plain unbounded-integer Python so the
matrix engine can be checked against it step for step.

An operator's carries depend only on its own inputs. So an operator none of
whose inputs changed in the last update keeps its carries, and an idle one,
whose common carry is 0, stays idle. :func:`enactor` therefore enacts every
operator in its first update, and after that only the operators that read a
component the last update changed: the inputs and outputs of the operators
that fired. An operator that fires changes its own inputs, so it is enacted
again in the next update. This is the frontier stepping of sandpiles, where
only sites that just received grains can topple (Dhar, PRL 64, 1990;
Björner, Lovász & Shor, Europ. J. Combin. 12, 1991).

The matrix route (:mod:`caosim.engine`, :mod:`caosim.kernel` and the
compiled kernel) steps the same way, and the two still check each other
independently. This module imports only :mod:`caosim.model` and shares no
code with that route. It derives which operators read which entity from
:func:`resolve` alone, and it keeps its own state and carries. The two
routes also work at different grains. Here a whole operator is enacted again
or not at all. The matrix route recomputes single entries of a flattened
plan (per-entity radices, carry groups and weighted edges). A slip in either
one's bookkeeping shows as a difference in some trace entry, and
``run(engine="both")`` compares every entry in full: it sends each matrix
stretch of entries to the enactor, which compares its own updates with them
as it takes them. The entries are the very objects the trace keeps; they
reach this module only to be compared, and nothing here is computed from
them. The record class, :class:`~caosim.model.TraceStep`, comes from
:mod:`caosim.model`, as everything here does.

On the compiled backend ``run`` makes that check with ``_stepcore.Enactor``,
this module's enactor written again in C: built from :func:`resolve`'s
tables, enacting each operator literally by the same frontier rule, in
int64. :func:`enactor` is its oracle in the tests, and checks every stretch
or rest of a stretch that the C enactor hands back past int64.
"""

from __future__ import annotations

from typing import Generator, Sequence

from .model import CaoSpec, TraceStep, check_state, entity_index, per_spec

StepResult = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
IndexPairs = tuple[tuple[int, int], ...]
Resolved = tuple[tuple[IndexPairs, IndexPairs], ...]


@per_spec
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
    updates = enactor(resolve(spec), state)
    next(updates)
    (entry,), nxt, _ = updates.send((0, 1))
    return nxt, entry.partials, entry.common


def enactor(operators: Resolved, state: Sequence[int]) -> Generator:
    """The updates of a checked ``state`` under resolved ``operators``, a
    stretch per ``send`` once primed with ``next()``.

    ``send((k, limit))`` takes up to ``limit`` updates and returns
    ``(entries, last, stop)`` as the matrix route's ``advance`` does: a
    ``TraceStep(k + i, state, partials, common)`` per update, the state
    after the last, and ``stop`` 0 at a fixed point (all common carries
    zero) or 1 after ``limit`` entries.

    ``send((entries, last))`` checks such a stretch: it takes
    ``len(entries)`` updates and compares each in full as it is taken, its
    next state with the next entry's ``state`` (``last`` after the last
    entry) and its carries with the entry's ``partials`` and ``common``. It
    keeps none of its own. It returns None when all match, else ``(i,
    (next, partials, common))`` for the first mismatch: its index in the
    stretch and this route's result there. A mismatch ends the enactor's
    use.

    The first update enacts every operator, each later one only those that
    read a component the last update changed; the others keep their
    carries. A single-input operator (L, D) takes its carry with one
    division, a multi-input one (F, M) records every input's partial carry
    and takes their minimum. Carries are read from ``cur``, the snapshot the
    update starts from, and removals and credits go into the list ``s``, so
    no update sees its own effects. An operator that fires marks for the
    next update every operator that reads one of its inputs or outputs.
    Without multi-input operators the common carries are the partials, and
    one tuple holds both. After a fixed point every update gives the same
    values.
    """
    readers = [[] for _ in state]
    for o, (inputs, _) in enumerate(operators):
        for i, _ in inputs:
            readers[i].append(o)
    marks = [
        tuple({r for i, _ in (*inputs, *outputs) for r in readers[i]})
        for inputs, outputs in operators
    ]
    grouped = any(len(inputs) > 1 for inputs, _ in operators)
    s = list(state)
    p = [0] * len(s)
    pc = [0] * len(s)
    cur = tuple(s)
    dirty = range(len(operators))
    done = None
    while True:
        job = yield done
        if type(job[0]) is int:
            (k, limit), want, entries = job, None, []
        else:
            want, last = job
            limit = len(want)
        for j in range(limit):
            before = cur
            marked = set()
            for o in dirty:
                inputs, outputs = operators[o]
                if len(inputs) == 1:
                    i, n = inputs[0]
                    common = p[i] = pc[i] = cur[i] // n
                    if not common:
                        continue
                    s[i] -= common * n
                else:
                    common = None
                    for i, n in inputs:
                        carry = p[i] = cur[i] // n
                        if common is None or carry < common:
                            common = carry
                    for i, n in inputs:
                        pc[i] = common
                    if not common:
                        continue
                    for i, n in inputs:
                        s[i] -= common * n
                for t, coeff in outputs:
                    s[t] += common * coeff
                marked.update(marks[o])
            if marked:
                cur = tuple(s)
            dirty = marked
            pt = tuple(p)
            common = pt if not grouped or p == pc else tuple(pc)
            if want is None:
                entries.append(TraceStep(k, before, pt, common))
                k += 1
                if not any(common):
                    done = entries, cur, 0
                    break
            else:
                entry = want[j]
                mp, mpc = entry.partials, entry.common
                # common carries that are the partials' own tuple on both
                # sides are equal when the partials are
                if (
                    cur != (want[j + 1].state if j + 1 < limit else last)
                    or pt != mp
                    or not (common is pt and mpc is mp)
                    and common != mpc
                ):
                    done = j, (cur, pt, common)
                    break
        else:
            done = (entries, cur, 1) if want is None else None
