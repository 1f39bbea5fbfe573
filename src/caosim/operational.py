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
one's bookkeeping shows as a difference in some update, and
``run(engine="both")`` compares every update: it sends each matrix stretch
record to the enactor, which compares its own updates with it as it takes
them, the first in full and each later one by the cells it changed. The
record is the very object the trace keeps; it reaches this module only to be
compared, and nothing here is computed from it. The record class,
:class:`~caosim.model.Stretch`, comes from :mod:`caosim.model`, as
everything here does.

On the compiled backend ``run`` makes that check with ``_stepcore.Enactor``,
this module's enactor written again in C: built from :func:`resolve`'s
tables, enacting each operator literally by the same frontier rule, in
int64. :func:`enactor` is its oracle in the tests, and checks every stretch
or rest of a stretch that the C enactor hands back past int64.
"""

from __future__ import annotations

from itertools import chain
from typing import Generator, Sequence

from .model import CaoSpec, Stretch, check_state, entity_index, per_spec

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
    stretch, nxt, _ = updates.send((0, 1))
    return nxt, stretch.partials, stretch.common


def enactor(operators: Resolved, state: Sequence[int]) -> Generator:
    """The updates of a checked ``state`` under resolved ``operators``, a
    stretch per ``send`` once primed with ``next()``.

    ``send((k, limit))`` takes up to ``limit`` updates and returns
    ``(stretch, last, stop)`` as the matrix route's ``advance`` does: a
    :class:`~caosim.model.Stretch` record numbered from ``k``, the state
    after the last update, and ``stop`` 0 at a fixed point (all common
    carries zero) or 1 after ``limit`` updates.

    ``send((stretch, last))`` checks such a record: it takes one update per
    update recorded and compares each as it is taken, the first in full
    (the record's state with its own, and the carries) and each later one
    by its changes, which must be the cells its own update changed, with
    the values it gave them: the carries in the update's own changes, the
    components of its next state in the next update's, and the state after
    the last update is compared with ``last``. It keeps none of its own.
    It returns None when all match, else ``(i, (next, partials, common))``
    for the first mismatch: its index in the stretch and this route's
    result there. A mismatch ends the enactor's use.

    The first update enacts every operator, each later one only those that
    read a component the last update changed; the others keep their
    carries. A single-input operator (L, D) takes its carry with one
    division, a multi-input one (F, M) records every input's partial carry
    and takes their minimum. Carries are read from ``cur``, the state the
    update starts from, and removals and credits go into ``s``, so no
    update sees its own effects; the components they touched are copied
    back after it. An operator that fires marks for the next update every
    operator that reads one of its inputs or outputs, itself among them, so
    an update that marks none is a fixed point. Without multi-input
    operators the common carries are the partials, and one tuple holds both.
    After a fixed point every update gives the same values.
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
    m = len(state)
    partial_cell, common_cell = m, 2 * m  # the first cells of the carry rows
    cur = list(state)
    s = list(state)
    p = [0] * m
    pc = [0] * m
    dirty = range(len(operators))
    moved = {}  # the components the last update changed, by cell
    done = None
    while True:
        job = yield done
        if type(job[0]) is int:
            (k, limit), want = job, None
            changes = []
        else:
            want, last = job
            changes = want.changes
            limit = 1 + len(changes)
        for j in range(limit):
            if not j:
                head = tuple(cur)
            before = moved
            carries = {}  # the carries this update changed, by cell
            marked = set()
            touched = set()
            for o in dirty:
                inputs, outputs = operators[o]
                if len(inputs) == 1:
                    i, n = inputs[0]
                    common = cur[i] // n
                    if common != p[i]:
                        p[i] = pc[i] = carries[partial_cell + i] = carries[common_cell + i] = common
                    if not common:
                        continue
                    s[i] -= common * n
                    touched.add(i)
                else:
                    common = None
                    for i, n in inputs:
                        carry = cur[i] // n
                        if carry != p[i]:
                            p[i] = carries[partial_cell + i] = carry
                        if common is None or carry < common:
                            common = carry
                    for i, n in inputs:
                        if pc[i] != common:
                            pc[i] = carries[common_cell + i] = common
                    if not common:
                        continue
                    for i, n in inputs:
                        s[i] -= common * n
                        touched.add(i)
                for t, coeff in outputs:
                    s[t] += common * coeff
                    touched.add(t)
                marked.update(marks[o])
            moved = {}
            for t in touched:
                if s[t] != cur[t]:
                    cur[t] = moved[t] = s[t]
            dirty = marked
            if not j:
                pt = tuple(p)
                first = pt if not grouped or p == pc else tuple(pc)
            if want is None:
                if j:
                    changes.append((*chain.from_iterable(before.items()), *chain.from_iterable(carries.items())))
                if not marked:
                    done = Stretch(k, head, pt, first, changes), tuple(cur), 0
                    break
                continue
            # the carries in the update's own changes, its next state in the
            # next update's, or last
            if j:
                bad = {c: v for c, v in following.items() if c >= partial_cell} != carries
            else:
                bad = head != want.state or pt != want.partials or first != want.common
            if not bad and j + 1 < limit:
                following = _pairs(changes[j])
                bad = following is None or {c: v for c, v in following.items() if c < partial_cell} != moved
            elif not bad:
                bad = tuple(cur) != last
            if bad:
                pt = tuple(p)
                done = j, (tuple(cur), pt, pt if not grouped or p == pc else tuple(pc))
                break
        else:
            done = (Stretch(k, head, pt, first, changes), tuple(cur), 1) if want is None else None


def _pairs(change: tuple) -> dict | None:
    """The ``(cell, value)`` pairs of an update's changes, by cell, or None
    when a cell is listed twice."""
    pairs = iter(change)
    found = dict(zip(pairs, pairs))
    return found if 2 * len(found) == len(change) else None
