"""The step kernels: plan flattening, backend parity, big-integer stretches."""

from __future__ import annotations

import gc
import logging
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

import caosim
from caosim import ParameterSchedule, build_linear_chain, parse, random_cao, random_state, resolve, run
from caosim.kernel import (
    COMPILED_AVAILABLE,
    StepPlan,
    StepResult,
    _stepcore,
    advance,
    bind,
    plan_for,
    step,
)
from caosim.model import Stretch, TraceStep
from conftest import (
    GROWING_CYCLE_TEXT,
    KERNEL_SOURCE,
    LOOP_TEXT,
    LOWERING_LOOP_TEXT,
    as_rows,
    kernel_compile_command,
    kernel_compiler,
    record_of,
    recorded,
    sorted_pairs,
)

needs_extension = pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled kernel not built"
)


# The oracle for ``advance``: every carry of every entry, on every update.
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


def c_run(kernel, state, limit, stretches=None, k=0):
    """``kernel.run(state, limit, stretches)`` as ``advance`` returns it:
    ``(stretch, last, stop)``, the record numbered from ``k``."""
    start, partials, common, changes, last, stop = kernel.run(state, limit, stretches)
    return Stretch(k, start, partials, common, changes), last, stop


def compiled_update(plan, state):
    """One update by ``PlanKernel.run(state, 1)``, as ``(next, partials,
    common)``, and the big-integer stretches the run reported."""
    stretches = []
    rows, last, _ = as_rows(c_run(bind(plan, "compiled"), state, 1, stretches))
    return (last, *rows[0][1:]), stretches


def fits_int64(value) -> bool:
    """Whether C reads ``value`` as an int64 state component."""
    return isinstance(value, int) and 0 <= value < 2**63


def int64_takes(plan, state) -> bool:
    """Whether C's int64 loop can take the update of ``state``: every
    component fits, and so does every credit and every running sum it is
    added to, edge by edge in plan order."""
    if not all(map(fits_int64, state)):
        return False
    _, _, pc = pure_step(state, plan)
    nxt = [s - c * r for s, c, r in zip(state, pc, plan.n)]
    for src, dst, coeff in plan.edges:
        credit = pc[src] * coeff
        nxt[dst] += credit
        if not (-(2**63) <= credit < 2**63 and -(2**63) <= nxt[dst] < 2**63):
            return False
    return True


def expected_stretches(plan, rows, stop):
    """The ``(wide, updates, end)`` records ``PlanKernel.run`` reports for a
    stretch of ``rows`` ending with ``stop``: a big-integer stretch starts at
    each update the int64 loop cannot take, and ends at the first later row
    whose state fits in int64 (end 2), or with the rows."""
    out, i = [], 0
    while i < len(rows):
        if int64_takes(plan, rows[i][0]):
            i += 1
            continue
        start, i = i, i + 1
        while i < len(rows) and not all(map(fits_int64, rows[i][0])):
            i += 1
        wide = sum(not fits_int64(v) for v in rows[start][0])
        out.append((wide, i - start, 2 if i < len(rows) else stop))
    return out


STRETCH_RECORD = re.compile(
    r"left int64 with (\d+) of (\d+) components outside it; (\d+) updates in big integers, "
    r"then (a fixed point|the stretch's limit|back into int64)\Z"
)


def logged_stretches(records, m):
    """The ``(wide, updates, end)`` of each big-integer stretch ``advance``
    logged for a plan of ``m`` entities."""
    ends = ("a fixed point", "the stretch's limit", "back into int64")
    out = []
    for record in records:
        assert record.name == "caosim" and record.levelno == logging.DEBUG
        wide, of, taken, end = STRETCH_RECORD.match(record.getMessage()).groups()
        assert int(of) == m
        out.append((int(wide), int(taken), ends.index(end)))
    return out


def repeated_pure_steps(plan, state, limit):
    """The stretch ``advance`` should return, one ``pure_step`` at a time."""
    rows = []
    while len(rows) < limit:
        nxt, p, pc = pure_step(state, plan)
        rows.append((state, p, pc))
        state = nxt
        if not any(pc):
            return rows, state, 0
    return rows, state, 1


def straddling_state(rng, plan):
    """Components drawn small, below 2**62 or 2**63, or just under either."""
    near = rng.choice([2**62, 2**63])
    draws = (lambda: rng.randrange(1000), lambda: rng.randrange(near), lambda: near - rng.randrange(64))
    return tuple(rng.choice(draws)() for _ in plan.n)


def test_showcase_plan(showcase):
    plan = plan_for(showcase)
    assert plan.n == (10, 8, 8, 10, 4, 2, 0)
    assert plan.groups == ((0, 1), (4, 5))
    # one edge per output, cycling through the operator's inputs:
    # M: d<-i, s<-j; L: g<-d; D: g<-s, u<-s; F: h<-g
    assert plan.edges == (
        (0, 2, 1),
        (1, 3, 2),
        (2, 4, 2),
        (3, 4, 1),
        (3, 5, 3),
        (4, 6, 1),
    )


def test_no_entity_is_in_two_carry_groups(fuzz_corpus, showcase):
    # _frontier folds each group straight into its members, which is exact
    # because an entity feeds at most one operator
    specs = [spec for spec, _ in fuzz_corpus] + [showcase, parse(LOOP_TEXT, allow_cycles=True)]
    for spec in specs:
        plan = plan_for(spec)
        members = [i for group in plan.groups for i in group]
        assert len(members) == len(set(members))
        _, group_of = plan._fanout
        assert group_of == tuple(
            next((g for g, group in enumerate(plan.groups) if i in group), None)
            for i in range(plan.m)
        )
    assert sum(len(plan_for(spec).groups) >= 2 for spec in specs) > 100


def test_pure_step_is_a_snapshot_update(showcase):
    # d receives from (i, j) in the same step in which it pays out; the carry
    # it pays must come from the pre-step value, not the updated one.
    plan = plan_for(showcase)
    nxt, _, _ = pure_step((100, 100, 9, 0, 0, 0, 0), plan)
    # d's own carry: 9//8 = 1 leaves 1, plus 10 arriving from the M operator
    assert nxt[2] == 1 + 10


@needs_extension
class TestCompiledParity:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_pure_kernel(self, seed):
        rng = random.Random(seed)
        spec = random_cao(rng)
        plan = plan_for(spec)
        state = random_state(rng, spec)
        for _ in range(5):
            got, stretches = compiled_update(plan, state)
            want = pure_step(state, plan)
            assert got == want and stretches == []
            state = want[0]

    def test_state_beyond_int64_is_stepped_in_big_integers(self, showcase):
        plan = plan_for(showcase)
        state = (2**70, 100, 0, 0, 0, 0, 0)
        assert compiled_update(plan, state) == (pure_step(state, plan), [(1, 1, 1)])
        assert step(state, plan, backend="compiled") == pure_step(state, plan)

    def test_transformant_overflow_is_stepped_in_big_integers(self):
        rng = random.Random(7)
        spec = random_cao(rng, min_entities=2, max_entities=2, radix_range=(2, 2), coeff_range=(9, 9))
        plan = plan_for(spec)
        state = tuple(2**62 if n else 0 for n in plan.n)
        # carry = 2**61, times coefficient 9 leaves int64 range
        assert compiled_update(plan, state) == (pure_step(state, plan), [(0, 1, 1)])
        assert step(state, plan, backend="compiled") == pure_step(state, plan)

    def test_credit_overflow_is_stepped_in_big_integers(self):
        # the transformant itself fits; adding it to the receiver does not
        plan = plan_for(build_linear_chain(2, 2))
        state = (4, 2**63 - 2)
        want = ((0, 2**63), (2, 0), (2, 0))
        assert compiled_update(plan, state) == (want, [(0, 1, 1)])
        assert step(state, plan, backend="compiled") == want

    def test_plan_beyond_int64_falls_back(self):
        plan = plan_for(build_linear_chain(2**64, 2))
        state = (2**65 + 3, 0)
        assert bind(plan, "compiled") is None
        assert step(state, plan, backend="compiled") == ((3, 2), (2, 0), (2, 0))

    def test_negative_or_non_int_state_is_stepped_as_the_pure_backend_steps_it(self, showcase):
        plan = plan_for(showcase)
        for state in [(100, -1, 0, 0, 0, 0, 0), (100.0, 100, 0, 0, 0, 0, 0)]:
            got, stretches = compiled_update(plan, state)
            assert got == pure_step(state, plan) and stretches == [(1, 1, 1)]
            assert as_rows(advance(plan, bind(plan, "compiled"), state, 10)) == as_rows(advance(plan, None, state, 10))
        # the float stays a float, as in Python
        assert type(compiled_update(plan, (100.0, 100, 0, 0, 0, 0, 0))[0][0][0]) is float

    def test_rejects_malformed_plans_and_states(self):
        with pytest.raises(ValueError):
            _stepcore.PlanKernel((2, 2), ((0, 2),), ())
        with pytest.raises(ValueError):
            _stepcore.PlanKernel((2, 0), (), ((0, -1, 1),))
        with pytest.raises(ValueError):
            _stepcore.PlanKernel((-2, 0), (), ())
        with pytest.raises(OverflowError):
            _stepcore.PlanKernel((2, 0), (), ((0, 1, 2**63),))
        with pytest.raises(ValueError, match="entity 1 is in two carry groups"):
            _stepcore.PlanKernel((2, 2, 2), ((0, 1), (1, 2)), ())
        kernel = _stepcore.PlanKernel((2, 0), (), ((0, 1, 1),))
        assert as_rows(c_run(kernel, (5, 0), 1)) == ([((5, 0), (2, 0), (2, 0))], (1, 2), 1)
        with pytest.raises(ValueError):
            kernel.run((5,), 1)
        with pytest.raises(TypeError):
            kernel.run((5, 0), 1, ())

    def test_result_crossing_int64_boundary_is_exact(self):
        # walk a value right across 2**63 - 1 and back through both kernels
        rng = random.Random(11)
        spec = random_cao(rng, min_entities=2, max_entities=2, coeff_range=(9, 9))
        plan = plan_for(spec)
        state = tuple(2**63 - 7 if n else 5 for n in plan.n)
        assert step(state, plan, backend="compiled") == pure_step(state, plan)


@needs_extension
class TestPlanKernelRun:
    # a -> a + a // 2: grows by half each update, so it leaves int64 after a
    # known number of updates
    GROW = StepPlan(n=(2,), groups=(), edges=((0, 0, 3),))

    def test_fixed_point_on_the_first_row(self):
        kernel = bind(plan_for(build_linear_chain(2, 2)), "compiled")
        assert as_rows(c_run(kernel, (1, 5), 10)) == ([((1, 5), (0, 0), (0, 0))], (1, 5), 0)

    def test_stops_at_the_limit(self, showcase):
        rows, last, stop = as_rows(c_run(bind(plan_for(showcase), "compiled"), (100, 100, 0, 0, 0, 0, 0), 2))
        assert stop == 1 and len(rows) == 2
        assert last == (0, 20, 2, 0, 4, 6, 0)

    def test_a_run_goes_on_past_int64(self):
        kernel = bind(self.GROW, "compiled")
        state, stretches = (2**60,), []
        rows, last, stop = as_rows(c_run(kernel, state, 100, stretches))
        assert (rows, last, stop) == repeated_pure_steps(self.GROW, state, 100)
        assert rows[0][0] is state
        # five updates in int64, then the sixth's credit leaves it for good
        assert stretches == [(0, 95, 1)] == expected_stretches(self.GROW, rows, stop)
        more = []
        assert as_rows(c_run(kernel, last, 1, more, 100), 100) == repeated_pure_steps(self.GROW, last, 1)
        assert more == [(1, 1, 1)]

    def test_negative_coefficient_goes_on_below_zero(self):
        kernel = _stepcore.PlanKernel((2, 0), (), ((0, 1, -1),))
        stretches = []
        rows, last, stop = as_rows(c_run(kernel, (4, 1), 10, stretches))
        assert rows == [((4, 1), (2, 0), (2, 0)), ((0, -1), (0, 0), (0, 0))]
        assert last == (0, -1) and stop == 0
        assert stretches == [(1, 1, 0)]

    def test_rejects_a_wrong_length_state_and_a_limit_below_1(self, showcase):
        kernel = bind(plan_for(showcase), "compiled")
        with pytest.raises(ValueError):
            kernel.run((1, 2), 5)
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit must be >= 1"):
                kernel.run((0,) * 7, limit)

    def test_records_are_born_untracked(self, showcase):
        class Big(int):
            pass

        kernel = bind(plan_for(showcase), "compiled")
        # with collection off, nothing but C can untrack a fresh tuple
        gc.disable()
        try:
            stretch, last, _ = c_run(kernel, (100, 100, 0, 0, 0, 0, 0), 3)
            tuples = [stretch.state, stretch.partials, stretch.common, *stretch.changes, last]
            assert len(stretch.changes) == 2 and not any(map(gc.is_tracked, tuples))
            # a start with an int subclass stays tracked, and with it the
            # last state, which keeps the components no update changed
            stretch, last, _ = c_run(kernel, (Big(100), 100, 0, 0, 0, 0, 0), 3)
            assert gc.is_tracked(stretch.state) and not any(map(gc.is_tracked, stretch.changes))
        finally:
            gc.enable()

    def test_rows_share_the_next_state_objects(self, showcase):
        plan = plan_for(showcase)
        kernel = bind(plan, "compiled")
        state = (100, 100, 0, 0, 0, 0, 0)
        rows, last, _ = as_rows(c_run(kernel, state, 2))
        assert rows[0][0] is state
        assert rows[1][0] == pure_step(state, plan)[0]
        more, _, _ = as_rows(c_run(kernel, last, 1))
        assert more[0][0] is last

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_matches_repeated_steps(self, seed, limit):
        rng = random.Random(seed)
        plan = plan_for(random_cao(rng, coeff_range=(1, 20)))
        state = straddling_state(rng, plan)
        kernel = bind(plan, "compiled")
        stretches = []
        if not limit:
            return
        rows, last, stop = as_rows(c_run(kernel, state, limit, stretches))
        assert (rows, last, stop) == repeated_pure_steps(plan, state, limit)
        assert stretches == expected_stretches(plan, rows, stop)
        assert rows[0][0] is state


@needs_extension
class TestBigIntegerRows:
    """The records ``PlanKernel.run`` writes in a big-integer stretch."""

    CHAIN = plan_for(build_linear_chain(2, 70))
    # 2**69 + 5 halves down the chain: 7 updates in big integers
    START = (2**69 + 5,) + (0,) * 69

    def test_records_of_exact_ints_are_born_untracked(self):
        kernel = bind(self.CHAIN, "compiled")
        stretches = []
        # with collection off, nothing but C can untrack a fresh tuple
        gc.disable()
        try:
            stretch, last, _ = c_run(kernel, self.START, 10, stretches)
            assert stretches == [(1, 7, 2)]
            tuples = [stretch.state, stretch.partials, stretch.common, *stretch.changes, last]
            assert not any(map(gc.is_tracked, tuples))
        finally:
            gc.enable()

    def test_anything_else_stays_tracked(self):
        class Big(int):
            pass

        kernel = bind(self.CHAIN, "compiled")
        gc.disable()
        try:
            # the last entity keeps its Big, the first its float, throughout
            for start in [self.START[:-1] + (Big(3),), (float(2**69),) + (0,) * 69]:
                stretch, _, _ = c_run(kernel, start, 10)
                rows, _, _ = as_rows((stretch, None, 1))
                assert rows == repeated_pure_steps(self.CHAIN, start, 10)[0]
                for t in (stretch.state, stretch.partials, stretch.common, *stretch.changes):
                    assert gc.is_tracked(t) == any(type(v) is not int for v in t)
        finally:
            gc.enable()

    def test_an_int_subclass_record_can_still_be_collected(self):
        class Big(int):
            pass

        class Marker:
            pass

        value = Big(2**69)
        stretch = c_run(bind(self.CHAIN, "compiled"), (value,) + (0,) * 69, 2)
        value.stretch = stretch  # a cycle through a record
        value.marker = Marker()
        alive = weakref.ref(value.marker)
        del value, stretch
        gc.collect()
        assert alive() is None

    def test_rejects_what_is_not_a_sequence_or_a_number(self):
        kernel = bind(self.CHAIN, "compiled")
        with pytest.raises(TypeError):
            kernel.run(5, 1)
        for bad in ([2**69], "x"):
            state = (bad,) + (0,) * 69
            with pytest.raises(TypeError):
                kernel.run(state, 1)
            with pytest.raises(TypeError):
                advance(self.CHAIN, None, state, 1)

    def test_runs_leak_nothing(self):
        # the chain from 2**599 - 1, the loop from 2**70, from its start and
        # from a start that lowers a carry on every update, and the growing
        # cycle from 2**60: a leaked entry, component or reference would
        # grow the traced size or the refcounts
        chain = plan_for(build_linear_chain(2, 600))
        loop = plan_for(parse(LOOP_TEXT, allow_cycles=True))
        grow = plan_for(parse(GROWING_CYCLE_TEXT, allow_cycles=True))
        runs = [
            (chain, (2**599 - 1,) + (0,) * 599, 1024),
            (loop, (2**70 + 1, 2**70) + (0,) * 6, 300),
            # int64 throughout
            (loop, parse(LOOP_TEXT, allow_cycles=True).start_state(), 300),
            # and common carries that are objects of other entities' partials
            (loop, parse(LOWERING_LOOP_TEXT, allow_cycles=True).start_state(), 300),
            # the int64 loop leaves mid-stretch, the last rows held as objects
            (grow, (2**60, 2**60, 0), 40),
            # a fixed point well before the limit
            (chain, (2**70,) + (0,) * 599, 1024),
        ]
        for plan, start, limit in runs:
            kernel = bind(plan, "compiled")
            kernel.run(start, limit, [])  # makes the kernel's Python ints once

            def runs():
                stretch, last, stop = advance(plan, kernel, start, limit, 7)
                assert stop in (0, 1) and stretch.k == 7

            assert_leaks_nothing(runs, (start, start[0], Stretch))
        # a fixed point held to the schedule's next change, which run()
        # records and the C enactor checks
        spec = build_linear_chain(2, 40)
        held = ParameterSchedule.from_mapping(spec, {1024: spec}, default=spec)
        start = (2**30,) + (0,) * 39
        run(spec, start, max_steps=1024, schedule=held, backend="compiled")

        def held_run():
            trace = run(spec, start, max_steps=1024, schedule=held, backend="compiled")
            assert trace.steps.stretches[0].updates == 1024

        assert_leaks_nothing(held_run, (start, start[0], Stretch), repeat=50)

    def test_enactor_checks_leak_nothing(self):
        # the C enactor of the lock-step check, on each of its paths: a
        # stretch that matches, checked by a fresh enactor each time and by
        # one enactor stretch after stretch; a mismatch; a start it hands
        # back at once; and an update past int64 it hands back mid-stretch
        loop = parse(LOOP_TEXT, allow_cycles=True)
        grow = parse(GROWING_CYCLE_TEXT, allow_cycles=True)

        def stretches(spec, state, limit, count=1):
            out = []
            for _ in range(count):
                stretch, state, _ = advance(plan_for(spec), None, state, limit)
                out.append((stretch, state))
            return out

        start, wide, near = loop.start_state(), (2**70 + 1, 2**70) + (0,) * 6, (2**60, 2**60, 0)
        stretch, last = stretches(loop, start, 300)[0]
        rows = list(stretch.rows())
        rows[-1] = (*rows[-1][:2], (1,) + rows[-1][2][1:])
        wrong = record_of(rows)
        lowering = parse(LOWERING_LOOP_TEXT, allow_cycles=True)
        cases = [
            (loop, start, (stretch, last), lambda done: done is None),
            # common carries the fold lowers, on every update
            (lowering, lowering.start_state(), stretches(lowering, lowering.start_state(), 300)[0], lambda done: done is None),
            (loop, start, (wrong, last), lambda done: done[0] == 299),
            (loop, wide, stretches(loop, wide, 50)[0], lambda done: done == 0),
            (grow, near, stretches(grow, near, 40)[0], lambda done: type(done) is int and done > 0),
        ]
        for spec, state, job, expected in cases:

            def check():
                fast = _stepcore.Enactor(resolve(spec), state)
                assert expected(fast.send(job))
                assert fast.state is state or fast.state in [r[0] for r in job[0].rows()]

            assert_leaks_nothing(check, (state, state[0], job[0], job[1]))

        fast, jobs = _stepcore.Enactor(resolve(loop), start), iter(stretches(loop, start, 5, 200))

        def check_next():
            assert fast.send(next(jobs)) is None

        assert_leaks_nothing(check_next, (start, last))
        assert fast.state == stretches(loop, start, 1000)[0][1]


def assert_leaks_nothing(action, held, repeat=200):
    """Call ``action`` ``repeat`` times: the traced size must grow by less
    than 4 KB, and the refcounts of the objects ``held`` must not change."""
    before = list(map(sys.getrefcount, held))
    gc.collect()
    tracemalloc.start()
    try:
        size, _ = tracemalloc.get_traced_memory()
        for _ in range(repeat):
            action()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - size
    finally:
        tracemalloc.stop()
    assert grown < 4096
    assert list(map(sys.getrefcount, held)) == before


@needs_extension
class TestRecordMemory:
    """What a kept trace costs: C's records against the pure backend's."""

    def test_a_trace_takes_no_more_memory_than_the_pure_backends(self):
        # 20,000 updates of the loop that lowers a carry on every update
        loop = parse(LOWERING_LOOP_TEXT, allow_cycles=True)

        def traced(backend):
            run(loop, max_steps=10, engine="matrix", backend=backend)  # warm the caches
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                trace = run(loop, max_steps=20_000, engine="matrix", backend=backend)
                assert trace.step_count == 20_000
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        assert traced("compiled") <= traced("pure")


@needs_extension
class TestWrittenRecords:
    """The stretch records ``PlanKernel.run`` writes in C: the first
    update's rows, then each later update's changes. The full rows of
    ``repeated_pure_steps``, written as a record by ``record_of``, are the
    oracle."""

    SHOWCASE = (100, 100, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("start", ["int64", "big"])
    def test_matches_the_recording(self, showcase, start):
        plan = plan_for(showcase)
        state = self.SHOWCASE if start == "int64" else (2**70, 100, 0, 0, 0, 0, 0)
        got, partials, common, changes, last, stop = bind(plan, "compiled").run(state, 10)
        rows, want_last, want_stop = repeated_pure_steps(plan, state, 10)
        want = record_of(rows)
        assert got is state and (partials, common) == (want.partials, want.common)
        assert type(changes) is list and [tuple(sorted_pairs(c)) for c in changes] == want.changes
        assert (last, stop) == (want_last, want_stop)

    def test_a_finalizer_calling_it_mid_call(self):
        # under Python 3.11 and older a collection may run inside the call's
        # allocations, and with it a finalizer calling run() again
        loop = parse(LOOP_TEXT, allow_cycles=True)
        plan = plan_for(loop)
        kernel, start = bind(plan, "compiled"), loop.start_state()

        class Trigger:
            def __del__(self):
                inner.append(c_run(kernel, start, 1))

        inner = []
        threshold = gc.get_threshold()
        gc.collect()
        try:
            for _ in range(3):
                trigger = Trigger()
                trigger.cycle = trigger
            del trigger
            gc.set_threshold(1)
            got = c_run(kernel, start, 50)
        finally:
            gc.set_threshold(*threshold)
        gc.collect()
        assert as_rows(got) == repeated_pure_steps(plan, start, 50)
        assert len(inner) == 3 and all(as_rows(i) == repeated_pure_steps(plan, start, 1) for i in inner)

    def test_bad_arguments_are_refused(self, showcase):
        kernel = bind(plan_for(showcase), "compiled")
        for bad_limit in (1.0, "2", None):
            with pytest.raises(TypeError):
                kernel.run(self.SHOWCASE, bad_limit)
        with pytest.raises(TypeError):
            kernel.run(self.SHOWCASE)
        with pytest.raises(ValueError):
            kernel.run(self.SHOWCASE, 0)

    def test_leaks_no_references(self, showcase):
        kernel = bind(plan_for(showcase), "compiled")
        state = (2**40, 2**40) + self.SHOWCASE[2:]
        held = (state, state[0])
        kernel.run(state, 3)
        gc.collect()
        before = list(map(sys.getrefcount, held))
        for _ in range(10_000):
            kernel.run(state, 3)
            with pytest.raises(ValueError):
                kernel.run(state, 0)
        gc.collect()
        assert list(map(sys.getrefcount, held)) == before

    @pytest.mark.parametrize("start", ["int64", "big"])
    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_a_stretch_ends_at_its_fixed_point(self, start, backend):
        # the chain from 2**10 settles after 10 updates, from 2**70 after 70:
        # the stretch ends there, below its limit; run() holds a fixed point
        # under a schedule (test_simulate.py)
        chain = plan_for(build_linear_chain(2, 40 if start == "int64" else 80))
        state = ((2**10 if start == "int64" else 2**70),) + (0,) * (chain.m - 1)
        free, last, stop = advance(chain, bind(chain, backend), state, 100, 5)
        n = free.updates
        assert stop == 0 and free.k == 5 and n == (11 if start == "int64" else 71)
        *_, (settled, _, common) = free.rows()
        assert last == settled and not any(common)


GROWING_PLAN = plan_for(parse(GROWING_CYCLE_TEXT, allow_cycles=True))
LOOP_PLAN = plan_for(parse(LOOP_TEXT, allow_cycles=True))


class TestAdvance:
    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_extension)])
    def test_a_limit_below_1_is_refused(self, showcase, backend):
        plan, state = plan_for(showcase), (100, 100, 0, 0, 0, 0, 0)
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit must be >= 1"):
                advance(plan, bind(plan, backend), state, limit)

    def test_fixed_point_and_limit(self, showcase):
        plan = plan_for(showcase)
        rows, last, stop = as_rows(advance(plan, None, (100, 100, 0, 0, 0, 0, 0), 10))
        assert stop == 0 and len(rows) == 4 and last == rows[-1][0]
        rows, last, stop = as_rows(advance(plan, None, (100, 100, 0, 0, 0, 0, 0), 2))
        assert stop == 1 and len(rows) == 2 and last == (0, 20, 2, 0, 4, 6, 0)

    @needs_extension
    def test_steps_beyond_int64_and_back(self):
        # 2**63 + 2 leaves int64; its carry 2**62 + 1 fits again
        plan = plan_for(build_linear_chain(2, 3))
        state = (2**63 + 2, 0, 0)
        rows, last, stop = as_rows(advance(plan, bind(plan, "compiled"), state, 10))
        assert (rows, last, stop) == as_rows(advance(plan, None, state, 10))
        assert [r[0] for r in rows] == [state, (0, 2**62 + 1, 0), (0, 1, 2**61)]
        assert stop == 0 and last == (0, 1, 2**61)

    @needs_extension
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.booleans(), st.booleans())
    def test_compiled_matches_pure(self, seed, limit, cyclic, idle):
        # idle: components below 4, so most operators do not fire
        rng = random.Random(seed)
        plan = GROWING_PLAN if cyclic else plan_for(random_cao(rng, coeff_range=(1, 20)))
        if idle:
            state = tuple(rng.randrange(4) for _ in plan.n)
        else:
            state = straddling_state(rng, plan)
        want = repeated_pure_steps(plan, state, limit)
        assert as_rows(advance(plan, bind(plan, "compiled"), state, limit)) == want
        assert as_rows(advance(plan, None, state, limit)) == want

    @needs_extension
    def test_credit_overflow_in_every_update_still_makes_progress(self, caplog):
        # entity 0 keeps its value and fires on every update; its two credits
        # to entity 1 cancel, but each alone leaves int64, so every update is
        # a big-integer stretch of its own, and every state fits in int64
        plan = StepPlan(n=(2, 0), groups=(), edges=((0, 0, 2), (0, 1, 2**62), (0, 1, -(2**62))))
        kernel = bind(plan, "compiled")
        stretches = []
        assert as_rows(c_run(kernel, (4, 0), 1, stretches)) == ([((4, 0), (2, 0), (2, 0))], (4, 0), 1)
        assert stretches == [(0, 1, 1)]
        with caplog.at_level(logging.DEBUG, logger="caosim"):
            rows, last, stop = as_rows(advance(plan, kernel, (4, 0), 50))
        assert (rows, last, stop) == repeated_pure_steps(plan, (4, 0), 50)
        assert len(rows) == 50 and last == (4, 0) and stop == 1
        assert logged_stretches(caplog.records, 2) == [(0, 1, 2)] * 49 + [(0, 1, 1)]

    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_extension)])
    @pytest.mark.parametrize(
        "plan, state",
        [
            (StepPlan(n=(2, 0), groups=(), edges=((0, 1, -1),)), (4, 1)),
            # entity 1 goes negative, then fires with a negative carry
            (StepPlan(n=(2, 2), groups=(), edges=((0, 1, -3),)), (8, 0)),
        ],
    )
    def test_negative_coefficients(self, backend, plan, state):
        got = as_rows(advance(plan, bind(plan, backend), state, 10))
        assert got == repeated_pure_steps(plan, state, 10)
        assert got[2] == 0 and any(min(row[0]) < 0 for row in got[0])

    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_extension)])
    def test_wide_chain_rows_and_shared_states(self, backend):
        plan = plan_for(build_linear_chain(2, 600))
        state = (random.Random(600).getrandbits(599),) + (0,) * 599
        kernel = bind(plan, backend)
        rows, last, stop = as_rows(advance(plan, kernel, state, 1024))
        assert (rows, last, stop) == repeated_pure_steps(plan, state, 1024)
        assert stop == 0 and len(rows) == 599
        assert rows[0][0] is state
        head, mid, _ = as_rows(advance(plan, kernel, state, 300))
        tail, end, _ = as_rows(advance(plan, kernel, mid, 1024, 300), 300)
        assert tail[0][0] is mid
        assert head + tail == rows and end == last

    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_extension)])
    @pytest.mark.parametrize("state", [(9, 0), (9, 0, 0, 5)])
    def test_refuses_a_state_of_the_wrong_length(self, backend, state):
        plan = plan_for(build_linear_chain(2, 3))
        message = f"state has {len(state)} components, plan has 3"
        with pytest.raises(ValueError, match=message):
            step(state, plan, backend=backend)
        with pytest.raises(ValueError, match=message):
            advance(plan, bind(plan, backend), state, 5)

    @needs_extension
    def test_a_stretch_goes_back_into_int64_once_the_state_fits(self, caplog):
        # the loop from k = 2**63 + 3 leaves int64 and fits again every few
        # updates: the stretch alternates between int64 and big integers,
        # and goes back to int64 only from a state that int64 holds
        loop = parse(LOOP_TEXT, allow_cycles=True)
        plan = plan_for(loop)
        state = (500000001, 500000000) + (0,) * 5 + (2**63 + 3,)
        with caplog.at_level(logging.DEBUG, logger="caosim"):
            got = as_rows(advance(plan, bind(plan, "compiled"), state, 300))
        assert got == repeated_pure_steps(plan, state, 300)
        logged = logged_stretches(caplog.records, plan.m)
        assert logged == expected_stretches(plan, got[0], got[2])
        assert len(logged) > 20 and {end for _, _, end in logged[:-1]} == {2}
        # the stretch starts in big integers, with k outside int64
        assert logged[0][0] == 1 and logged[0][1] >= 1

    @needs_extension
    def test_each_big_integer_stretch_is_logged(self, caplog):
        # 2**69 halves on each update down the chain: after 7 updates in
        # big integers the carried value 2**62 fits in int64 again
        spec = build_linear_chain(2, 70)
        with caplog.at_level(logging.DEBUG, logger="caosim"):
            trace = run(spec, (2**69,) + (0,) * 69, engine="matrix", backend="compiled")
        assert trace.final_state == (0,) * 69 + (1,)
        [record] = [r for r in caplog.records if r.name == "caosim"]
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == (
            "left int64 with 1 of 70 components outside it; "
            "7 updates in big integers, then back into int64"
        )

    @needs_extension
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 1023, 1024]),
        st.sampled_from(["acyclic", "negative", "growing", "loop"]),
    )
    def test_compiled_advance_matches_pure_advance_across_2_63(self, seed, limit, kind):
        rng = random.Random(seed)
        if kind == "growing":
            plan = GROWING_PLAN
        elif kind == "loop":
            plan = LOOP_PLAN
        else:
            plan = plan_for(random_cao(rng, coeff_range=(1, 20)))
        if kind == "negative":
            flip = lambda c: -c if rng.random() < 0.3 else c  # noqa: E731
            plan = StepPlan(plan.n, plan.groups, tuple((a, b, flip(c)) for a, b, c in plan.edges))
        # each component small, or just below or just above 2**63
        state = tuple(
            rng.choice([rng.randrange(1000), 2**63 - rng.randrange(1, 64), 2**63 + rng.randrange(64)])
            for _ in plan.n
        )
        kernel = bind(plan, "compiled")
        got = as_rows(advance(plan, kernel, state, limit))
        assert got == as_rows(advance(plan, None, state, limit))
        stretches = []
        assert as_rows(c_run(kernel, state, limit, stretches)) == got
        rows, _, stop = got
        assert stretches == expected_stretches(plan, rows, stop)


LOWERING_PLAN = plan_for(parse(LOWERING_LOOP_TEXT, allow_cycles=True))


class TestAdvanceWritesTheRecord:
    """``advance`` returns its stretch as a record written by the kernel
    itself; the full-row recording it replaced, ``recorded`` over the
    rows of ``repeated_pure_steps``, is the oracle for the entries the
    record reads back as, and ``record_of`` over those rows for the record
    itself: only changed cells, each once."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["pure", "compiled"]),
        st.sampled_from(["loop", "lowering", "growing", "acyclic"]),
        st.sampled_from(["below", "above", "straddling"]),
        st.integers(0, 5000),
        st.integers(1, 80),
    )
    def test_records_are_the_recordings(self, seed, backend, kind, side, k, limit):
        if backend == "compiled" and not COMPILED_AVAILABLE:
            return  # the pure backend's examples still run
        rng = random.Random(seed)
        plan = {"loop": LOOP_PLAN, "lowering": LOWERING_PLAN, "growing": GROWING_PLAN}.get(kind)
        if plan is None:
            plan = plan_for(random_cao(rng, coeff_range=(1, 20)))
        if kind in ("loop", "lowering") and side == "below":
            # from the CAO's own start: the lowering one lowers i's carry on every update
            spec = parse(LOWERING_LOOP_TEXT if kind == "lowering" else LOOP_TEXT, allow_cycles=True)
            state = spec.start_state()
        else:
            low, high = {"below": (0, 2**40), "above": (2**63, 2**70), "straddling": (2**62, 2**64)}[side]
            state = tuple(rng.randrange(low, high) for _ in plan.n)
        stretch, last, stop = advance(plan, bind(plan, backend), state, limit, k)
        rows, want_last, want_stop = repeated_pure_steps(plan, state, limit)
        assert (last, stop) == (want_last, want_stop)
        assert type(stretch) is Stretch and stretch.k == k and stretch.state is state
        want = record_of(rows, k)
        assert stretch[:4] == want[:4]
        assert [tuple(sorted_pairs(c)) for c in stretch.changes] == want.changes
        # the entries the record reads back as
        assert [TraceStep(i, *row) for i, row in enumerate(stretch.rows(), k)] == recorded(rows, k)


@pytest.mark.skipif(kernel_compiler() is None, reason="no C compiler on PATH")
def test_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        kernel_compile_command(tmp_path / "_stepcore.so", "-Wall", "-Wextra", "-Werror"),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


# the kernel's sections, each headed by a line /* ======== name ======== */
KERNEL_SECTION = re.compile(r"^/\* =+ (.+?) =+ \*/$", re.M)
MATRIX_SECTION, ENACTOR_SECTION = "The matrix route: PlanKernel", "The operational route: Enactor"


def kernel_sections() -> dict[str, str]:
    """``_stepcore.c``'s code by section, with comments and string literals
    blanked out."""
    parts = KERNEL_SECTION.split(KERNEL_SOURCE.read_text())
    return {
        name: re.sub(r'/\*.*?\*/|"(?:\\.|[^"\\\n])*"', " ", body, flags=re.S)
        for name, body in zip(parts[1::2], parts[2::2])
    }


def defined_names(code: str) -> set[str]:
    """The static functions, typedefs and file-scope statics ``code`` defines."""
    return {
        *re.findall(r"^static\b[^;{=()]*?\b(\w+)\s*\(", code, re.M),
        *re.findall(r"^\}\s*(\w+)\s*;", code, re.M),
        *re.findall(r"^static\b[^;(=]*?\b(\w+)\s*(?:\[\])?\s*[=;]", code, re.M),
    }


def test_the_two_routes_in_c_use_nothing_of_each_other():
    # The C analogue of the import check in test_operational.py: the
    # enactor's section names nothing the PlanKernel section defines (no
    # function, type or static), and the reverse.
    sections = kernel_sections()
    assert list(sections) == ["Trace records", MATRIX_SECTION, ENACTOR_SECTION, "The module"]
    matrix, enactor = sections[MATRIX_SECTION], sections[ENACTOR_SECTION]
    # what both use: how a record numbers its cells, which the PlanKernel
    # writes and the Enactor reads
    assert defined_names(sections["Trace records"]) == {"Row"}
    for name in ("ROW_STATE", "ROW_PARTIALS", "ROW_COMMON", "ROWS"):
        assert name in matrix and name in enactor
    assert {"run_int64", "update", "plan_int", "PlanKernel", "Frontier", "Record", "PlanKernelType"} <= defined_names(
        matrix
    )
    assert {"enactor_update", "enactor_pair", "enactor_lookahead", "Enactor", "EnactorType"} <= defined_names(enactor)
    assert not defined_names(matrix) & set(re.findall(r"\w+", enactor))
    assert not defined_names(enactor) & set(re.findall(r"\w+", matrix))


CATCH_A_DIVERGENCE = """\
import sys
import caosim
from caosim import EngineDivergenceError, parse, run
from caosim.kernel import _stepcore

assert caosim.__file__.startswith(sys.argv[1]) and _stepcore.__file__.startswith(sys.argv[1])
try:
    run(parse(sys.stdin.read(), allow_cycles=True), max_steps=3000, backend="compiled")
except EngineDivergenceError as e:
    print(e.divergence.k)
else:
    sys.exit("the mutant went unnoticed")
"""

# A fault injected into the matrix route's record of update 1: FAULT below,
# a function of the record, changes it in place. The check must raise;
# where it does not, prints the first step at which the trace is not the
# pure backend's
CATCH_A_WRONG_RECORD = """\
import sys
import caosim
from caosim import EngineDivergenceError, kernel, parse, run
from caosim.kernel import _stepcore

assert caosim.__file__.startswith(sys.argv[1]) and _stepcore.__file__.startswith(sys.argv[1])
real = kernel.advance
FAULT

def wrong(plan, compiled, state, limit, k=0):
    stretch, last, stop = real(plan, compiled, state, limit, k)
    if k == 0 and stretch.updates > 1:
        fault(stretch)
    return stretch, last, stop

kernel.advance = wrong
spec = parse(sys.stdin.read(), allow_cycles=True)
try:
    trace = run(spec, max_steps=3000, backend="compiled")
except EngineDivergenceError:
    sys.exit("the mutant went unnoticed")
kernel.advance = real
pure = run(spec, max_steps=3000, engine="matrix", backend="pure")
print(next(i for i, (a, b) in enumerate(zip(trace.steps, pure.steps)) if a != b))
"""

# The loop's first partial carry is 250000000 and 0 at update 1: a 1 there
# is a cached small int where another is right
CATCH_A_SMALL_INT_SLIP = CATCH_A_WRONG_RECORD.replace(
    "FAULT",
    """
def fault(stretch):
    change = list(stretch.changes[0])
    at = next(i for i in range(0, len(change), 2) if change[i] == 8)  # i's partial carry
    assert change[at + 1] == 0
    change[at + 1] = 1
    stretch.changes[0] = tuple(change)
""",
)

# Update 1's record without its first change, a component update 0 moved
CATCH_A_MISSING_CHANGE = CATCH_A_WRONG_RECORD.replace(
    "FAULT",
    """
def fault(stretch):
    assert stretch.changes[0][0] < 8
    stretch.changes[0] = stretch.changes[0][2:]
""",
)


@dataclass(frozen=True)
class Mutant:
    """A change of one line of ``_stepcore.c``: run on the built mutant with
    ``text`` as its input, the script ``catch`` must print ``caught``."""

    name: str
    original: str
    mutant: str
    catch: str = CATCH_A_DIVERGENCE
    text: str = LOOP_TEXT
    caught: str = "0\n"  # the first update credits every operator's outputs


# The committed mutants of the C kernel, by section. One credit dropped, in
# the int64 loop's update and in the enactor's: each route's mutant must be
# caught by the other. The int64 loop's record broken three ways: a change
# of the state omitted, a lowered common carry taken from the wrong member,
# and the first update's partials taken from its common carries; the enactor
# must catch each on the first update. The enactor's fold taking its first
# input's carry, not the least, which the int64 loop must catch on the
# first update of a start that lowers a carry; its identity test taking any
# cached small int for any small value, which lets a wrong small carry
# through; and its check of a record's changes skipping their count, which
# lets a record that omits a change through.
KERNEL_MUTANTS = {
    MATRIX_SECTION: [
        Mutant(
            "a dropped credit",
            "    for (e = 0; e < self->nedges; e++) {\n",
            "    for (e = 1; e < self->nedges; e++) {\n",
        ),
        Mutant(
            "a change of the state omitted",
            "            if (nxt[i] != s[i]) {\n",
            "            if (i && nxt[i] != s[i]) {\n",
        ),
        Mutant(
            "a lowered carry from the first member",
            "                Py_ssize_t at = pc[i] == p[i] ? i : low[self->group_of[i]];\n",
            "                Py_ssize_t at = pc[i] == p[i] ? i : self->grp_members[self->grp_off[self->group_of[i]]];\n",
            # the loop from its own start never lowers a carry
            text=LOWERING_LOOP_TEXT,
        ),
        Mutant(
            "the first update's partials taken from its common carries",
            "        if (!(r->first[0] = copy_tuple(p, m)))\n",
            "        if (!(r->first[0] = copy_tuple(pc, m)))\n",
            # equal wherever no carry is lowered
            text=LOWERING_LOOP_TEXT,
        ),
    ],
    ENACTOR_SECTION: [
        Mutant(
            "a dropped credit",
            "        for (j = self->out_off[o]; j < self->out_off[o + 1]; j++)\n",
            "        for (j = self->out_off[o] + 1; j < self->out_off[o + 1]; j++)\n",
        ),
        Mutant(
            "the common carry from the first input",
            "            if (j == lo || q < c)\n",
            "            if (j == lo)\n",
            # the loop from its own start never lowers a carry
            text=LOWERING_LOOP_TEXT,
        ),
        Mutant(
            "any cached small int taken for any small value",
            "    if ((uint64_t)value <= ENACTOR_SMALL && v == enactor_small[value])\n",
            "    if ((uint64_t)value <= ENACTOR_SMALL && PyLong_CheckExact(v)"
            " && PyLong_AsUnsignedLongMask(v) <= ENACTOR_SMALL"
            " && v == enactor_small[PyLong_AsUnsignedLongMask(v)])\n",
            catch=CATCH_A_SMALL_INT_SLIP,
            caught="1\n",
        ),
        Mutant(
            "the count of a record's changes unchecked",
            "    return moved == self->nflagged;\n",
            "    return 1;\n",
            catch=CATCH_A_MISSING_CHANGE,
            caught="1\n",
        ),
    ],
}


@pytest.mark.skipif(kernel_compiler() is None, reason="no C compiler on PATH")
@pytest.mark.parametrize(
    "section, mutant",
    [(section, mutant) for section, mutants in KERNEL_MUTANTS.items() for mutant in mutants],
    ids=lambda v: v.name if isinstance(v, Mutant) else v,
)
def test_a_c_mutant_is_caught(tmp_path, section, mutant):
    source = KERNEL_SOURCE.read_text()
    assert source.count(mutant.original) == 1 and mutant.original in kernel_sections()[section]
    package = tmp_path / "caosim"
    shutil.copytree(
        Path(caosim.__file__).parent, package, ignore=shutil.ignore_patterns("*.so", "*.c", "__pycache__")
    )
    (tmp_path / "_stepcore.c").write_text(source.replace(mutant.original, mutant.mutant))
    built = subprocess.run(
        kernel_compile_command(
            package / ("_stepcore" + sysconfig.get_config_var("EXT_SUFFIX")),
            source=tmp_path / "_stepcore.c",
        ),
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    done = subprocess.run(
        [sys.executable, "-c", mutant.catch, str(tmp_path)],
        input=mutant.text,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == mutant.caught


def test_unknown_backend_rejected(showcase):
    with pytest.raises(ValueError):
        step((0,) * 7, plan_for(showcase), backend="turbo")
    with pytest.raises(ValueError):
        bind(plan_for(showcase), "turbo")


def test_pure_env_var_selects_pure_backend():
    code = "import caosim.kernel as k; print(k.DEFAULT_BACKEND)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "CAOSIM_PURE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "pure"
