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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

import caosim
from caosim import build_linear_chain, parse, random_cao, random_state, resolve, run
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
from caosim.simulate import TraceStep
from conftest import (
    GROWING_CYCLE_TEXT,
    KERNEL_SOURCE,
    LOOP_TEXT,
    LOWERING_LOOP_TEXT,
    kernel_compile_command,
    kernel_compiler,
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


def compiled_update(plan, state):
    """One update by ``PlanKernel.run(state, 1)``, as ``(next, partials,
    common)``, and the big-integer stretches the run reported."""
    stretches = []
    rows, last, _ = bind(plan, "compiled").run(state, 1, stretches)
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
            assert advance(plan, bind(plan, "compiled"), state, 10) == advance(plan, None, state, 10)
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
        assert kernel.run((5, 0), 1) == ([((5, 0), (2, 0), (2, 0))], (1, 2), 1)
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

    def test_zero_limit_takes_no_rows(self, showcase):
        state = (100, 100, 0, 0, 0, 0, 0)
        rows, last, stop = bind(plan_for(showcase), "compiled").run(state, 0)
        assert rows == [] and last is state and stop == 1

    def test_fixed_point_on_the_first_row(self):
        kernel = bind(plan_for(build_linear_chain(2, 2)), "compiled")
        assert kernel.run((1, 5), 10) == ([((1, 5), (0, 0), (0, 0))], (1, 5), 0)

    def test_stops_at_the_limit(self, showcase):
        rows, last, stop = bind(plan_for(showcase), "compiled").run((100, 100, 0, 0, 0, 0, 0), 2)
        assert stop == 1 and len(rows) == 2
        assert last == (0, 20, 2, 0, 4, 6, 0)

    def test_a_run_goes_on_past_int64(self):
        kernel = bind(self.GROW, "compiled")
        state, stretches = (2**60,), []
        rows, last, stop = kernel.run(state, 100, stretches)
        assert (rows, last, stop) == repeated_pure_steps(self.GROW, state, 100)
        assert rows[0][0] is state and all(a[0] is not b[0] for a, b in zip(rows, rows[1:]))
        # five updates in int64, then the sixth's credit leaves it for good
        assert stretches == [(0, 95, 1)] == expected_stretches(self.GROW, rows, stop)
        more = []
        assert kernel.run(last, 1, more) == repeated_pure_steps(self.GROW, last, 1)
        assert more == [(1, 1, 1)]

    def test_negative_coefficient_goes_on_below_zero(self):
        kernel = _stepcore.PlanKernel((2, 0), (), ((0, 1, -1),))
        stretches = []
        rows, last, stop = kernel.run((4, 1), 10, stretches)
        assert rows == [((4, 1), (2, 0), (2, 0)), ((0, -1), (0, 0), (0, 0))]
        assert last == (0, -1) and last is rows[-1][0] and stop == 0
        assert stretches == [(1, 1, 0)]

    def test_rejects_a_wrong_length_state_and_a_negative_limit(self, showcase):
        kernel = bind(plan_for(showcase), "compiled")
        with pytest.raises(ValueError):
            kernel.run((1, 2), 5)
        with pytest.raises(ValueError):
            kernel.run((0,) * 7, -1)

    def test_rows_are_born_untracked(self, showcase):
        class Big(int):
            pass

        kernel = bind(plan_for(showcase), "compiled")
        # with collection off, nothing but C can untrack a fresh tuple
        gc.disable()
        try:
            rows, _, _ = kernel.run((100, 100, 0, 0, 0, 0, 0), 3)
            assert len(rows) == 3 and not any(map(gc.is_tracked, rows))
            # a row holding a start with an int subclass stays tracked
            rows, _, _ = kernel.run((Big(100), 100, 0, 0, 0, 0, 0), 3)
            assert [gc.is_tracked(row) for row in rows] == [True, False, False]
        finally:
            gc.enable()

    def test_rows_share_the_next_state_objects(self, showcase):
        plan = plan_for(showcase)
        kernel = bind(plan, "compiled")
        state = (100, 100, 0, 0, 0, 0, 0)
        rows, last, _ = kernel.run(state, 2)
        assert rows[0][0] is state
        assert rows[1][0] == pure_step(state, plan)[0]
        more, _, _ = kernel.run(last, 1)
        assert more[0][0] is last

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_matches_repeated_steps(self, seed, limit):
        rng = random.Random(seed)
        plan = plan_for(random_cao(rng, coeff_range=(1, 20)))
        state = straddling_state(rng, plan)
        kernel = bind(plan, "compiled")
        stretches = []
        rows, last, stop = kernel.run(state, limit, stretches)
        assert (rows, last, stop) == repeated_pure_steps(plan, state, limit)
        assert stretches == expected_stretches(plan, rows, stop)
        if rows:
            assert rows[0][0] is state
        assert all(a[2] is a[1] for a in rows if a[1] == a[2])


@needs_extension
class TestBigIntegerRows:
    """The rows ``PlanKernel.run`` copies out of a big-integer stretch."""

    CHAIN = plan_for(build_linear_chain(2, 70))
    # 2**69 + 5 halves down the chain: 7 updates in big integers
    START = (2**69 + 5,) + (0,) * 69

    def test_rows_of_exact_ints_are_born_untracked(self):
        kernel = bind(self.CHAIN, "compiled")
        stretches = []
        # with collection off, nothing but C can untrack a fresh tuple
        gc.disable()
        try:
            rows, last, _ = kernel.run(self.START, 10, stretches)
            assert stretches == [(1, 7, 2)]
            tuples = [t for row in rows for t in row]
            assert not any(map(gc.is_tracked, rows + tuples + [last]))
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
                rows, _, _ = kernel.run(start, 10)
                assert rows == repeated_pure_steps(self.CHAIN, start, 10)[0]
                for row in rows:
                    held = [any(type(v) is not int for v in t) for t in row]
                    assert [gc.is_tracked(t) for t in row] == held
                    assert gc.is_tracked(row) == any(held)
        finally:
            gc.enable()

    def test_an_int_subclass_row_can_still_be_collected(self):
        class Big(int):
            pass

        class Marker:
            pass

        value = Big(2**69)
        rows, _, _ = bind(self.CHAIN, "compiled").run((value,) + (0,) * 69, 2)
        value.rows = rows  # a cycle through a row
        value.marker = Marker()
        alive = weakref.ref(value.marker)
        del value, rows
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
        # the chain from 2**599 - 1, the loop from 2**70 and from its start,
        # and the growing cycle from 2**60: a leaked row, component or
        # reference would grow the traced size or the refcounts
        chain = plan_for(build_linear_chain(2, 600))
        loop = plan_for(parse(LOOP_TEXT, allow_cycles=True))
        grow = plan_for(parse(GROWING_CYCLE_TEXT, allow_cycles=True))
        runs = [
            (bind(chain, "compiled"), (2**599 - 1,) + (0,) * 599, 1024),
            (bind(loop, "compiled"), (2**70 + 1, 2**70) + (0,) * 6, 300),
            # int64 throughout, every row sharing objects with the last
            (bind(loop, "compiled"), parse(LOOP_TEXT, allow_cycles=True).start_state(), 300),
            # the int64 loop leaves mid-stretch, holding the last partials
            (bind(grow, "compiled"), (2**60, 2**60, 0), 40),
        ]
        for kernel, start, limit in runs:
            kernel.run(start, limit, [])  # makes the kernel's Python ints once

            def runs():
                rows, last, stop = kernel.run(start, limit, [])
                assert stop in (0, 1)

            assert_leaks_nothing(runs, (start, start[0]))

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
                rows, state, _ = advance(plan_for(spec), None, state, limit)
                out.append((rows, state))
            return out

        start, wide, near = loop.start_state(), (2**70 + 1, 2**70) + (0,) * 6, (2**60, 2**60, 0)
        rows, last = stretches(loop, start, 300)[0]
        wrong = rows[:-1] + [(*rows[-1][:2], (1,) + rows[-1][2][1:])]
        cases = [
            (loop, start, (rows, last), lambda done: done is None),
            (loop, start, (wrong, last), lambda done: done[0] == 299),
            (loop, wide, stretches(loop, wide, 50)[0], lambda done: done == 0),
            (grow, near, stretches(grow, near, 40)[0], lambda done: type(done) is int and done > 0),
        ]
        for spec, state, job, expected in cases:

            def check():
                fast = _stepcore.Enactor(resolve(spec), state)
                assert expected(fast.send(job))
                assert fast.state is state or fast.state in [row[0] for row in job[0]]

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


def int_objects(trace) -> int:
    """How many distinct int objects a trace's entries hold."""
    return len({id(v) for entry in trace.steps for t in (entry.state, entry.partials, entry.common) for v in t})


@needs_extension
class TestSharedRows:
    """The one sharing rule of the rows ``PlanKernel.run``'s int64 loop
    records: a next-state item equal to the previous state's is that object,
    a partial carry equal to the previous update's is its object, and each
    common carry is the partials tuple's object of its value. The pure
    backend's rows, which share by ``_frontier``'s lists, bound how many
    objects a trace may hold."""

    @staticmethod
    def int64_runs(fuzz_corpus):
        """(spec, start, max_steps) from int64 starts: the loop from its own
        start and from one that lowers a carry on every update, and the
        acyclic fuzz corpus."""
        for text in (LOOP_TEXT, LOWERING_LOOP_TEXT):
            loop = parse(text, allow_cycles=True)
            yield loop, loop.start_state(), 3000
        for spec, state in fuzz_corpus:
            yield spec, state, 100

    def test_rows_share_by_the_one_rule(self, fuzz_corpus):
        lowered = 0
        for spec, start, max_steps in self.int64_runs(fuzz_corpus):
            plan = plan_for(spec)
            _, group_of = plan._fanout
            # with collection off, nothing but C can untrack a fresh tuple
            gc.disable()
            try:
                trace = run(spec, start, max_steps=max_steps, engine="matrix", backend="compiled")
            finally:
                gc.enable()
            tuples = [t for entry in trace.steps for t in (entry.state, entry.partials, entry.common)]
            assert all(type(v) is int for t in tuples for v in t)
            assert not any(map(gc.is_tracked, tuples + list(trace.steps)))
            for entry in trace.steps:
                for i, c in enumerate(entry.common):
                    members = (i,) if group_of[i] is None else plan.groups[group_of[i]]
                    assert any(c is entry.partials[x] for x in members)
                lowered += entry.common is not entry.partials
            for before, after in zip(trace.steps, trace.steps[1:]):
                assert all(b is a for a, b in zip(before.state, after.state) if a == b)
            pure = run(spec, start, max_steps=max_steps, engine="matrix", backend="pure")
            assert trace == pure
            assert int_objects(trace) <= int_objects(pure)
        assert lowered > 3001 + 1000  # every row of the lowering loop, and the corpus's

    def test_partials_equal_to_the_last_updates_are_its_objects(self, fuzz_corpus):
        kept = 0
        for spec, start, limit in self.int64_runs(fuzz_corpus):
            rows, _, _ = bind(plan_for(spec), "compiled").run(start, limit)
            for (_, before, _), (_, after, _) in zip(rows, rows[1:]):
                assert all(b is a for a, b in zip(before, after) if a == b)
                kept += sum(a == b > 256 for a, b in zip(before, after))
        assert kept > 500  # partials that no small-int cache could share

    def test_an_int_subclass_in_the_start_stays_in_row_0(self):
        class Big(int):
            pass

        loop = parse(LOWERING_LOOP_TEXT, allow_cycles=True)
        # every component a Big; those that keep their value on the first
        # update must still be fresh ints in the next row
        start = tuple(map(Big, loop.start_state()))
        trace = run(loop, start, max_steps=50, engine="matrix", backend="compiled")
        assert trace.steps[0].state is start
        later = [v for entry in trace.steps[1:] for t in (entry.state, entry.partials, entry.common) for v in t]
        assert all(type(v) is int for v in later)
        assert trace == run(loop, start, max_steps=50, engine="matrix", backend="pure")

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
class TestEntries:
    """``_stepcore.entries``, which builds ``run``'s trace entries in C; the
    list comprehension the pure backend records with is its oracle."""

    ROWS = [((4, 1), (2, 0), (2, 0)), ((0, 3), (0, 1), (0, 1)), ((2**70, 0), (2**69, 0), (0, 0))]

    @staticmethod
    def oracle(k, rows):
        return [TraceStep(i, s, p, pc) for i, (s, p, pc) in enumerate(rows, k)]

    @staticmethod
    def untracked(rows):
        """The rows with each item a fresh tuple, untracked as C untracks
        its rows: CPython untracks a tuple of exact ints at the first
        collection that walks it."""
        out = [tuple(tuple(t) for t in row) for row in rows]
        gc.collect()
        assert not any(gc.is_tracked(t) for row in out for t in row)
        return out

    @pytest.mark.parametrize("k", [0, 7, 300])
    def test_matches_the_comprehension(self, k):
        rows = self.untracked(self.ROWS)
        got = _stepcore.entries(TraceStep, k, rows)
        assert type(got) is list and got == self.oracle(k, rows)
        assert {type(e) for e in got} == {TraceStep}
        assert [type(e.k) for e in got] == [int] * 3
        assert all(e.state is row[0] and e.common is row[2] for e, row in zip(got, rows))
        assert _stepcore.entries(TraceStep, k, ()) == []
        # any sequence of rows will do, the same row more than once too
        assert _stepcore.entries(TraceStep, k, (rows[0],) * 2) == self.oracle(k, [rows[0]] * 2)

    def test_untracked_only_over_untracked_exact_tuples(self):
        class Big(int):
            pass

        class Tup(tuple):
            pass

        [clean] = self.untracked(self.ROWS[:1])
        state, p, pc = clean
        gc.disable()
        try:
            assert not any(map(gc.is_tracked, _stepcore.entries(TraceStep, 0, [clean] * 3)))
            for row in [
                ((Big(4), 1), p, pc),
                ([4, 1], p, pc),
                (Tup(state), p, pc),
                (state, p, tuple([2, 0])),  # a fresh tuple, tracked until a collection
            ]:
                [entry] = _stepcore.entries(TraceStep, 0, [row])
                assert gc.is_tracked(entry), row
        finally:
            gc.enable()

    def test_a_class_with_a_dict_keeps_its_entries_tracked(self):
        class Loose(TraceStep):
            pass  # no __slots__, so its instances have a __dict__

        [row] = self.untracked(self.ROWS[:1])
        [entry] = _stepcore.entries(Loose, 3, [row])
        assert type(entry) is Loose and gc.is_tracked(entry)
        assert (entry.k, entry.state, entry.partials, entry.common) == (3, *row)

    def test_a_class_without_the_four_slots_is_refused(self):
        class Plain:
            pass

        @dataclass(frozen=True, slots=True)
        class Three:
            k: int
            state: tuple
            partials: tuple

        class Props:
            k = state = partials = common = property(lambda self: 0)

        row = self.ROWS[0]
        for cls in (Plain, Three, Props, int, 5, "TraceStep"):
            with pytest.raises(TypeError):
                _stepcore.entries(cls, 0, [row])
        # a refused class does not displace the one in use
        assert _stepcore.entries(TraceStep, 0, [row]) == self.oracle(0, [row])

    def test_a_finalizer_calling_it_with_another_class_mid_call(self):
        # under Python 3.11 and older a collection may run inside the call's
        # allocations, and with it a finalizer calling entries() again
        class Padded:
            __slots__ = ("pad", "k", "state", "partials", "common")

        class Trigger:
            def __del__(self):
                inner.extend(_stepcore.entries(Padded, 0, [row]))

        [row] = self.untracked(self.ROWS[:1])
        rows, inner = [row] * 50, []
        threshold = gc.get_threshold()
        gc.collect()
        try:
            for _ in range(3):
                trigger = Trigger()
                trigger.cycle = trigger
            del trigger
            gc.set_threshold(1)
            got = _stepcore.entries(TraceStep, 0, rows)
        finally:
            gc.set_threshold(*threshold)
        gc.collect()
        assert got == self.oracle(0, rows) and {type(e) for e in got} == {TraceStep}
        assert len(inner) == 3 and {type(e) for e in inner} == {Padded}
        assert not hasattr(inner[0], "pad") and inner[0].state is row[0]

    def test_a_row_that_is_not_a_3_tuple_is_refused(self):
        state, p, pc = self.ROWS[0]
        for bad in ([(state, p)], [(state, p, pc, pc)], [[state, p, pc]], [5], 5):
            with pytest.raises(TypeError):
                _stepcore.entries(TraceStep, 0, bad)
        for bad_k in (1.0, "0", None):
            with pytest.raises(TypeError):
                _stepcore.entries(TraceStep, bad_k, [self.ROWS[0]])
        with pytest.raises(TypeError):
            _stepcore.entries(TraceStep, 0)
        with pytest.raises(OverflowError):
            _stepcore.entries(TraceStep, sys.maxsize, [self.ROWS[0]] * 2)

    def test_leaks_no_references(self):
        [row] = self.untracked([[(2**40 + i, i) for i in range(3)]])
        state, p, pc = row
        rows, bad = [row] * 3, [row, (state, p)]
        held = (state, row, TraceStep)
        _stepcore.entries(TraceStep, 0, [])
        gc.collect()  # a class entries() held before may be left in a cycle
        before = list(map(sys.getrefcount, held))
        for _ in range(10_000):
            _stepcore.entries(TraceStep, 5, rows)
            with pytest.raises(TypeError):
                _stepcore.entries(TraceStep, 5, bad)
        gc.collect()
        assert list(map(sys.getrefcount, held)) == before


GROWING_PLAN = plan_for(parse(GROWING_CYCLE_TEXT, allow_cycles=True))
LOOP_PLAN = plan_for(parse(LOOP_TEXT, allow_cycles=True))


class TestAdvance:
    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_extension)])
    def test_zero_or_negative_limit_takes_no_rows(self, showcase, backend):
        plan, state = plan_for(showcase), (100, 100, 0, 0, 0, 0, 0)
        for limit in (0, -1):
            rows, last, stop = advance(plan, bind(plan, backend), state, limit)
            assert rows == [] and last is state and stop == 1

    def test_fixed_point_and_limit(self, showcase):
        plan = plan_for(showcase)
        rows, last, stop = advance(plan, None, (100, 100, 0, 0, 0, 0, 0), 10)
        assert stop == 0 and len(rows) == 4 and last == rows[-1][0]
        rows, last, stop = advance(plan, None, (100, 100, 0, 0, 0, 0, 0), 2)
        assert stop == 1 and len(rows) == 2 and last == (0, 20, 2, 0, 4, 6, 0)

    @needs_extension
    def test_steps_beyond_int64_and_back(self):
        # 2**63 + 2 leaves int64; its carry 2**62 + 1 fits again
        plan = plan_for(build_linear_chain(2, 3))
        state = (2**63 + 2, 0, 0)
        rows, last, stop = advance(plan, bind(plan, "compiled"), state, 10)
        assert (rows, last, stop) == advance(plan, None, state, 10)
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
        assert advance(plan, bind(plan, "compiled"), state, limit) == want
        assert advance(plan, None, state, limit) == want

    @needs_extension
    def test_credit_overflow_in_every_update_still_makes_progress(self, caplog):
        # entity 0 keeps its value and fires on every update; its two credits
        # to entity 1 cancel, but each alone leaves int64, so every update is
        # a big-integer stretch of its own, and every state fits in int64
        plan = StepPlan(n=(2, 0), groups=(), edges=((0, 0, 2), (0, 1, 2**62), (0, 1, -(2**62))))
        kernel = bind(plan, "compiled")
        stretches = []
        assert kernel.run((4, 0), 1, stretches) == ([((4, 0), (2, 0), (2, 0))], (4, 0), 1)
        assert stretches == [(0, 1, 1)]
        with caplog.at_level(logging.DEBUG, logger="caosim"):
            rows, last, stop = advance(plan, kernel, (4, 0), 50)
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
        got = advance(plan, bind(plan, backend), state, 10)
        assert got == repeated_pure_steps(plan, state, 10)
        assert got[2] == 0 and any(min(row[0]) < 0 for row in got[0])

    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_extension)])
    def test_wide_chain_rows_and_shared_states(self, backend):
        plan = plan_for(build_linear_chain(2, 600))
        state = (random.Random(600).getrandbits(599),) + (0,) * 599
        kernel = bind(plan, backend)
        rows, last, stop = advance(plan, kernel, state, 1024)
        assert (rows, last, stop) == repeated_pure_steps(plan, state, 1024)
        assert stop == 0 and len(rows) == 599
        # as in C: each row's state is the previous update's next state, and
        # common carries equal to the partials are the partials' tuple
        assert rows[0][0] is state
        assert all(row[2] is row[1] for row in rows[1:])
        head, mid, _ = advance(plan, kernel, state, 300)
        tail, end, _ = advance(plan, kernel, mid, 1024)
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
            got = advance(plan, bind(plan, "compiled"), state, 300)
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
        got = advance(plan, kernel, state, limit)
        assert got == advance(plan, None, state, limit)
        stretches = []
        assert kernel.run(state, limit, stretches) == got
        assert stretches == expected_stretches(plan, got[0], got[2])


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
    assert list(sections) == [MATRIX_SECTION, "Trace entries", ENACTOR_SECTION, "The module"]
    matrix, enactor = sections[MATRIX_SECTION], sections[ENACTOR_SECTION]
    assert {"run_int64", "update", "plan_int", "PlanKernel", "Frontier", "PlanKernelType"} <= defined_names(matrix)
    assert {"enactor_update", "enactor_pair", "Enactor", "EnactorType"} <= defined_names(enactor)
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

# TestSharedRows.test_an_int_subclass_in_the_start_stays_in_row_0, on its own
CATCH_A_SHARED_SUBCLASS = """\
import sys
import caosim
from caosim import parse, run
from caosim.kernel import _stepcore

assert caosim.__file__.startswith(sys.argv[1]) and _stepcore.__file__.startswith(sys.argv[1])

class Big(int):
    pass

loop = parse(sys.stdin.read(), allow_cycles=True)
start = tuple(map(Big, loop.start_state()))
trace = run(loop, start, max_steps=50, engine="matrix", backend="compiled")
assert trace == run(loop, start, max_steps=50, engine="matrix", backend="pure")
held = [e.k for e in trace.steps if any(type(v) is not int for t in (e.state, e.partials, e.common) for v in t)]
if held == [0]:
    sys.exit("the mutant went unnoticed")
print(held[1])
"""


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
# caught by the other. The int64 loop's sharing rule broken three ways: the
# first two record wrong values, which the enactor must catch on the first
# update, and the third lets an int subclass out of row 0. The enactor's
# fold taking its first input's carry, not the least, which the int64 loop
# must catch on the first update of a start that lowers a carry.
KERNEL_MUTANTS = {
    MATRIX_SECTION: [
        Mutant(
            "a dropped credit",
            "    for (e = 0; e < self->nedges; e++) {\n",
            "    for (e = 1; e < self->nedges; e++) {\n",
        ),
        Mutant(
            "a previous item reused unseen",
            "        if (v && row[i] == old[i] && PyLong_CheckExact(v))\n",
            "        if (v && PyLong_CheckExact(v))\n",
        ),
        Mutant(
            "a lowered carry from the first member",
            "        Py_ssize_t at = pc[i] == p[i] ? i : low[self->group_of[i]];\n",
            "        Py_ssize_t at = pc[i] == p[i] ? i : self->grp_members[self->grp_off[self->group_of[i]]];\n",
            # the loop from its own start never lowers a carry
            text=LOWERING_LOOP_TEXT,
        ),
        Mutant(
            "an int subclass reused",
            "        if (v && row[i] == old[i] && PyLong_CheckExact(v))\n",
            "        if (v && row[i] == old[i])\n",
            catch=CATCH_A_SHARED_SUBCLASS,
            text=LOWERING_LOOP_TEXT,
            caught="1\n",
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
