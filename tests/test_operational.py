"""The per-operator procedures, enacted literally."""

from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from caosim import (
    NegativeComponentError,
    ParameterSchedule,
    ScheduleGapError,
    parse,
    random_cao,
    random_state,
    resolve,
    run,
    step_operational,
)
from caosim.kernel import _stepcore
from caosim.model import Stretch
from caosim.operational import enactor
from caosim.simulate import _hand_back
from conftest import (
    GROWING_CYCLE_TEXT,
    LOOP_TEXT,
    LOWERING_LOOP_TEXT,
    SHOWCASE_TRAJECTORY,
    as_rows,
    package_imports,
    random_parameters,
    record_of,
)


def enact(operators, state):
    """Enact every resolved operator once on a snapshot of a checked state.

    The literal update, the oracle for :func:`caosim.operational.enactor`,
    which enacts again only the operators whose inputs changed. A
    single-input operator (L, D) takes its carry with one division. A
    multi-input operator (F, M) records every input's partial carry and
    takes their minimum. An idle operator, one whose common carry is 0,
    removes and credits nothing, so its removal and credit loops are
    skipped.
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


def enact_every_operator(operators, state):
    """The update with no shortcut for idle operators: every operator's
    partial carries, minimum, removals and credits, in full. The oracle for
    ``enact``."""
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


def one_update(updates):
    """The next update of a primed :func:`enactor`, as ``(next, partials,
    common)``: a stretch of one taken with ``send((0, 1))``."""
    ((_, p, pc),), nxt, _ = as_rows(updates.send((0, 1)))
    return nxt, p, pc


def test_the_two_routes_import_nothing_of_each_other():
    # The matrix route (engine, kernel) and the operational route check each
    # other only while they share no arithmetic.
    assert package_imports("operational") == {"model"}
    assert "operational" not in package_imports("kernel")
    assert "operational" not in package_imports("engine")


def small_or_random_state(rng, spec):
    """A random state whose bound is drawn among 0, 1, the radix range and
    the default 10**6, so that idle operators are common."""
    return random_state(rng, spec, rng.choice([0, 1, 2, 3, 8, 16, 10**6]))


def test_resolve_indexes_the_showcase(showcase):
    ops = resolve(showcase)
    assert len(ops) == 4
    assert ops[0] == (((0, 10), (1, 8)), ((2, 1), (3, 2)))  # M (i:10, j:8) -> (d:1, s:2)
    assert ops[3][1] == ((6, 1),)


class TestSingleOperatorProcedures:
    # Each state below makes only the operator under test fire, so the
    # whole update is that operator's procedure.

    def test_L_divides_and_converts(self, showcase):
        # L (d:8) -> (g:2)
        nxt, p, pc = step_operational(showcase, (0, 0, 17, 0, 0, 0, 0))
        assert p[2] == 2
        assert pc[2] == 2
        assert nxt == (0, 0, 17 - 16, 0, 4, 0, 0)

    def test_D_fans_one_carry_out(self, showcase):
        # D (s:10) -> (g:1, u:3)
        nxt, _, pc = step_operational(showcase, (0, 0, 0, 25, 0, 0, 0))
        assert pc[3] == 2
        assert nxt == (0, 0, 0, 25 - 20, 2, 6, 0)

    def test_F_takes_the_group_minimum(self, showcase):
        # F (g:4, u:2) -> (h:1)
        _, _, pc = step_operational(showcase, (0, 0, 0, 0, 14, 7, 0))
        # 14//4 = 3 and 7//2 = 3 agree here; try an uneven pair too
        assert pc[4] == pc[5] == 3
        nxt, p, pc = step_operational(showcase, (0, 0, 0, 0, 14, 3, 0))
        assert (p[4], p[5]) == (3, 1)
        assert pc[4] == pc[5] == 1
        assert nxt == (0, 0, 0, 0, 14 - 4, 3 - 2, 1)

    def test_M_moves_many_to_many(self, showcase):
        # M (i:10, j:8) -> (d:1, s:2)
        nxt, p, pc = step_operational(showcase, (100, 100, 0, 0, 0, 0, 0))
        assert (p[0], p[1]) == (10, 12)
        assert pc[0] == pc[1] == 10
        assert nxt == (100 - 100, 100 - 80, 10, 20, 0, 0, 0)


class TestIdleOperators:
    # An operator whose common carry is 0 moves nothing, but its partial
    # carries are still reported.

    def test_idle_F_reports_its_partials(self, showcase):
        # F (g:4, u:2): 14//4 = 3, 1//2 = 0
        state = (0, 0, 0, 0, 14, 1, 0)
        nxt, p, pc = step_operational(showcase, state)
        assert (p[4], p[5]) == (3, 0)
        assert (pc[4], pc[5]) == (0, 0)
        assert nxt == state

    def test_idle_L(self, showcase):
        # L (d:8) -> (g:2) with d = 7
        state = (0, 0, 7, 0, 0, 0, 0)
        assert step_operational(showcase, state) == (state, (0,) * 7, (0,) * 7)

    def test_one_idle_input_stops_a_multi_input_operator(self, showcase):
        # M (i:10, j:8) with j = 7 is idle beside a firing L (d:8) -> (g:2)
        nxt, p, pc = step_operational(showcase, (100, 7, 17, 0, 0, 0, 0))
        assert (p[0], p[1], p[2]) == (10, 0, 2)
        assert pc == (0, 0, 2, 0, 0, 0, 0)
        assert nxt == (100, 7, 1, 0, 4, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_enacting_every_operator(self, seed):
        rng = random.Random(seed)
        spec = random_cao(rng, radix_range=rng.choice([(2, 4), (2, 16)]))
        operators = resolve(spec)
        state = small_or_random_state(rng, spec)
        updates = enactor(operators, state)
        next(updates)
        for _ in range(5):
            got = enact(operators, state)
            assert got == enact_every_operator(operators, state)
            assert one_update(updates) == got
            state = got[0]


class TestStepOperational:
    def test_walks_the_showcase_trajectory(self, showcase):
        for (state, pc), (nxt_state, _) in zip(
            SHOWCASE_TRAJECTORY, SHOWCASE_TRAJECTORY[1:]
        ):
            nxt, _, common = step_operational(showcase, state)
            assert nxt == nxt_state
            assert common == pc

    def test_rejects_negative_components(self, showcase):
        with pytest.raises(NegativeComponentError):
            step_operational(showcase, (0, 0, 0, -5, 0, 0, 0))

    def test_rejects_wrong_length(self, showcase):
        with pytest.raises(ValueError):
            step_operational(showcase, (1,))

    @pytest.mark.parametrize("value", [9.7, 9.0, True, "9"])
    def test_rejects_components_that_are_not_integers(self, showcase, value):
        with pytest.raises(ValueError, match="not an integer"):
            step_operational(showcase, (100, value, 0, 0, 0, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_effects_respect_the_procedure_laws(self, seed):
        # For every operator: the enacted carry is the minimum of the partial
        # carries, removals never exceed what an entity holds, and every
        # output gains exactly carry × coefficient.
        rng = random.Random(seed)
        spec = random_cao(rng)
        state = small_or_random_state(rng, spec)
        nxt, p, pc = step_operational(spec, state)
        ledger = list(state)
        for inputs, outputs in resolve(spec):
            common = min(p[i] for i, _ in inputs)
            for i, radix in inputs:
                assert p[i] == state[i] // radix
                assert pc[i] == common
                assert common * radix <= state[i]
                ledger[i] -= common * radix
            for t, coeff in outputs:
                ledger[t] += common * coeff
        assert nxt == tuple(ledger)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_states_stay_non_negative(self, seed):
        rng = random.Random(seed)
        spec = random_cao(rng)
        state = random_state(rng, spec)
        for _ in range(10):
            state, _, _ = step_operational(spec, state)
            assert all(v >= 0 for v in state)


GROWING_CYCLE = parse(GROWING_CYCLE_TEXT, allow_cycles=True)
LOOP = parse(LOOP_TEXT, allow_cycles=True)
LOWERING_LOOP = parse(LOWERING_LOOP_TEXT, allow_cycles=True)


def enacted_updates(spec, state, updates):
    """Whether the enactor at ``state`` takes ``updates`` updates as the
    literal ``enact`` does, row for row, and one more after a fixed point."""
    operators = resolve(spec)
    got = enactor(operators, state)
    next(got)
    for _ in range(updates):
        want = enact(operators, state)
        assert one_update(got) == want, f"{spec.name} from {state}"
        if not any(want[2]):
            assert one_update(got) == want
            return
        state = want[0]


def literal_run(spec, state, max_steps, schedule=None):
    """What ``run`` records, taken with one literal ``enact`` per update:
    ``(entries, termination)``, or the step of a schedule's gap. A fixed
    point ends the run only once the schedule can no longer change the
    parameters; until then the fixed state is recorded at every step."""
    sched = schedule if schedule is not None else ParameterSchedule.constant(spec)
    entries = []
    for k in range(max_steps + 1):
        try:
            spec_k, until = sched.span(k)
        except ScheduleGapError as gap:
            return gap.k
        nxt, p, pc = enact(resolve(spec_k), state)
        entries.append((k, state, p, pc))
        if until is None and not any(pc):
            return entries, "fixed-point"
        state = nxt
    return entries, "step-limit"


class TestEnactor:
    """The enactor re-enacts only the operators whose inputs changed; the
    literal ``enact``, which enacts every operator, is its oracle."""

    def test_matches_the_literal_update_on_the_fuzz_corpus(self, fuzz_corpus):
        for spec, state in fuzz_corpus:
            enacted_updates(spec, state, 60)

    def test_matches_the_literal_update_on_the_loop_cao(self):
        enacted_updates(LOOP, LOOP.start_state(), 3000)

    def test_matches_the_literal_update_across_int64(self):
        # the growing cycle crosses 2**63 mid-run, from below and from above
        rng = random.Random(63)
        draws = (
            lambda: rng.randrange(1000),
            lambda: rng.randrange(2**54, 2**63),
            lambda: 2**63 + rng.randrange(-64, 64),
            lambda: rng.randrange(2**70),
        )
        for _ in range(40):
            state = tuple(rng.choice(draws)() for _ in range(GROWING_CYCLE.m))
            enacted_updates(GROWING_CYCLE, state, 200)

    def test_scheduled_runs_match_the_literal_update(self):
        for seed in range(300):
            self.check_a_scheduled_run(seed)

    @staticmethod
    def check_a_scheduled_run(seed):
        # Overrides at random steps or on a run of consecutive ones, with or
        # without a default (without one, every step after the overrides is a
        # gap); a state fixed before the schedule settles is recorded again at
        # every step up to the next change. The enactor is rebuilt at each
        # change, so no carry of one parameter set survives into the next.
        rng = random.Random(seed)
        spec = rng.choice([GROWING_CYCLE, LOOP, random_cao(rng, radix_range=(2, 4))])
        big = rng.random() < 0.3
        state = tuple(
            (2**63 + rng.randrange(-64, 64)) if big else rng.randrange(40) for _ in range(spec.m)
        )
        default = rng.choice([None, spec, random_parameters(rng, spec)])
        start = 0 if default is None else rng.randrange(40)
        if default is not None and rng.random() < 0.5:
            keys = rng.sample(range(40), 4)
        else:
            keys = range(start, start + rng.randint(1, 40))
        pool = (spec, random_parameters(rng, spec), random_parameters(rng, spec))
        schedule = ParameterSchedule.from_mapping(
            spec, {k: rng.choice(pool) for k in keys}, default=default
        )
        want = literal_run(spec, state, 50, schedule)
        for engine in ("operational", "both"):
            try:
                trace = run(spec, state, max_steps=50, engine=engine, schedule=schedule)
            except ScheduleGapError as gap:
                assert gap.k == want, f"seed {seed}, {engine}"
                continue
            got = [(e.k, e.state, e.partials, e.common) for e in trace.steps]
            assert (got, trace.termination) == want, f"seed {seed}, {engine}"

    def test_send_takes_a_stretch(self):
        updates = enactor(resolve(LOOP), LOOP.start_state())
        assert next(updates) is None
        rows, last, stop = as_rows(updates.send((0, 7)))
        assert (len(rows), stop) == (7, 1)
        assert rows[0][0] == LOOP.start_state()
        nexts = [s for s, _, _ in rows[1:]] + [last]
        assert [enact(resolve(LOOP), s) for s, _, _ in rows] == [
            (nxt, p, pc) for (_, p, pc), nxt in zip(rows, nexts)
        ]
        # the next stretch goes on from where this one stopped
        (row,), _, _ = as_rows(updates.send((7, 1)), 7)
        assert row[0] == last
        assert row[1:] == enact(resolve(LOOP), last)[1:]

    def test_send_stops_at_a_fixed_point(self, showcase):
        state = showcase.start_state()
        updates = enactor(resolve(showcase), state)
        next(updates)
        rows, last, stop = as_rows(updates.send((0, 1000)))
        assert stop == 0
        assert [(s, pc) for s, _, pc in rows] == list(SHOWCASE_TRAJECTORY)
        assert last == rows[-1][0]

    def test_the_operational_engine_steps_in_stretches(self, monkeypatch):
        import caosim.operational as operational

        limits = []
        real = operational.enactor

        def counting(operators, state):
            updates = real(operators, state)
            done = next(updates)
            while True:
                job = yield done
                limits.append(job)
                done = updates.send(job)

        monkeypatch.setattr(operational, "enactor", counting)
        trace = run(LOOP, max_steps=5000, engine="operational")
        assert limits == [(k, 1024) for k in range(0, 4096, 1024)] + [(4096, 5001 - 4096)]
        assert trace.steps == run(LOOP, max_steps=5000, engine="matrix").steps

    def test_step_operational_is_the_literal_update_on_the_fuzz_corpus(self, fuzz_corpus):
        for spec, state in fuzz_corpus:
            operators = resolve(spec)
            for _ in range(3):
                want = enact(operators, state)
                assert step_operational(spec, state) == want, f"{spec.name} from {state}"
                state = want[0]


class TestLockStepCheck:
    """``send((stretch, last))`` checks a stretch of the matrix route as the
    enactor takes it; the literal ``enact`` gives the rows its record is
    written from."""

    @staticmethod
    def literal_stretch(spec, state, limit):
        """``(rows, last)``: ``limit`` updates of ``state`` by ``enact``."""
        rows = []
        for _ in range(limit):
            nxt, p, pc = enact(resolve(spec), state)
            rows.append((state, p, pc))
            state = nxt
        return rows, state

    def test_matching_stretches_return_none(self):
        state = LOOP.start_state()
        updates = enactor(resolve(LOOP), state)
        next(updates)
        for limit in (1, 7, 300):
            rows, last = self.literal_stretch(LOOP, state, limit)
            assert updates.send((record_of(rows), last)) is None
            state = last
        # and the enactor goes on from there
        assert one_update(updates) == enact(resolve(LOOP), state)

    def test_a_fixed_point_is_checked_like_any_row(self, showcase):
        state = showcase.start_state()
        rows, last = self.literal_stretch(showcase, state, 9)
        updates = enactor(resolve(showcase), state)
        next(updates)
        assert updates.send((record_of(rows), last)) is None

    @pytest.mark.parametrize("field", [0, 1, 2])  # the next state, the partials, the common carries
    @pytest.mark.parametrize("at", [0, 3, 9])  # 9: the next state is ``last``
    def test_the_first_mismatch_is_named_with_this_routes_result(self, field, at):
        state = LOOP.start_state()
        rows, last = self.literal_stretch(LOOP, state, 10)
        right = [enact(resolve(LOOP), s) for s, _, _ in rows]

        def bump(values):
            return (values[0] + 1, *values[1:])

        if field == 0 and at == 9:
            last = bump(last)
        elif field == 0:
            s, p, pc = rows[at + 1]
            rows[at + 1] = (bump(s), p, pc)
        else:
            rows[at] = tuple(bump(v) if f == field else v for f, v in enumerate(rows[at]))
        rows[at + 2 :] = [(bump(s), p, pc) for s, p, pc in rows[at + 2 :]]  # later rows wrong too
        updates = enactor(resolve(LOOP), state)
        next(updates)
        assert updates.send((record_of(rows), last)) == (at, right[at])

    def test_the_check_keeps_no_rows(self):
        # Taking a stretch builds its rows; checking one holds a row at a
        # time, so its peak allocation is a small part of the rows' size.
        state = LOOP.start_state()
        rows, last = self.literal_stretch(LOOP, state, 1024)
        peaks = []
        for job in ((0, 1024), (record_of(rows), last)):
            updates = enactor(resolve(LOOP), state)
            next(updates)
            tracemalloc.start()
            try:
                done = updates.send(job)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del done
        assert peaks[1] * 10 < peaks[0], peaks


class Big(int):
    """An int subclass, which the C enactor leaves to the generator."""


Z8 = (0,) * 8
RECORD = Stretch(0, Z8, Z8, Z8, [])
LOOP_FIRST = record_of([(LOOP.start_state(), *enact(resolve(LOOP), LOOP.start_state())[1:])])


def generator_check(operators, state, rows, last):
    """What a freshly primed :func:`enactor` makes of the stretch."""
    updates = enactor(operators, state)
    next(updates)
    return updates.send((record_of(rows), last))


def c_check(operators, state, rows, last):
    """What ``run`` makes of the stretch on the compiled backend: the C
    enactor's check, with the rows it hands back checked by the generator."""
    fast = _stepcore.Enactor(operators, state)
    done = fast.send((record_of(rows), last))
    if type(done) is int:
        done, _ = _hand_back(operators, fast, record_of(rows), last, done)
    return done


def stretch(operators, state, limit):
    """``(rows, last)``: ``limit`` updates of ``state`` taken by the
    generator, whose rows are what the checks compare with."""
    updates = enactor(operators, state)
    next(updates)
    rows, last, _ = as_rows(updates.send((0, limit)))
    return rows, last


def bump(values, entry=0, by=1):
    return (*values[:entry], values[entry] + by, *values[entry + 1 :])


@pytest.mark.skipif(_stepcore is None, reason="compiled kernel not built")
class TestCEnactor:
    """``_stepcore.Enactor``, the lock-step check ``run(engine="both")``
    makes in C on the compiled backend. It is built from the same resolved
    operators as the generator's ``send((entries, last))``, which is its oracle:
    it must return what the generator returns, except where it hands the
    stretch back, and then the generator, primed at its state, must."""

    # the loop from its own start, and from one whose fold lowers a carry on every update
    both_starts = pytest.mark.parametrize("loop", [LOOP, LOWERING_LOOP], ids=["loop", "lowering"])

    @both_starts
    def test_matching_stretches_return_none(self, loop):
        state = loop.start_state()
        fast = _stepcore.Enactor(resolve(loop), state)
        for limit in (1, 7, 300, 1024):
            rows, last = stretch(resolve(loop), state, limit)
            assert fast.send((record_of(rows), last)) is None
            assert fast.state == last
            state = last

    def test_a_fixed_point_is_checked_like_any_row(self, showcase):
        state = showcase.start_state()
        rows, last = stretch(resolve(showcase), state, 9)
        assert _stepcore.Enactor(resolve(showcase), state).send((record_of(rows), last)) is None

    @both_starts
    @pytest.mark.parametrize("field", [0, 1, 2])  # the next state, the partials, the common carries
    @pytest.mark.parametrize("at", [0, 3, 9])  # 9: the next state is ``last``
    def test_the_first_mismatch_is_the_generators(self, field, at, loop):
        operators, state = resolve(loop), loop.start_state()
        rows, last = stretch(operators, state, 10)
        if field == 0 and at == 9:
            last = bump(last)
        elif field == 0:
            s, p, pc = rows[at + 1]
            rows[at + 1] = (bump(s), p, pc)
        else:
            rows[at] = tuple(bump(v) if f == field else v for f, v in enumerate(rows[at]))
        rows[at + 2 :] = [(bump(s), p, pc) for s, p, pc in rows[at + 2 :]]  # later rows wrong too
        done = _stepcore.Enactor(operators, state).send((record_of(rows), last))
        assert done == generator_check(operators, state, rows, last)
        assert done[0] == at

    @pytest.mark.parametrize("seed", range(4))
    def test_injected_faults_give_the_generators_result(self, seed, fuzz_corpus):
        # one wrong entry, anywhere in a stretch of a random CAO, the loop or
        # the growing cycle: the same first mismatch, with the same result,
        # also where the growing cycle leaves int64 and the stretch is handed back
        rng = random.Random(seed)
        for _ in range(50):
            spec, state = rng.choice(
                [
                    rng.choice(fuzz_corpus),
                    (LOOP, LOOP.start_state()),
                    (GROWING_CYCLE, (5, 9, 0)),
                    (GROWING_CYCLE, (2**60, 2**61, 0)),
                ]
            )
            operators = resolve(spec)
            rows, last = stretch(operators, state, rng.randint(1, 40))
            row, field = rng.randrange(len(rows) + 1), rng.randrange(3)
            entry, by = rng.randrange(spec.m), rng.choice([-(2**64), -1, 1, 2**63])
            if row == len(rows):
                last = bump(last, entry, by)
            elif row or field:
                rows[row] = tuple(bump(v, entry, by) if f == field else v for f, v in enumerate(rows[row]))
            want = generator_check(operators, state, rows, last)
            done = _stepcore.Enactor(operators, state).send((record_of(rows), last))
            assert done == want or type(done) is int and (want is None or done <= want[0])
            assert c_check(operators, state, rows, last) == want

    def test_a_start_past_int64_is_handed_back_at_once(self):
        for state in [(2**63,) + (0,) * 7, LOOP.start_state()[:-1] + (Big(3),), (True,) + (0,) * 7]:
            fast = _stepcore.Enactor(resolve(LOOP), state)
            rows, last = stretch(resolve(LOOP), state, 20)
            assert fast.send((record_of(rows), last)) == 0
            assert fast.state is state
            assert c_check(resolve(LOOP), state, rows, last) is None

    def test_an_update_past_int64_is_handed_back(self):
        # the growing cycle leaves int64 mid-stretch; the C enactor then holds
        # the state of the update it could not take, and the generator primed
        # there finds what the generator finds over the whole stretch
        operators, state = resolve(GROWING_CYCLE), (2**60, 2**60, 0)
        rows, last = stretch(operators, state, 40)
        fast = _stepcore.Enactor(operators, state)
        at = fast.send((record_of(rows), last))
        assert type(at) is int and 0 < at < 40
        assert fast.state == rows[at][0]
        assert c_check(operators, state, rows, last) is None
        rows[-1] = (rows[-1][0], bump(rows[-1][1]), rows[-1][2])
        assert c_check(operators, state, rows, last) == generator_check(operators, state, rows, last)

    @pytest.mark.parametrize("kind", [Big, bool, float])
    def test_a_value_that_is_not_an_exact_int_is_handed_back(self, kind):
        # Python compares it by its own __eq__, so the generator decides
        operators, state = resolve(LOOP), LOOP.start_state()
        rows, last = stretch(operators, state, 10)
        record = record_of(rows)
        change = list(record.changes[3])  # update 4's
        i = next(i for i in range(0, len(change), 2) if change[i] >= 2 * LOOP.m)  # a common carry
        change[i + 1] = kind(change[i + 1])
        record.changes[3] = tuple(change)
        fast = _stepcore.Enactor(operators, state)
        assert fast.send((record, last)) == 4
        assert fast.state == rows[4][0]
        want = enactor(operators, state)
        next(want)
        want = want.send((record, last))
        done, _ = _hand_back(operators, fast, record, last, 4)
        assert done == want
        # after a hand-back it enacts every operator again, from that state
        assert fast.send((record_of(rows[4:], 4), last)) is None

    def test_an_int_subclass_of_a_cached_value_is_handed_back(self, showcase):
        # Big(3) equals 3 but is not the interpreter's cached 3: the check's
        # identity test passes it by, and the full comparison hands the
        # stretch back at its entry, for the generator to compare
        operators, state = resolve(showcase), showcase.start_state()
        rows, last = stretch(operators, state, 4)
        s, p, pc = rows[2]
        assert p[5] == 3 and pc[5] != 3
        rows[2] = (s, (*p[:5], Big(3), *p[6:]), pc)
        fast = _stepcore.Enactor(operators, state)
        assert fast.send((record_of(rows), last)) == 2
        assert fast.state == s
        assert c_check(operators, state, rows, last) is None
        assert generator_check(operators, state, rows, last) is None

    def test_negative_coefficients_are_enacted_as_the_generator_enacts_them(self):
        # not a validated CAO: states go negative, and floor division rounds down
        operators = (
            (((0, 3),), ((1, -2), (3, 1))),
            (((1, 2),), ((0, 1), (2, -5))),
            (((2, 4), (3, 2)), ((1, 3), (0, -1))),
        )
        for state in [(7, 0, 0, 0), (100, 3, 50, 9), (5, 40, 0, 11)]:
            rows, last = stretch(operators, state, 30)
            assert _stepcore.Enactor(operators, state).send((record_of(rows), last)) is None
            rows[5] = (rows[5][0], rows[5][1], bump(rows[5][2], 1))
            want = generator_check(operators, state, rows, last)
            assert _stepcore.Enactor(operators, state).send((record_of(rows), last)) == want

    @pytest.mark.parametrize("index", [8, -1, 2**70, 2**64 + 1])
    def test_an_index_outside_the_state_is_refused(self, index):
        for operators in [((((index, 2),), ((1, 1),)),), ((((0, 2),), ((index, 1),)),)]:
            with pytest.raises(ValueError, match="outside a state of 8"):
                _stepcore.Enactor(operators, LOOP.start_state())

    @pytest.mark.parametrize("radix", [0, -1, -(2**63)])
    def test_a_radix_below_1_is_refused(self, radix):
        # so the enactor never divides by zero
        with pytest.raises(ValueError, match="below 1"):
            _stepcore.Enactor(((((0, radix),), ((1, 1),)),), (4, 0))

    @pytest.mark.parametrize("pair", [(2**63, 1), (2, 2**63), (2, -(2**63) - 1), (2**100, 1)])
    def test_a_radix_or_coefficient_outside_int64_overflows(self, pair):
        radix, coeff = pair
        with pytest.raises(OverflowError):
            _stepcore.Enactor(((((0, radix),), ((1, coeff),)),), (4, 0))

    @pytest.mark.parametrize(
        "job, error",
        [
            ([], TypeError),  # not a (stretch, last) pair
            ((5, Z8), TypeError),  # a record that is not a tuple
            (((Z8, Z8, Z8), Z8), TypeError),  # rows, not a record
            ((RECORD._replace(partials=[0] * 8), Z8), TypeError),  # carries not a tuple
            ((RECORD._replace(partials=(0,) * 7), Z8), ValueError),  # carries too short
            ((RECORD._replace(state=(0,) * 9), Z8), ValueError),  # a state too long
            ((RECORD._replace(changes=()), Z8), TypeError),  # changes not a list
            ((RECORD._replace(changes=[[0, 1]]), Z8), TypeError),  # a change not a tuple
            # the loop's own first update, then changes of the wrong shape
            ((LOOP_FIRST._replace(changes=[(0,)]), Z8), ValueError),  # not (cell, value) pairs
            ((LOOP_FIRST._replace(changes=[(24, 1)]), Z8), ValueError),  # a cell past the rows
            ((LOOP_FIRST._replace(changes=[("0", 1)]), Z8), TypeError),  # a cell that is not an int
            ((RECORD, (0,) * 7), ValueError),  # last too short
            ((RECORD, [0] * 8), TypeError),  # last not a tuple
        ],
    )
    def test_entries_of_the_wrong_shape_are_refused(self, job, error):
        operators, state = resolve(LOOP), LOOP.start_state()
        fast = _stepcore.Enactor(operators, state)
        with pytest.raises(error):
            fast.send(job)
        # nothing was taken: the enactor still checks from its start
        assert fast.state == state
        rows, last = stretch(operators, state, 5)
        assert fast.send((record_of(rows), last)) is None

    def test_a_cycle_through_its_start_is_collected(self):
        class Marker:
            pass

        value = Big(3)
        value.fast = _stepcore.Enactor(resolve(LOOP), LOOP.start_state()[:-1] + (value,))
        value.marker = Marker()
        alive = weakref.ref(value.marker)
        del value
        gc.collect()
        assert alive() is None
