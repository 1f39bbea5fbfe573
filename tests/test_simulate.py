"""Trace runner, engine cross-checks, conserved weights, generators."""

from __future__ import annotations

import copy
import dataclasses
import gc
from operator import mul
import pickle
import weakref
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from caosim import (
    CstTrace,
    EngineDivergenceError,
    Entity,
    Operator,
    ParameterSchedule,
    Role,
    ScheduleGapError,
    build_linear_chain,
    check_conservation,
    conserved_weights,
    derive,
    parse,
    random_cao,
    random_state,
    run,
    validate,
    with_parameters,
)
from caosim import kernel, rational
from caosim.kernel import COMPILED_AVAILABLE, _stepcore
from caosim.model import Stretch
from caosim.simulate import ENGINES, Steps, TraceStep, _sweep_weights
from conftest import (
    FIELDS,
    GROWING_CYCLE_TEXT,
    LOOP_TEXT,
    LOWERING_LOOP_TEXT,
    SHOWCASE_TRAJECTORY,
    lockstep_oracle,
    matrix_step,
    record_of,
    recorded,
    with_row,
)


class TestRun:
    def test_showcase_settles_in_three_steps(self, showcase):
        trace = run(showcase)
        assert trace.termination == "fixed-point"
        assert trace.step_count == 3
        assert [s.state for s in trace.steps] == [s for s, _ in SHOWCASE_TRAJECTORY]
        assert [s.common for s in trace.steps] == [c for _, c in SHOWCASE_TRAJECTORY]

    def test_initial_mapping_overrides_declared_starts(self, showcase):
        trace = run(showcase, {"i": 10, "j": 8})
        assert trace.steps[0].state == (10, 8, 0, 0, 0, 0, 0)

    def test_initial_vector(self, showcase):
        trace = run(showcase, (0,) * 7, max_steps=5)
        assert trace.fixed_point
        assert trace.step_count == 0

    def test_unknown_init_name(self, showcase):
        with pytest.raises(KeyError):
            run(showcase, {"zz": 1})

    def test_bad_initial_length(self, showcase):
        with pytest.raises(ValueError):
            run(showcase, (1, 2))

    @pytest.mark.parametrize("bad", [9.7, 9.0, "9", True, False, None])
    def test_start_values_must_be_integers(self, bad):
        # int() would truncate 9.7 and convert "9" or True into a start
        chain = build_linear_chain(2, 3)
        with pytest.raises(ValueError, match="not an integer"):
            run(chain, [bad, 0, 0], engine="matrix")
        with pytest.raises(ValueError, match="not an integer"):
            run(chain, {"c0": bad})
        with pytest.raises(ValueError, match="not an integer"):
            run(chain, [0, 0, bad], max_steps=50, engine="both")
        assert run(chain, [9, 0, 0], engine="matrix").final_state == (1, 0, 2)

    def test_step_limit_records_unapplied_carries(self, showcase):
        trace = run(showcase, max_steps=1)
        assert trace.termination == "step-limit"
        assert trace.step_count == 1
        assert any(trace.steps[-1].common), "stopped mid-flight, carries pending"

    def test_zero_step_budget(self, showcase):
        trace = run(showcase, max_steps=0)
        assert trace.step_count == 0
        assert trace.termination == "step-limit"

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("engine", ["matrix", "operational", "both"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", None, True, False])
    def test_step_budget_must_be_an_integer(self, engine, backend, bad):
        # the routes used to disagree on 2.5: a 3-update fixed point on the
        # matrix route, a 2-update step limit on the operational route
        chain = build_linear_chain(2, 4)
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            run(chain, (9, 0, 0, 0), max_steps=bad, engine=engine, backend=backend)
        trace = run(chain, (9, 0, 0, 0), max_steps=2, engine=engine, backend=backend)
        assert trace.step_count == 2
        assert trace.termination == "step-limit"

    @pytest.mark.parametrize("engine", ["matrix", "operational", "both"])
    def test_step_budget_must_not_be_negative(self, engine):
        with pytest.raises(ValueError, match=r"^max_steps must be >= 0$"):
            run(build_linear_chain(2, 4), (9, 0, 0, 0), max_steps=-1, engine=engine)

    def test_engine_choices_agree(self, showcase):
        by_matrix = run(showcase, engine="matrix")
        by_procedure = run(showcase, engine="operational")
        assert by_matrix.steps == by_procedure.steps

    def test_rejects_unknown_engine(self, showcase):
        with pytest.raises(ValueError):
            run(showcase, engine="quantum")

    @pytest.mark.parametrize("engine", ["matrix", "operational", "both"])
    def test_rejects_unknown_backend_on_every_engine(self, showcase, engine):
        with pytest.raises(ValueError, match="unknown backend"):
            run(showcase, engine=engine, backend="bogus")

    def test_rejects_a_schedule_of_another_cao(self):
        a = parse("cao a { initial x = 9\n final y\n L (x:2) -> (y:1) }")
        b = parse("cao b { initial q\n final p\n L (q:3) -> (p:1) }")
        with pytest.raises(ValueError, match="topology"):
            run(a, schedule=ParameterSchedule.constant(b))

    def test_schedule_gap_surfaces(self, showcase):
        sched = ParameterSchedule.from_mapping(showcase, {0: showcase})
        with pytest.raises(ScheduleGapError):
            run(showcase, schedule=sched)


class TestEngineComparison:
    def test_equal_on_the_showcase(self, showcase):
        trace = run(showcase, engine="both")  # a mismatch raises EngineDivergenceError
        assert len(trace.steps) == 4  # three updates plus the settled state, each compared

    @staticmethod
    def corrupt_enactor(monkeypatch, at):
        """Make every enactor, the generator ``operational.enactor`` and the
        C ``_stepcore.Enactor`` alike, report a next state one too high in
        its first component at its update ``at``; its own state stays right.

        The enactor checks each stretch itself, so the real one is handed
        the matrix route's next state of update ``at`` one too low: its own
        check finds the mismatch there, and its result is passed on with
        the next state one too high. The records ``run`` holds are not changed.
        """
        import caosim.operational as operational

        def lower(values):
            return (values[0] - 1, *values[1:])

        def lying(send):
            taken = 0

            def wrong(job):
                nonlocal taken
                stretch, last = job
                j = at + 1 - taken  # the update whose state is update at's next state
                taken += stretch.updates
                if j == stretch.updates:
                    last = lower(last)
                elif 0 < j < stretch.updates:
                    ((state, _, _),) = stretch.rows(j, j + 1)
                    stretch = with_row(stretch, j, state=lower(state))
                done = send((stretch, last))
                if type(done) is tuple and done[0] == j - 1:
                    nxt, p, pc = done[1]
                    done = j - 1, ((nxt[0] + 1, *nxt[1:]), p, pc)
                return done

            return wrong

        real = operational.enactor

        def wrong_generator(operators, state):
            updates = real(operators, state)
            send = lying(updates.send)
            done = next(updates)
            while True:
                done = send((yield done))

        monkeypatch.setattr(operational, "enactor", wrong_generator)
        if _stepcore is not None:
            real_c = _stepcore.Enactor

            class WrongEnactor:
                def __init__(self, operators, state):
                    self.real = real_c(operators, state)
                    self.send = lying(self.real.send)

                @property
                def state(self):
                    return self.real.state

            monkeypatch.setattr(_stepcore, "Enactor", WrongEnactor)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_divergence_is_caught_and_reported(self, showcase, monkeypatch, backend):
        import caosim.simulate as sim

        self.corrupt_enactor(monkeypatch, 0)
        with pytest.raises(EngineDivergenceError) as exc:
            sim.run(showcase, backend=backend)
        assert exc.value.divergence.k == 0

    # two entities passing one part back and forth: never a fixed point
    SWING = parse(
        "cao swing { initial a = 2\n intermediate b\n L (a:2) -> (b:2)\n L (b:2) -> (a:2) }",
        allow_cycles=True,
    )

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("k", [5, 1030])  # 1030 lies past the first 1024-update stretch
    @pytest.mark.parametrize("spec", ["swing", "lowering"])  # lowering: a common tuple of its own
    def test_divergence_inside_a_stretch(self, monkeypatch, k, backend, spec):
        import caosim.simulate as sim

        spec = self.SWING if spec == "swing" else parse(LOWERING_LOOP_TEXT, allow_cycles=True)
        self.corrupt_enactor(monkeypatch, k)
        with pytest.raises(EngineDivergenceError) as exc:
            sim.run(spec, max_steps=2000, backend=backend)
        assert exc.value.divergence.k == k  # k + 1 updates compared, the diverging one included

    @staticmethod
    def far_entries():
        """``(spec, state, entry, row)``: an entry that no operator the
        enactor takes again reads or writes, and a row of the run to put a
        wrong value in it. A 40-entity base-2 chain from 2**10 settles after
        10 updates and no operator past entity 11 ever fires or is credited;
        no operator reads a final entity of a random CAO."""
        chain = build_linear_chain(2, 40)
        fuzz = random_cao(random.Random(7), min_entities=10, max_entities=10)
        final = next(i for i, e in enumerate(fuzz.entities) if e.role is Role.FINAL)
        return [
            (chain, (2**10,) + (0,) * 39, 30, 3),
            (fuzz, random_state(random.Random(8), fuzz, 10**4), final, 1),
        ]

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("field", [0, 1, 2])  # the state, the partials, the common carries
    @pytest.mark.parametrize("case", [0, 1])
    def test_a_wrong_entry_far_from_the_frontier_is_caught(self, monkeypatch, backend, field, case):
        # The check compares whole rows, so one wrong entry where the enactor
        # does no work is a divergence all the same, at the update whose
        # result that row holds, with the message and count it always had.
        import caosim.simulate as sim

        spec, state, entry, row = self.far_entries()[case]
        steps = run(spec, state, engine="matrix", backend=backend).steps
        assert len(steps) > row + 1

        def bump(values):
            return (*values[:entry], values[entry] + 1, *values[entry + 1 :])

        real = sim.kernel.advance

        def wrong(plan, compiled, start, limit, k=0):
            stretch, last, stop = real(plan, compiled, start, limit, k)
            ((value,),) = (r[field : field + 1] for r in stretch.rows(row, row + 1))
            return with_row(stretch, row, **{FIELDS[field]: bump(value)}), last, stop

        monkeypatch.setattr(sim.kernel, "advance", wrong)
        # a row's state is the result of the update before it
        k = row - 1 if field == 0 else row
        right = (steps[k + 1].state, steps[k].partials, steps[k].common)
        wrong_result = tuple(bump(v) if f == field else v for f, v in enumerate(right))
        message = (
            f"engines disagree at step {k}: matrix {wrong_result[0]} "
            f"vs operational {right[0]} from state {steps[k].state}"
        )
        with pytest.raises(EngineDivergenceError) as exc:
            run(spec, state, backend=backend)
        assert str(exc.value) == message
        assert exc.value.divergence == sim.Divergence(k, steps[k].state, wrong_result, right)


# An 8-entity cycle using all four forms that conserves its total: it never
# reaches a fixed point and stays inside int64.
LOOP = parse(
    """\
cao loop {
  initial i = 100012346
  initial j = 100012345
  intermediate d
  intermediate s
  intermediate g
  intermediate u
  intermediate h
  intermediate k

  M (i:2, j:2) -> (d:2, s:2)
  D (d:2) -> (g:1, u:1)
  D (s:2) -> (g:1, u:1)
  F (g:2, u:2) -> (h:4)
  L (h:2) -> (k:2)
  D (k:4) -> (i:2, j:2)
}
""",
    allow_cycles=True,
)
# LOOP with other conversion coefficients on its M operator
LOOP_REWEIGHTED = with_parameters(
    LOOP, [((2, 2), (1, 3)), ((2,), (1, 1)), ((2,), (1, 1)), ((2, 2), (4,)), ((2,), (2,)), ((4,), (2, 2))]
)


class TestLockStepOracle:
    """``run``'s lock-step check, which the enactor makes as it takes each
    matrix stretch, against ``lockstep_oracle``, the per-row loop it
    replaced, on faults injected into one update of the matrix route."""

    @staticmethod
    def corrupt_matrix(monkeypatch, real, at, field):
        """Patch ``kernel.advance`` so that, from the next run on, update
        ``at`` has a first component one too high in its next state (field
        0), its partials (1) or its common carries (2). ``real`` is the
        unpatched ``advance``. A next state is the next update's state, or
        ``last`` after a stretch's last update."""

        def bump(values):
            return (values[0] + 1, *values[1:])

        def wrong(plan, compiled, state, limit, k=0):
            stretch, last, stop = real(plan, compiled, state, limit, k)
            j = at - k + (field == 0)  # the update holding the value
            if field == 0 and j == stretch.updates:
                last = bump(last)
            elif 0 <= j < stretch.updates:
                ((row,),) = (r[field : field + 1] for r in stretch.rows(j, j + 1))
                stretch = with_row(stretch, j, **{FIELDS[field]: bump(row)})
            return stretch, last, stop

        monkeypatch.setattr(kernel, "advance", wrong)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("field", [0, 1, 2])  # the next state, the partials, the common carries
    @pytest.mark.parametrize("at", [0, 5, 1023, 1024, 1030, 2000])  # 2000 is the step limit
    @pytest.mark.parametrize("grouped", [True, False])
    def test_divergences_are_the_oracles(self, monkeypatch, backend, field, at, grouped):
        # LOOP has multi-input operators; SWING's common carries are its partials
        spec = LOOP if grouped else TestEngineComparison.SWING
        real = kernel.advance
        self.corrupt_matrix(monkeypatch, real, at, field)
        want = lockstep_oracle(spec, max_steps=2000, backend=backend)
        assert want is not None and want.k == at
        self.corrupt_matrix(monkeypatch, real, at, field)
        with pytest.raises(EngineDivergenceError) as exc:
            run(spec, max_steps=2000, backend=backend)
        assert exc.value.divergence == want
        assert str(exc.value) == str(EngineDivergenceError(want))

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("max_steps", [2000, 1023, 2047])  # 1023, 2047: a full last stretch
    def test_the_unrecorded_next_state_of_the_last_update_is_checked(
        self, monkeypatch, backend, max_steps
    ):
        # A step-limit run records the last update's carries but not its
        # next state; a wrong value there still raises, at the step limit.
        clean = run(LOOP, max_steps=max_steps, engine="matrix", backend=backend)
        real = kernel.advance
        self.corrupt_matrix(monkeypatch, real, max_steps, 0)
        assert run(LOOP, max_steps=max_steps, engine="matrix", backend=backend) == clean
        self.corrupt_matrix(monkeypatch, real, max_steps, 0)
        with pytest.raises(EngineDivergenceError) as exc:
            run(LOOP, max_steps=max_steps, backend=backend)
        assert exc.value.divergence.k == max_steps
        self.corrupt_matrix(monkeypatch, real, max_steps, 0)
        assert exc.value.divergence == lockstep_oracle(LOOP, max_steps=max_steps, backend=backend)

    @staticmethod
    def start_of(name):
        """Starts of ``LOOP_TEXT`` the C enactor hands back: from k = 2**63 - 1
        it leaves int64 after three updates, from k = 2**63 + 3 it starts
        outside, and a start holding an ``int`` subclass is not all exact
        ints. Each stretch after a hand-back starts in C again."""
        return {
            "2**63-1": {"k": 2**63 - 1},
            "2**63+3": {"k": 2**63 + 3},
            "int subclass": {"i": Big(500000001)},
        }[name]

    @pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled kernel not built")
    @pytest.mark.parametrize("field", [0, 1, 2])  # the next state, the partials, the common carries
    @pytest.mark.parametrize("at", [3, 1030, 2000])  # 2000 is the step limit
    @pytest.mark.parametrize("start", ["2**63-1", "2**63+3", "int subclass"])
    def test_divergences_past_a_hand_back_are_the_oracles(self, monkeypatch, start, field, at):
        spec, init = parse(LOOP_TEXT, allow_cycles=True), self.start_of(start)
        real = kernel.advance
        self.corrupt_matrix(monkeypatch, real, at, field)
        want = lockstep_oracle(spec, init, max_steps=2000, backend="compiled")
        assert want is not None and want.k == at
        self.corrupt_matrix(monkeypatch, real, at, field)
        with pytest.raises(EngineDivergenceError) as exc:
            run(spec, init, max_steps=2000, backend="compiled")
        assert exc.value.divergence == want
        assert str(exc.value) == str(EngineDivergenceError(want))

    @pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled kernel not built")
    @pytest.mark.parametrize(
        "start, hand_backs",
        [("2**63-1", [3, 0, 0]), ("2**63+3", [0, 0, 0]), ("int subclass", [0])],
    )
    def test_a_stretch_handed_back_returns_to_c(self, monkeypatch, start, hand_backs):
        import caosim.simulate as sim

        spec, init = parse(LOOP_TEXT, allow_cycles=True), self.start_of(start)
        real, seen = sim._hand_back, []

        def spy(operators, fast, rows, last, at):
            seen.append(at)
            mismatch, again = real(operators, fast, rows, last, at)
            assert mismatch is None and type(again) is _stepcore.Enactor
            assert again.state == last
            return mismatch, again

        monkeypatch.setattr(sim, "_hand_back", spy)
        trace = run(spec, init, max_steps=3000, backend="compiled")
        assert seen == hand_backs
        assert trace.steps == run(spec, init, max_steps=3000, engine="operational").steps

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_parameters_past_int64_are_checked_in_python(self, backend):
        # no C kernel holds a radix or coefficient of 2**64, so neither route
        # runs in C and the check is the generator's, as on the pure backend
        spec = with_parameters(build_linear_chain(2, 3), [((2**64,), (1,)), ((2,), (2**64,))])
        start = (2**66 + 5, 0, 0)
        trace = run(spec, start, backend=backend)
        assert trace.steps == run(spec, start, engine="operational").steps
        assert trace.final_state == (5, 0, 2**65)
        assert lockstep_oracle(spec, start, backend=backend) is None

    @pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled kernel not built")
    @pytest.mark.parametrize("text", [LOOP_TEXT, LOWERING_LOOP_TEXT], ids=["loop", "lowering"])
    @pytest.mark.parametrize("field", [0, 1, 2])  # the next state, the partials, the common carries
    @pytest.mark.parametrize("at", [1, 6, 1030, 2000])  # 2000 is the step limit
    def test_a_fault_in_the_written_record_is_the_oracles(self, monkeypatch, text, field, at):
        # The record C writes is the trace's own object, and the check reads
        # that very object: changes forced into its list in place are found
        # where the oracle finds them, with the same results. At update 1
        # the loop's first partial and common carries are 0, so a partial
        # forced to 1 is a cached small int where another is right.
        spec = parse(text, allow_cycles=True)
        real = kernel.advance

        def bump(values):
            return (values[0] + 1, *values[1:])

        def forced(plan, compiled, state, limit, k=0):
            stretch, last, stop = real(plan, compiled, state, limit, k)
            j = at - k + (field == 0)  # the update holding the value
            if field == 0 and j == stretch.updates:
                last = bump(last)
            elif 0 < j < stretch.updates:
                ((row,),) = (r[field : field + 1] for r in stretch.rows(j, j + 1))
                stretch.changes[:] = with_row(stretch, j, **{FIELDS[field]: bump(row)}).changes
            return stretch, last, stop

        monkeypatch.setattr(kernel, "advance", forced)
        want = lockstep_oracle(spec, max_steps=2000, backend="compiled")
        assert want is not None and want.k == at
        with pytest.raises(EngineDivergenceError) as exc:
            run(spec, max_steps=2000, backend="compiled")
        assert exc.value.divergence == want
        assert str(exc.value) == str(EngineDivergenceError(want))

    def test_the_oracle_finds_nothing_on_agreeing_runs(self, showcase):
        assert lockstep_oracle(showcase) is None
        assert lockstep_oracle(LOOP, max_steps=3000) is None


class TestScheduledStretches:
    """A matrix stretch runs up to the next step at which the schedule may
    change the parameters, so a late override costs a few ``advance`` calls,
    not one per update. The operational route, whose enactor is rebuilt at
    every change of the parameters, is the oracle."""

    @staticmethod
    def counted_run(monkeypatch, *args, **kwargs):
        import caosim.simulate as sim

        limits = []
        real = sim.kernel.advance

        def counting(plan, compiled, state, limit, k=0):
            limits.append(limit)
            return real(plan, compiled, state, limit, k)

        monkeypatch.setattr(sim.kernel, "advance", counting)
        return run(*args, engine="matrix", **kwargs), limits

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_a_late_override_keeps_stretches_long(self, monkeypatch, backend):
        sched = ParameterSchedule.from_mapping(LOOP, {19_999: LOOP_REWEIGHTED}, default=LOOP)
        trace, limits = self.counted_run(
            monkeypatch, LOOP, max_steps=20_000, schedule=sched, backend=backend
        )
        assert len(limits) <= 25
        assert 1 in limits  # the override step is a stretch of its own
        oracle = run(LOOP, max_steps=20_000, engine="operational", schedule=sched)
        assert trace.steps == oracle.steps
        assert trace.termination == oracle.termination == "step-limit"

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_a_fixed_point_before_the_schedule_settles(self, monkeypatch, backend):
        chain = build_linear_chain(2, 3)
        base3 = with_parameters(chain, [((3,), (1,)), ((3,), (1,))])
        sched = ParameterSchedule.from_mapping(chain, {19_999: base3}, default=chain)
        trace, limits = self.counted_run(
            monkeypatch, chain, (9, 0, 0), max_steps=30_000, schedule=sched, backend=backend
        )
        assert len(limits) <= 25
        oracle = run(chain, (9, 0, 0), max_steps=30_000, engine="operational", schedule=sched)
        assert trace.steps == oracle.steps
        # 9 = 1001 in base 2 is fixed from step 2; the state is recorded at
        # every step until the schedule settles at 20,000
        assert trace.termination == oracle.termination == "fixed-point"
        assert trace.step_count == 20_000
        assert {s.state for s in trace.steps[2:]} == {(1, 0, 2)}


class TestConservedWeights:
    def test_showcase_weight_row(self, showcase):
        assert conserved_weights(showcase) == ((1, 1, 10, 4, 40, 0, 160),)

    def test_chain_weights_are_radix_powers(self):
        chain = build_linear_chain(10, 4)
        assert conserved_weights(chain) == ((1, 10, 100, 1000),)

    def test_long_chain_weights_stay_exact(self):
        # 200 pivots whose lcm is 7**199: elimination must keep its entries small
        chain = build_linear_chain(7, 200)
        assert conserved_weights(chain) == (tuple(7**i for i in range(200)),)

    def test_long_chain_dense_elimination_stays_exact(self):
        # the chain now takes the sweep; the elimination it took before, and
        # cyclic CAOs still take, must keep the same 200 pivots small
        chain = build_linear_chain(7, 200)
        assert rational.left_null_space(derive(chain).transition()) == (
            tuple(7**i for i in range(200)),
        )

    def test_weights_hold_along_the_showcase_run(self, showcase):
        report = check_conservation(run(showcase))
        assert report.ok
        assert report.constants == (200,)

    def test_drift_is_detected(self, showcase):
        good = run(showcase)
        (stretch,) = good.steps.stretches
        bent = CstTrace(
            spec=good.spec,
            engine=good.engine,
            termination=good.termination,
            steps=Steps([with_row(stretch, 1, state=(1, *good.steps[1].state[1:]))]),
        )
        report = check_conservation(bent)
        assert not report.ok
        assert report.failures[0][1] == 1  # step k

    def test_scheduled_trace_needs_explicit_weights(self):
        # base-3 radices at step 0, then the chain's own base 2: the base-2
        # weights (1, 2, 4) read 20, 14, 14 along this correct run
        chain = build_linear_chain(2, 3)
        base3 = with_parameters(chain, [((3,), (1,)), ((3,), (1,))])
        schedule = ParameterSchedule.from_mapping(chain, {0: base3}, default=chain)
        trace = run(chain, (20, 0, 0), schedule=schedule)
        assert [s.state for s in trace.steps] == [(20, 0, 0), (2, 6, 0), (0, 1, 3)]
        with pytest.raises(ValueError, match="schedule"):
            check_conservation(trace)
        # the total is no invariant here either, and explicit weights say so
        assert check_conservation(trace, [(1, 1, 1)]).failures == ((0, 1, 8), (0, 2, 4))
        # a constant schedule of the CAO's own parameters is a stationary run
        steady = run(chain, (20, 0, 0), schedule=ParameterSchedule.constant(chain))
        assert check_conservation(steady).ok

    @pytest.mark.parametrize(
        "row, match",
        [
            pytest.param([1], "1 entries", id="short"),
            pytest.param([1, 2, 4, 99], "4 entries", id="long"),
            pytest.param([1.9, 2, 4], "not an integer", id="float"),
            pytest.param([True, 2, 4], "not an integer", id="bool"),
        ],
    )
    def test_explicit_weight_rows_are_checked(self, row, match):
        # zipped and passed through int(), these read as drift, as conserved
        # with the 99 dropped, or as (1, 2, 4)
        trace = run(build_linear_chain(2, 3), (20, 0, 0))
        with pytest.raises(ValueError, match=match):
            check_conservation(trace, [row])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_every_basis_vector_annihilates_the_transition(self, seed):
        rng = random.Random(seed)
        spec = random_cao(rng)
        transition = derive(spec).transition()
        m = spec.m
        for w in conserved_weights(spec):
            for j in range(m):
                assert sum(w[i] * transition[i][j] for i in range(m)) == 0


def dense_weights(spec):
    """The elimination on Rᵀ − N that ``conserved_weights`` ran for every
    CAO before the sweep, and still runs for one whose plan has a cycle."""
    return rational.left_null_space(derive(spec).transition()) if spec.m else ()


def reordered(spec, order):
    """``spec`` with its entities declared in ``order`` (entity indices)."""
    return validate(
        spec.name, [spec.entities[i] for i in order], spec.operators, allow_cycles=True
    )


# F (a:2, b:3) attributes its one output to a, so b credits nothing and
# conserves nothing: w_b = 0
UNATTRIBUTED_TEXT = """\
cao unattributed {
  initial a
  initial b
  final c
  F (a:2, b:3) -> (c:1)
}
"""

# the description's cycle b -> c -> b runs through b, which the plan gives
# no edge, so the plan's edges a -> c -> {b, d} have none
UNATTRIBUTED_CYCLE_TEXT = """\
cao loose {
  initial a
  intermediate b
  intermediate c
  final d
  F (a:2, b:3) -> (c:1)
  D (c:2) -> (b:1, d:1)
}
"""


class TestSweptWeights:
    """``conserved_weights`` of a CAO whose plan edges are acyclic comes from
    the reverse-topological sweep, and must equal the dense elimination."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        """A list that grows by one for each ``rational.left_null_space`` call."""
        calls = []
        real = rational.left_null_space

        def counted(matrix):
            calls.append(len(matrix))
            return real(matrix)

        monkeypatch.setattr(rational, "left_null_space", counted)
        return calls

    def check(self, spec, eliminations):
        weights = conserved_weights(spec)
        assert not eliminations, "an acyclic plan took the dense elimination"
        assert weights == dense_weights(spec)
        eliminations.clear()
        return weights

    @pytest.mark.parametrize("max_inputs", [1, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_caos(self, seed, max_inputs, eliminations):
        # sizes up to 40 entities, declared in random_cao's shuffled order
        rng = random.Random(seed)
        for n in range(80):
            size = 2 + n % 39
            spec = random_cao(rng, min_entities=size, max_entities=size, max_inputs=max_inputs)
            self.check(spec, eliminations)

    @pytest.mark.parametrize("seed", range(6))
    def test_declaration_orders(self, seed, showcase, eliminations):
        rng = random.Random(seed)
        for spec in (showcase, random_cao(rng, max_entities=20)):
            n = kernel.plan_for(spec).n
            sinks_first = sorted(range(spec.m), key=lambda i: n[i] != 0)
            shuffled = rng.sample(range(spec.m), spec.m)
            for order in (sinks_first, range(spec.m - 1, -1, -1), shuffled):
                self.check(reordered(spec, order), eliminations)

    def test_no_operators_and_a_lone_entity(self, eliminations):
        inert = validate("inert", [Entity("a", Role.INITIAL), Entity("b", Role.FINAL)], [])
        assert self.check(inert, eliminations) == ((1, 0), (0, 1))
        lone = validate("lone", [Entity("a", Role.INITIAL)], [])
        assert self.check(lone, eliminations) == ((1,),)

    def test_an_unattributed_group_member_weighs_nothing(self, eliminations):
        spec = parse(UNATTRIBUTED_TEXT)
        assert self.check(spec, eliminations) == ((1, 0, 2),)

    def test_a_description_cycle_the_plan_does_not_have(self, eliminations):
        spec = parse(UNATTRIBUTED_CYCLE_TEXT, allow_cycles=True)
        assert self.check(spec, eliminations) == ((1, 0, 2, 4),)

    @pytest.mark.parametrize("base", [2, 3, 7, 10])
    def test_chains(self, base, eliminations):
        for length in (1, 2, 3, 40):
            chain = build_linear_chain(base, length)
            weights = self.check(chain, eliminations)
            assert weights == (tuple(base**i for i in range(length)),)
        # declared last link first, the dense path's free column is c0
        backwards = reordered(chain, range(chain.m - 1, -1, -1))
        assert self.check(backwards, eliminations) == (tuple(base**i for i in range(39, -1, -1)),)

    # in the loop, u's group F (g:2, u:2) attributes its output to g
    @pytest.mark.parametrize(
        "text, weights",
        [(LOOP_TEXT, ((1, 1, 1, 1, 2, 0, 1, 1),)), (GROWING_CYCLE_TEXT, ())],
        ids=["loop", "growing"],
    )
    def test_cyclic_caos_take_the_elimination(self, text, weights, eliminations):
        spec = parse(text, allow_cycles=True)
        assert _sweep_weights(kernel.plan_for(spec)) is None
        assert conserved_weights(spec) == weights
        assert eliminations == [spec.m]
        assert weights == dense_weights(spec)


class TestChains:
    def test_single_entity_chain(self):
        chain = build_linear_chain(10, 1)
        trace = run(chain, (7,))
        assert trace.fixed_point and trace.step_count == 0

    def test_digit_expansion(self):
        chain = build_linear_chain(16, 3)
        trace = run(chain, (4095, 0, 0))
        assert trace.final_state == (15, 15, 15)
        assert trace.step_count <= 2

    @pytest.mark.parametrize("base, length", [(2, 1), (2, 2), (3, 7), (10, 40), (16, 600)])
    def test_declared_forms_build_the_spec_validate_infers(self, base, length):
        # the links declare form L; formless links, whose form validate
        # infers, give an equal spec with an equal hash
        entities = [
            Entity(f"c{i}", Role.INITIAL if i == 0 else Role.FINAL if i == length - 1 else Role.INTERMEDIATE)
            for i in range(length)
        ]
        formless = [
            Operator(inputs=((f"c{i}", base),), outputs=((f"c{i + 1}", 1),))
            for i in range(length - 1)
        ]
        oracle = validate(f"chain{base}x{length}", entities, formless)
        chain = build_linear_chain(base, length)
        assert chain == oracle
        assert hash(chain) == hash(oracle)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_linear_chain(1, 3)
        with pytest.raises(ValueError):
            build_linear_chain(10, 0)


class TestGenerators:
    def test_same_seed_same_cao(self):
        a = random_cao(random.Random(42))
        b = random_cao(random.Random(42))
        assert a == b

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_respects_bounds_and_validates(self, seed):
        rng = random.Random(seed)
        spec = random_cao(rng, min_entities=3, max_entities=9, radix_range=(2, 5), coeff_range=(1, 4))
        assert 3 <= spec.m <= 9
        for op in spec.operators:
            assert all(2 <= n <= 5 for _, n in op.inputs)
            assert all(1 <= c <= 4 for _, c in op.outputs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_max_inputs_one_gives_only_L_and_D(self, seed):
        from caosim import Form

        rng = random.Random(seed)
        spec = random_cao(rng, max_inputs=1)
        assert all(op.form in (Form.L, Form.D) for op in spec.operators)

    def test_random_state_bounds(self, showcase):
        state = random_state(random.Random(3), showcase, limit=50)
        assert len(state) == showcase.m
        assert all(0 <= v <= 50 for v in state)


# The oracle for TraceStep: the same dataclass with its generated __init__.
@dataclass(frozen=True, slots=True)
class OracleTraceStep:
    k: int
    state: tuple[int, ...]
    partials: tuple[int, ...]
    common: tuple[int, ...]


TRACE_STEP_VALUES = [
    (0, (1, 2), (0, 1), (0, 1)),
    (7, (2**70, 0, 3), (2**69, 0, 1), (2**69, 0, 0)),
    (1, (), (), ()),
]


class TestTraceStep:
    @pytest.mark.parametrize("values", TRACE_STEP_VALUES)
    def test_constructs_as_the_generated_init(self, values):
        names = [f.name for f in dataclasses.fields(OracleTraceStep)]
        want = OracleTraceStep(*values)
        for got in (TraceStep(*values), TraceStep(**dict(zip(names, values)))):
            assert [f.name for f in dataclasses.fields(got)] == names
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
            assert repr(got) == repr(want).replace("OracleTraceStep", "TraceStep")
            assert hash(got) == hash(want)
        assert TraceStep.__match_args__ == OracleTraceStep.__match_args__
        assert TraceStep.__slots__ == OracleTraceStep.__slots__

    def test_bad_arguments_fail_as_the_generated_init(self):
        for args, kwargs in [
            ((1, (), ()), {}),
            ((1, (), (), (), ()), {}),
            ((1, (), (), ()), {"k": 2}),
            ((), {"k": 1, "state": (), "partials": (), "commons": ()}),
        ]:
            with pytest.raises(TypeError):
                OracleTraceStep(*args, **kwargs)
            with pytest.raises(TypeError):
                TraceStep(*args, **kwargs)

    def test_eq_and_hash_follow_the_values(self):
        pairs = [(a, b) for a in TRACE_STEP_VALUES for b in TRACE_STEP_VALUES]
        pairs.append((TRACE_STEP_VALUES[0], (0, (1, 2), (0, 1), (0, 2))))
        for a, b in pairs:
            assert (TraceStep(*a) == TraceStep(*b)) == (OracleTraceStep(*a) == OracleTraceStep(*b))
            assert (TraceStep(*a) != TraceStep(*b)) == (OracleTraceStep(*a) != OracleTraceStep(*b))
        assert TraceStep(*TRACE_STEP_VALUES[0]) != OracleTraceStep(*TRACE_STEP_VALUES[0])
        assert len({TraceStep(*v) for v in TRACE_STEP_VALUES * 2}) == len(TRACE_STEP_VALUES)

    def test_replace_pickle_and_copy(self):
        entry = TraceStep(*TRACE_STEP_VALUES[1])
        changed = replace(entry, k=8, common=(0, 0, 0))
        assert type(changed) is TraceStep
        assert changed == TraceStep(8, entry.state, entry.partials, (0, 0, 0))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(entry, protocol))
            assert again == entry and type(again) is TraceStep
        assert copy.copy(entry) == entry and copy.deepcopy(entry) == entry

    def test_frozen_as_the_generated_class(self):
        for cls in (OracleTraceStep, TraceStep):
            entry = cls(*TRACE_STEP_VALUES[0])
            for name in ("k", "state", "partials", "common"):
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                    setattr(entry, name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                    delattr(entry, name)
            assert not hasattr(entry, "__dict__")
        # before Python 3.14 the generated class refuses another name with a
        # TypeError; the entry refuses it as it refuses a field
        entry = TraceStep(*TRACE_STEP_VALUES[0])
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'other'$"):
            entry.other = 1
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'other'$"):
            del entry.other


class Big(int):
    """An int subclass: its instances can hold references, so a row that
    holds one must stay tracked by the garbage collector."""


def untracked_runs():
    """(spec, start, max_steps): the 8-entity loop, which stays in C, from
    its own start and from one whose fold lowers a carry on every update,
    and a 70-entity chain from beyond 2**63, which starts in big integers
    and goes back into int64 after 7 updates."""
    yield parse(LOOP_TEXT, allow_cycles=True), None, 300
    yield parse(LOWERING_LOOP_TEXT, allow_cycles=True), None, 300
    yield build_linear_chain(2, 70), (2**69 + 5,) + (0,) * 69, 100


def record_tuples(trace):
    """The tuples of a trace's records: each stretch's three rows and each
    update's changes, but for the empty tuple of a change-free update."""
    for stretch in trace.steps.stretches:
        yield from (stretch.state, stretch.partials, stretch.common)
        yield from filter(None, stretch.changes)


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled kernel not built")
class TestUntrackedRecords:
    @pytest.mark.parametrize("engine", ["matrix", "both"])
    def test_compiled_records_are_untracked(self, engine):
        for spec, start, max_steps in untracked_runs():
            trace = run(spec, start, max_steps=max_steps, engine=engine, backend="compiled")
            assert trace.step_count > 1
            assert not any(map(gc.is_tracked, record_tuples(trace)))

    def test_records_holding_an_int_subclass_stay_tracked(self):
        loop = parse(LOOP_TEXT, allow_cycles=True)
        chain = build_linear_chain(2, 70)
        for spec, start in [
            (loop, (Big(5),) + (1,) * 7),
            # the last entity keeps its Big until the carry reaches it
            (chain, (2**69 + 5,) + (0,) * 68 + (Big(3),)),
        ]:
            trace = run(spec, start, max_steps=100, engine="matrix", backend="compiled")
            held = [any(type(v) is not int for v in t) for t in record_tuples(trace)]
            assert held[0] and not all(held)
            assert [gc.is_tracked(t) for t in record_tuples(trace)] == held

    def test_the_pure_backend_builds_no_record_in_c(self):
        # with collection off, nothing but C can untrack a fresh tuple
        gc.disable()
        try:
            for spec, start, max_steps in untracked_runs():
                trace = run(spec, start, max_steps=max_steps, engine="matrix", backend="pure")
                assert all(map(gc.is_tracked, record_tuples(trace)))
        finally:
            gc.enable()

    def test_a_cycle_through_an_entry_is_collected(self):
        class Marker:
            pass

        value = Big(100012346)
        trace = run(LOOP, (value, 100012345) + (0,) * 6, max_steps=10, engine="matrix", backend="compiled")
        value.entry = trace.steps[0]  # value -> its __dict__ -> entry -> state -> value
        value.marker = Marker()
        alive = weakref.ref(value.marker)
        del value, trace
        gc.collect()
        assert alive() is None


needs_compiled = pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled kernel not built")


class TestRecordedEntries:
    """Every engine on either backend records the same entries, one per
    update, each with its own step number, across stretches, parameter
    changes and a fixed state padded until the schedule settles."""

    @pytest.mark.parametrize("max_steps", [3, 1500, 3000])
    def test_scheduled_runs_agree_across_backends_and_engines(self, max_steps):
        chain = build_linear_chain(2, 3)
        base3 = with_parameters(chain, [((3,), (1,)), ((3,), (1,))])
        # 8 is 22 in base 3, fixed from step 1 until base 2 moves it at step
        # 1500; the schedule settles after step 2600, stretches later
        sched = ParameterSchedule.from_mapping(chain, {1500: chain, 2600: chain}, default=base3)
        traces = [
            run(chain, (8, 0, 0), max_steps=max_steps, engine=engine, schedule=sched, backend=backend)
            for engine in ("matrix", "operational", "both")
            for backend in ("pure", "compiled")
        ]
        want = traces[0]
        assert [e.k for e in want.steps] == list(range(min(max_steps, 2601) + 1))
        states = [e.state for e in want.steps]
        assert set(states[1:1501]) == {(2, 2, 0)} and set(states[1501:]) <= {(0, 1, 1)}
        for got in traces[1:]:
            assert got.steps == want.steps and got.termination == want.termination
            assert [type(e) for e in got.steps] == [TraceStep] * len(want.steps)

    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_held_fixed_state_changes_nothing(self, engine, backend):
        # 8 is 22 in base 3, fixed from step 1 until base 2 moves it at step
        # 1500: each stretch up to there records the fixed state's updates
        # as changing nothing, and reads back the same three tuples at
        # consecutive steps
        chain = build_linear_chain(2, 3)
        base3 = with_parameters(chain, [((3,), (1,)), ((3,), (1,))])
        sched = ParameterSchedule.from_mapping(chain, {1500: chain}, default=base3)
        steps = run(chain, (8, 0, 0), max_steps=1600, engine=engine, schedule=sched, backend=backend).steps
        # from step 1501 on base 3 holds for good, so the run settles
        assert len(steps) > 1501 and [e.k for e in steps] == list(range(len(steps)))
        first, second, *_ = steps.stretches
        assert first.changes[1:] == [()] * 1022 and second.changes == [()] * 475
        for begin, end in [(1, 1024), (1024, 1500)]:  # the two stretches that hold (2, 2, 0)
            fixed, *rest = steps[begin:end]
            assert fixed.state == (2, 2, 0) and not any(fixed.common)
            for e in rest:
                assert e.state is fixed.state and e.partials is fixed.partials and e.common is fixed.common

    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("start", ["int64", "big"])
    def test_a_held_fixed_point_is_its_free_stretch_padded(self, start, engine, backend):
        # the chain from 2**10 settles after 10 updates, from 2**70 after 70;
        # held until the schedule may change the parameters at step 100, each
        # update after it is recorded as changing nothing, whichever route
        # took the stretch
        chain = build_linear_chain(2, 40 if start == "int64" else 80)
        state = ((2**10 if start == "int64" else 2**70),) + (0,) * (chain.m - 1)
        sched = ParameterSchedule.from_mapping(chain, {100: chain}, default=chain)
        free = run(chain, state, engine=engine, backend=backend)
        trace = run(chain, state, max_steps=100, engine=engine, schedule=sched, backend=backend)
        (unheld,) = free.steps.stretches
        held = trace.steps.stretches[0]
        n = unheld.updates
        assert free.fixed_point and trace.final_state == free.final_state and n < 100
        assert held.changes[: n - 1] == unheld.changes and held.changes[n - 1 :] == [()] * (100 - n)
        assert held.k == 0 and held.updates == 100
        rows = list(held.rows())
        assert rows[n:] == [rows[n - 1]] * (100 - n)
        assert all(row[0] is rows[n - 1][0] for row in rows[n:])


def recording_runs():
    """Calls of ``run`` that take every way a run records, as ``(args,
    keywords)`` without the engine and backend: the loop over 20,000
    updates, a scheduled run that holds the fixed point (2, 2, 0) of base 3
    from step 1 until base 2 moves it at step 1500, and the loop from
    k = 2**63 + 3, where the C enactor hands each stretch back to the
    Python one."""
    chain = build_linear_chain(2, 3)
    base3 = with_parameters(chain, [((3,), (1,)), ((3,), (1,))])
    sched = ParameterSchedule.from_mapping(chain, {1500: chain}, default=base3)
    return {
        "loop": ((LOOP,), {"max_steps": 20_000}),
        "held": ((chain, (8, 0, 0)), {"max_steps": 1600, "schedule": sched}),
        "2**63+3": ((LOOP, {"k": 2**63 + 3}), {"max_steps": 3000}),
    }


@contextmanager
def collector(enabled):
    """The cyclic garbage collector turned on or off for the block, and
    restored after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class Interrupting(int):
    """An int whose floor division is interrupted, as by Ctrl-C."""

    def __floordiv__(self, other):
        raise KeyboardInterrupt


class TestCollectorPaused:
    """``run`` pauses the cyclic garbage collector while it records, and
    leaves it as it found it on every way out."""

    @pytest.mark.parametrize("case", recording_runs())
    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_collection_starts_during_a_run(self, engine, backend, case):
        args, keywords = recording_runs()[case]
        started = []

        def note(phase, info):
            if phase == "start":
                started.append(info["generation"])

        threshold = gc.get_threshold()
        gc.collect()
        gc.set_threshold(100)  # a run records far more objects than this
        gc.callbacks.append(note)
        try:
            trace = run(*args, engine=engine, backend=backend, **keywords)
            during = len(started)
        finally:
            gc.callbacks.remove(note)
            gc.set_threshold(*threshold)
        assert gc.isenabled()
        assert trace.step_count > 1500
        assert during == 0

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_returning_run_leaves_the_collector_as_it_was(self, engine, backend, enabled):
        with collector(enabled):
            for args, keywords in recording_runs().values():
                run(*args, engine=engine, backend=backend, **keywords)
                assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
    def test_a_divergence_leaves_the_collector_as_it_was(self, monkeypatch, backend, enabled):
        TestLockStepOracle.corrupt_matrix(monkeypatch, kernel.advance, 1030, 1)
        with collector(enabled):
            with pytest.raises(EngineDivergenceError):
                run(LOOP, max_steps=2000, backend=backend)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_refused_state_leaves_the_collector_as_it_was(self, engine, backend, enabled):
        # check_state refuses the start at the first binding, inside the pause
        chain = build_linear_chain(2, 3)
        sched = ParameterSchedule.from_mapping(chain, {5: chain}, default=chain)
        with collector(enabled):
            with pytest.raises(ValueError, match="negative cardinal"):
                run(chain, (8, -1, 0), engine=engine, schedule=sched, backend=backend)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_interrupt_leaves_the_collector_as_it_was(self, engine, enabled):
        chain = build_linear_chain(2, 3)
        with collector(enabled):
            with pytest.raises(KeyboardInterrupt):
                run(chain, (Interrupting(9), 0, 0), engine=engine, backend="pure")
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_trace_does_not_depend_on_the_collector(self, engine, backend):
        for args, keywords in recording_runs().values():
            with collector(True):
                on = run(*args, engine=engine, backend=backend, **keywords)
            with collector(False):
                off = run(*args, engine=engine, backend=backend, **keywords)
            assert on == off


def full_rows(spec, state, max_steps, schedule=None):
    """The ``(state, partials, common)`` row of every step ``run`` records,
    each by ``matrix_step``, the paper's update applied literally to the
    matrices of the parameters in force: a fixed point ends the run only
    once the schedule can no longer change them."""
    sched = schedule if schedule is not None else ParameterSchedule.constant(spec)
    rows = []
    for k in range(max_steps + 1):
        spec_k, until = sched.span(k)
        nxt, p, pc = matrix_step(spec_k, state)
        rows.append((state, p, pc))
        if until is None and not any(pc):
            break
        state = nxt
    return rows


def oracle_conservation(trace, weights):
    """``check_conservation``'s report as it was made from full rows: one
    dot product per weight row and recorded state."""
    rows = tuple(tuple(w) for w in weights)
    start = trace.steps[0].state
    constants = tuple(sum(map(mul, w, start)) for w in rows)
    failures = []
    for entry in trace.steps[1:]:
        for r, w in enumerate(rows):
            value = sum(map(mul, w, entry.state))
            if value != constants[r]:
                failures.append((r, entry.k, value))
    return rows, constants, tuple(failures)


BACKENDS_BUILT = ["pure", "compiled"] if COMPILED_AVAILABLE else ["pure"]


class TestStepsReadBack:
    """``CstTrace.steps`` replays each stretch record into entries: every
    engine × backend run must read back as the full-row recording it
    replaced (``recorded`` over ``full_rows``), by value, through
    iteration, random access, slices and negative indices."""

    @staticmethod
    def case(rng, kind, side):
        """``(spec, start, max_steps, schedule)`` of one kind of run."""
        big = 2**63 if side == "above" else 0
        if kind == "loop":
            spec = parse(LOOP_TEXT, allow_cycles=True)
            start = tuple(rng.randrange(10**6) + (big if i == 7 else 0) for i in range(spec.m))
            return spec, start, rng.choice([3, 40, 1100]), None
        if kind == "growing":
            spec = parse(GROWING_CYCLE_TEXT, allow_cycles=True)
            start = (big + rng.randrange(2**20), rng.randrange(2**20), 0)
            return spec, start, rng.choice([3, 40, 300]), None
        if kind == "held":
            # base 3 until a schedule step: the fixed point is held until then
            chain = build_linear_chain(2, 3)
            base3 = with_parameters(chain, [((3,), (1,)), ((3,), (1,))])
            sched = ParameterSchedule.from_mapping(chain, {rng.choice([5, 1030]): chain}, default=base3)
            return chain, (big + rng.randrange(100), 0, 0), 1100, sched
        spec = random_cao(rng, max_entities=8)
        return spec, tuple(v + big for v in random_state(rng, spec)), 50, None

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["loop", "growing", "held", "acyclic"]),
        st.sampled_from(["below", "above"]),
    )
    def test_every_run_reads_back_as_the_recording(self, seed, kind, side):
        rng = random.Random(seed)
        spec, start, max_steps, sched = self.case(rng, kind, side)
        want = recorded(full_rows(spec, start, max_steps, sched))
        n = len(want)
        for engine in ENGINES:
            for backend in BACKENDS_BUILT:
                steps = run(spec, start, max_steps=max_steps, engine=engine, schedule=sched, backend=backend).steps
                assert len(steps) == n and list(steps) == want and steps == tuple(want)
                for _ in range(5):
                    i = rng.randrange(-n, n)
                    assert steps[i] == want[i]
                    a, b = rng.randrange(-n - 2, n + 2), rng.randrange(-n - 2, n + 2)
                    step = rng.choice([1, 2, 7, -1, -3])
                    assert steps[a:b:step] == tuple(want[a:b:step])
                with pytest.raises(IndexError):
                    steps[n]
                with pytest.raises(IndexError):
                    steps[-n - 1]

    def test_steps_compare_by_value(self):
        loop = parse(LOOP_TEXT, allow_cycles=True)
        compiled = run(loop, max_steps=1100, engine="matrix", backend=BACKENDS_BUILT[-1]).steps
        pure = run(loop, max_steps=1100, engine="matrix", backend="pure").steps
        operational = run(loop, max_steps=1100, engine="operational").steps
        assert compiled == pure == operational and not compiled != pure
        shorter = run(loop, max_steps=1099, engine="matrix").steps
        assert compiled != shorter and shorter != tuple(compiled)
        assert compiled[0] is not compiled[0] and compiled[0] == compiled[-len(compiled)]
        with pytest.raises(TypeError):
            hash(compiled)

    @dataclass(frozen=True)
    class Index:
        """Not an int, but an index to ``operator.index``."""

        value: int

        def __index__(self):
            return self.value

    @pytest.mark.parametrize(
        "i",
        [2, -4, 9, True, Index(2), Index(-9), 1.0, "a", None],
        ids=["int", "negative", "past-the-end", "bool", "index", "index-past-the-start", "float", "str", "None"],
    )
    def test_an_index_reads_as_it_does_on_a_tuple(self, showcase, i):
        steps = run(showcase).steps
        entries = tuple(steps)
        try:
            want = entries[i]
        except (IndexError, TypeError) as e:
            with pytest.raises(type(e), match="indices must be integers or slices, not |index out of range"):
                steps[i]
        else:
            assert steps[i] == want


class TestConservationByChanges:
    """``check_conservation`` moves w·x by each update's changes; the dot
    products of full rows it replaced are its oracle."""

    @pytest.mark.parametrize("backend", BACKENDS_BUILT)
    def test_matches_the_full_row_dot_products(self, backend):
        loop = parse(LOOP_TEXT, allow_cycles=True)
        chain = build_linear_chain(2, 40)
        base3 = with_parameters(build_linear_chain(2, 3), [((3,), (1,)), ((3,), (1,))])
        sched = ParameterSchedule.from_mapping(build_linear_chain(2, 3), {1030: build_linear_chain(2, 3)}, default=base3)
        runs = [
            (run(loop, max_steps=2100, engine="matrix", backend=backend), [(1,) * 8, (1, 1, 1, 1, 2, 0, 1, 1)]),
            (run(chain, (2**39 + 5,) + (0,) * 39, engine="both", backend=backend), [tuple(2**i for i in range(40))]),
            # the base-2 weights drift under base 3, a failure at every step
            (run(build_linear_chain(2, 3), (20, 0, 0), max_steps=1100, schedule=sched, backend=backend), [(1, 2, 4)]),
        ]
        for trace, weights in runs:
            report = check_conservation(trace, weights)
            assert (report.weights, report.constants, report.failures) == oracle_conservation(trace, weights)
        assert runs[2][0].steps.stretches[1].changes[0] == ()  # held updates changed nothing
        assert len(check_conservation(runs[2][0], [(1, 2, 4)]).failures) > 1000


class TestStretchRecord:
    """``Stretch`` replays its changes into rows, and ``Steps`` reads a run's
    records as entries, across stretch boundaries."""

    # m = 2: cells 0-1 the state, 2-3 the partials, 4-5 the common carries
    RECORD = Stretch(5, (9, 0), (4, 0), (4, 0), [(0, 1, 1, 8, 2, 0, 3, 4, 4, 0, 5, 4), (), (1, 0, 3, 0, 5, 0)])
    ROWS = [
        ((9, 0), (4, 0), (4, 0)),
        ((1, 8), (0, 4), (0, 4)),
        ((1, 8), (0, 4), (0, 4)),
        ((1, 0), (0, 0), (0, 0)),
    ]

    def test_rows_replay_the_changes(self):
        record = self.RECORD
        assert record.updates == 4 and list(record.rows()) == self.ROWS
        for start in range(6):
            for stop in range(6):
                assert list(record.rows(start, stop)) == self.ROWS[start:stop]
        # a change-free update reads back as the same tuples
        second, third = record.rows(1, 3)
        assert all(a is b for a, b in zip(second, third))

    def test_since_starts_a_record_at_an_update(self):
        assert self.RECORD.since(0) is self.RECORD
        for j in range(1, 4):
            later = self.RECORD.since(j)
            assert later.k == 5 + j and later.updates == 4 - j
            assert list(later.rows()) == self.ROWS[j:]
            assert later.changes is not self.RECORD.changes

    def test_steps_number_the_records_on(self):
        steps = Steps([self.RECORD._replace(k=0), self.RECORD._replace(k=4)])
        assert len(steps) == 8 and [e.k for e in steps] == list(range(8))
        assert [tuple(row[1:]) for row in steps.rows()] == self.ROWS * 2
        assert list(steps.rows(3, 6)) == [(k, *row) for k, row in zip(range(3, 6), (self.ROWS * 2)[3:6])]
        assert repr(steps) == "<Steps: 8 entries in 2 stretches>"

    def test_slices_cross_stretch_boundaries(self):
        loop = parse(LOOP_TEXT, allow_cycles=True)
        steps = run(loop, max_steps=3000, engine="matrix").steps
        assert len(steps.stretches) == 3
        entries = list(steps)
        for cut in (slice(1020, 1030), slice(2040, None), slice(None, None, -500), slice(3000, 1000, -7)):
            assert steps[cut] == tuple(entries[cut])
        assert steps[1024] == entries[1024] and steps[-1977] == entries[1024]

    def test_an_empty_slice_is_an_empty_tuple(self, showcase):
        steps = run(showcase).steps
        assert steps[2:2] == () and steps[5:] == () and steps[::-1] == tuple(reversed(list(steps)))

    def test_steps_equal_only_steps_and_tuples(self, showcase):
        steps = run(showcase).steps
        assert steps == tuple(steps) and tuple(steps) == steps
        assert steps != list(steps) and steps != None  # noqa: E711
        assert (steps == list(steps)) is False

    @pytest.mark.parametrize("engine", ["matrix", "operational"])
    def test_equal_first_carries_are_one_tuple(self, engine):
        chain, lowering = build_linear_chain(2, 5), parse(LOWERING_LOOP_TEXT, allow_cycles=True)
        for backend in BACKENDS_BUILT:
            (first,) = run(chain, (20, 0, 0, 0, 0), engine=engine, backend=backend).steps.stretches
            assert first.common is first.partials
            (first,) = run(lowering, max_steps=5, engine=engine, backend=backend).steps.stretches
            assert first.common != first.partials
