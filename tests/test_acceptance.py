"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints a single PASS line with its measured numbers; a failing
criterion shows up as the test's failure. Seeds are fixed so the whole gate
is reproducible run to run.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from caosim import (
    DslError,
    ParameterSchedule,
    ScheduleGapError,
    build_linear_chain,
    check_conservation,
    compare_engines,
    conserved_weights,
    derive,
    fixed_point,
    parse,
    random_cao,
    random_state,
    run,
    serialize,
    step,
    verify_conservation,
    with_parameters,
)
from caosim.kernel import COMPILED_AVAILABLE
from conftest import (
    CORPUS_SIZE,
    GROWING_CYCLE_TEXT,
    SHOWCASE_TEXT,
    SHOWCASE_TRAJECTORY,
    matrix_step,
    random_parameters,
)


def test_criterion_1_golden_trace(showcase):
    began = time.perf_counter()
    trace = run(showcase, engine="both")
    elapsed = time.perf_counter() - began

    assert trace.termination == "fixed-point"
    assert trace.step_count == 3
    assert tuple(s.state for s in trace.steps) == tuple(s for s, _ in SHOWCASE_TRAJECTORY)
    assert tuple(s.common for s in trace.steps) == tuple(c for _, c in SHOWCASE_TRAJECTORY)
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden trace exact, fixed point at step 3 ({elapsed:.4f}s)")


@pytest.mark.parametrize(
    "backend",
    [
        "pure",
        pytest.param(
            "compiled",
            marks=pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled kernel not built"),
        ),
    ],
)
def test_criterion_2_engine_equivalence(fuzz_corpus, backend):
    assert len(fuzz_corpus) >= 1000
    began = time.perf_counter()
    steps_total = 0
    for spec, state in fuzz_corpus:
        report = compare_engines(spec, state, max_steps=50, backend=backend)
        assert report.equal, f"{spec.name}: {report.divergence}"
        steps_total += report.steps_compared
    elapsed = time.perf_counter() - began

    assert elapsed < 60.0
    print(
        f"PASS criterion 2 ({backend} kernel): {len(fuzz_corpus)} CAOs lock-step on "
        f"both engines, {steps_total} steps compared, zero divergences ({elapsed:.2f}s)"
    )


GROWING_CYCLE = parse(GROWING_CYCLE_TEXT, allow_cycles=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 50), st.booleans(), st.booleans())
# the whole run in big integers; a run leaving int64 and going back 25 times;
# one going back 42 times under a schedule; an acyclic run with a multi-update
# big-integer stretch; under a schedule: a state fixed before a run of
# consecutive overrides, on the acyclic CAO and on the cycle; a fixed point
# declared once the schedule settles; a gap at step 39 after the overrides of
# a schedule without a default
@example(0, 50, True, False)
@example(140, 50, True, False)
@example(118, 50, True, True)
@example(768, 50, False, False)
@example(0, 50, False, True)
@example(66, 50, True, True)
@example(5, 50, False, True)
@example(14, 50, False, True)
def test_criterion_2_routes_agree_across_int64(seed, max_steps, cyclic, scheduled):
    rng = random.Random(seed)
    spec = GROWING_CYCLE if cyclic else random_cao(rng)
    draws = (
        lambda: rng.randrange(1000),
        lambda: rng.randrange(2**54, 2**63),
        lambda: 2**63 + rng.randrange(-64, 64),
        lambda: rng.randrange(2**70),
    )
    state = tuple(rng.choice(draws)() for _ in range(spec.m))
    schedule = None
    if scheduled:
        # Overrides at 4 random steps or on a run of consecutive ones, the
        # last of them often past the end of the run. A matrix stretch ends at
        # each override, and a run is often fixed before the schedule settles,
        # so its state is recorded again at every step until then. Without a
        # default the overrides start at step 0 and every step after them is
        # a gap, which each route must report at the same step. The
        # operational route is rebuilt at every change of the parameters.
        default = rng.choice([None, spec, random_parameters(rng, spec)])
        start = 0 if default is None else rng.randrange(60)
        if default is not None and rng.random() < 0.5:
            keys = rng.sample(range(60), 4)
        else:
            keys = range(start, start + rng.randint(1, 60))
        # an override may also hold the CAO's own parameters
        pool = (spec, random_parameters(rng, spec), random_parameters(rng, spec))
        overrides = {k: rng.choice(pool) for k in keys}
        schedule = ParameterSchedule.from_mapping(spec, overrides, default=default)

    def outcome(**route):
        try:
            trace = run(spec, state, max_steps=max_steps, schedule=schedule, **route)
        except ScheduleGapError as gap:
            return gap.k
        return trace.steps, trace.termination

    compiled = outcome(engine="matrix", backend="compiled")
    assert outcome(engine="matrix", backend="pure") == compiled
    assert outcome(engine="operational") == compiled
    assert outcome(engine="both") == compiled


def test_criterion_3_conservation(showcase, fuzz_corpus):
    # the showcase weight row is known in closed form and stays at 200
    assert conserved_weights(showcase) == ((1, 1, 10, 4, 40, 0, 160),)
    report = verify_conservation(run(showcase))
    assert report.constants == (200,)

    vectors_checked = 0
    for spec, state in fuzz_corpus:
        trace = run(spec, state, engine="matrix", max_steps=50)
        fuzz_report = check_conservation(trace)
        assert fuzz_report.ok, f"{spec.name}: {fuzz_report.failures[:3]}"
        vectors_checked += len(fuzz_report.weights)

    print(
        f"PASS criterion 3: showcase weight constant 200; {vectors_checked} basis "
        f"vectors exactly constant across {len(fuzz_corpus)} fuzzed traces"
    )


def _digits(value: int, base: int) -> list[int]:
    if value == 0:
        return [0]
    out = []
    v = value
    while v:
        v, digit = divmod(v, base)
        out.append(digit)
    return out


def test_criterion_4_classical_numeration():
    rng = random.Random(0xD161)
    conversions = 0
    for _ in range(1000):
        v = rng.randrange(10**12)
        for base in (2, 8, 10, 16):
            digits = _digits(v, base)
            length = len(digits)
            chain = build_linear_chain(base, length)
            trace = run(chain, [v] + [0] * (length - 1), max_steps=max(length - 1, 0))
            assert trace.fixed_point, f"{v} base {base} not settled in {length - 1} steps"
            assert trace.final_state == tuple(digits), f"{v} base {base}"
            conversions += 1
    print(
        f"PASS criterion 4: {conversions} chain runs converged to the exact "
        f"digits within length-1 steps (1000 values x bases 2/8/10/16)"
    )


def test_criterion_5_no_fold_degenerate_case():
    rng = random.Random(0x1D)
    for i in range(200):
        spec = random_cao(rng, max_inputs=1, name=f"ld{i}")
        state = random_state(rng, spec)
        for _ in range(50):
            full = matrix_step(spec, state, fold=True)
            plain = matrix_step(spec, state, fold=False)
            assert full == plain
            assert step(spec, state) == full
            state = full[0]
            if not any(full[2]):
                break
    print(
        "PASS criterion 5: 200 L/D-only CAOs trace identically with and "
        "without the common-carry fold"
    )


def test_criterion_6_nonstationary(showcase, fuzz_corpus):
    # constant schedules must be indistinguishable from plain stationary runs
    pairs = [(showcase, None)] + [
        (spec, state) for spec, state in fuzz_corpus[:100]
    ]
    for spec, state in pairs:
        plain = run(spec, state, max_steps=50)
        scheduled = run(
            spec, state, max_steps=50, schedule=ParameterSchedule.constant(spec)
        )
        assert scheduled.steps == plain.steps
        assert scheduled.termination == plain.termination

    # hand-worked example: 27 divided by radix 10 once, then by radix 5
    shrink = parse(
        "cao shrink { initial a = 27\n final b\n L (a:10) -> (b:1) }"
    )
    slower = with_parameters(shrink, [((5,), (1,))])
    schedule = ParameterSchedule.from_mapping(shrink, {0: shrink}, default=slower)
    trace = run(shrink, schedule=schedule)
    assert tuple(s.state for s in trace.steps) == ((27, 0), (7, 2), (2, 3))
    assert trace.fixed_point
    print(
        "PASS criterion 6: constant schedules bit-for-bit stationary on 101 CAOs; "
        "radix 10-then-5 example walks (27,0)->(7,2)->(2,3)"
    )


def test_criterion_7_round_trips(showcase, fuzz_corpus):
    assert parse(serialize(showcase)) == showcase
    for spec, _ in fuzz_corpus:
        assert parse(serialize(spec)) == spec, spec.name

    # every way of breaking the text must fail with a located diagnostic
    failures = 0
    for cut in range(len(SHOWCASE_TEXT)):
        try:
            parse(SHOWCASE_TEXT[:cut])
        except DslError as exc:
            failures += 1
            assert exc.diagnostics, "failure without diagnostics"
            for diag in exc.diagnostics:
                assert diag.span.line >= 1
                assert diag.span.column >= 1
                assert 0 <= diag.span.start <= diag.span.end
    assert failures > len(SHOWCASE_TEXT) // 2, "the sweep should mostly fail"
    print(
        f"PASS criterion 7: parse-serialize identity on {CORPUS_SIZE} fuzzed CAOs "
        f"+ showcase; {failures} truncated parses all carried source spans"
    )



def test_criterion_8_one_sweep_fixed_point(fuzz_corpus):
    """The one-sweep fixed point agrees with both stepping routes, on both
    backends, and its firing totals account for every stepped trace: they
    are each operator's summed common carries, and x_final = x₀ + B·Σu with
    B = Rᵀ − N."""
    rng = random.Random(0x5EE9)
    backends = ["pure", "compiled"] if COMPILED_AVAILABLE else ["pure"]
    routes = [dict(engine="matrix", backend=b) for b in backends] + [dict(engine="operational")]
    cases = []
    for spec, state in fuzz_corpus:
        cases += [
            (spec, state),
            (spec, random_state(rng, spec, 10**12)),
            (spec, tuple(rng.randrange(2**63, 2**70) for _ in range(spec.m))),
        ]
    for base in (2, 3, 10, 16):
        for length in (1, 2, 17, 300, 2000):
            chain = build_linear_chain(base, length)
            for value in (rng.randrange(1000), rng.randrange(10**12), rng.randrange(2**63, 2**70)):
                cases.append((chain, (value,) + (0,) * (length - 1)))
            if length <= 300:  # a value that fills every digit
                value = rng.randrange(base ** (length - 1), base**length)
                cases.append((chain, (value,) + (0,) * (length - 1)))

    began = time.perf_counter()
    transitions = {}
    for spec, start in cases:
        final, totals = fixed_point(spec, start)
        fired = [0] * spec.m  # Σu: each input entity carries its operator's total
        for o, op in enumerate(spec.operators):
            for e, _ in op.inputs:
                fired[spec.index(e)] = totals[o]
        for route in routes:
            # an acyclic CAO settles within one update per entity
            trace = run(spec, start, max_steps=spec.m, **route)
            assert trace.fixed_point, (spec.name, route)
            assert trace.final_state == final, (spec.name, route)
            assert [sum(c) for c in zip(*(s.common for s in trace.steps))] == fired, spec.name
        if spec not in transitions:
            transitions[spec] = derive(spec).transition()
        b = transitions[spec]
        moved = [i for i, u in enumerate(fired) if u]
        for j in range(spec.m):
            assert final[j] == start[j] + sum(b[j][i] * fired[i] for i in moved), spec.name
    elapsed = time.perf_counter() - began
    print(
        f"PASS criterion 8: one-sweep fixed point equals matrix ({'/'.join(backends)}) "
        f"and operational end states on {len(cases)} starts, firing totals exact ({elapsed:.2f}s)"
    )
