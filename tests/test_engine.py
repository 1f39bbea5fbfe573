"""Derived operators and the matrix-form update."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from caosim import (
    Entity,
    NegativeComponentError,
    Operator,
    ParameterSchedule,
    Role,
    ScheduleGapError,
    derive,
    parse,
    random_cao,
    random_state,
    run,
    step,
    validate,
    with_parameters,
)
from caosim.engine import _same_topology
from caosim.kernel import COMPILED_AVAILABLE
from conftest import (
    GROWING_CYCLE_TEXT,
    LOOP_TEXT,
    SHOWCASE_TRAJECTORY,
    common_carries,
    matrix_step,
    partial_carries,
    random_parameters,
    reciprocal_radices,
)

needs_extension = pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled kernel not built")

# The full operator family of the showcase CAO, worked out by hand from its
# parameters (entity order i, j, d, s, g, u, h).
SHOWCASE_N = (10, 8, 8, 10, 4, 2, 0)
SHOWCASE_TRANSITION = (
    (-10, 0, 0, 0, 0, 0, 0),
    (0, -8, 0, 0, 0, 0, 0),
    (1, 0, -8, 0, 0, 0, 0),
    (0, 2, 0, -10, 0, 0, 0),
    (0, 0, 2, 1, -4, 0, 0),
    (0, 0, 0, 3, 0, -2, 0),
    (0, 0, 0, 0, 1, 0, 0),
)


class TestDerive:
    def test_radix_diagonal(self, showcase):
        assert derive(showcase).n == SHOWCASE_N

    def test_exact_reciprocals(self, showcase):
        assert reciprocal_radices(derive(showcase)) == (
            Fraction(1, 10),
            Fraction(1, 8),
            Fraction(1, 8),
            Fraction(1, 10),
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(0),
        )

    def test_transition_matrix(self, showcase):
        assert derive(showcase).transition() == SHOWCASE_TRANSITION

    def test_carry_groups_are_the_multi_input_sets(self, showcase):
        assert derive(showcase).carry_groups == ((0, 1), (4, 5))

    def test_each_output_coefficient_lands_in_one_column(self, showcase):
        # Column sums of |Rᵀ| must equal the per-input share of coefficients:
        # every output is attributed to exactly one input, never smeared.
        rt = derive(showcase).rt
        total = sum(sum(row) for row in rt)
        coeff_total = sum(
            c for op in showcase.operators for _, c in op.outputs
        )
        assert total == coeff_total


class TestCarries:
    def test_partials_floor_componentwise(self, showcase):
        d = derive(showcase)
        assert partial_carries((100, 100, 0, 0, 0, 0, 0), d) == (10, 12, 0, 0, 0, 0, 0)
        assert partial_carries((9, 7, 7, 9, 3, 1, 99), d) == (0, 0, 0, 0, 0, 0, 0)

    def test_common_carries_take_group_minima(self, showcase):
        d = derive(showcase)
        # groups (i, j) and (g, u); d and s pass through untouched
        assert common_carries((10, 12, 5, 7, 3, 9, 0), d) == (10, 10, 5, 7, 3, 3, 0)

    def test_final_entities_never_carry(self, showcase):
        d = derive(showcase)
        p = partial_carries((0, 0, 0, 0, 0, 0, 10**9), d)
        assert p == (0,) * 7


class TestStep:
    def test_showcase_first_update(self, showcase):
        state0, pc0 = SHOWCASE_TRAJECTORY[0]
        state1, _ = SHOWCASE_TRAJECTORY[1]
        nxt, p, pc = step(showcase, state0)
        assert nxt == state1
        assert pc == pc0
        assert p == (10, 12, 0, 0, 0, 0, 0)

    def test_fixed_point_state_maps_to_itself(self, showcase):
        final, _ = SHOWCASE_TRAJECTORY[-1]
        nxt, _, pc = step(showcase, final)
        assert nxt == final
        assert pc == (0,) * 7

    def test_rejects_negative_components(self, showcase):
        with pytest.raises(NegativeComponentError):
            step(showcase, (1, -1, 0, 0, 0, 0, 0))

    def test_rejects_wrong_length(self, showcase):
        with pytest.raises(ValueError):
            step(showcase, (1, 2, 3))

    @pytest.mark.parametrize("value", [9.7, 9.0, True, "9"])
    def test_rejects_components_that_are_not_integers(self, showcase, value):
        with pytest.raises(ValueError, match="not an integer"):
            step(showcase, (100, value, 0, 0, 0, 0, 0))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_kernel_agrees_with_literal_matrix_arithmetic(self, seed):
        rng = random.Random(seed)
        spec = random_cao(rng)
        state = random_state(rng, spec)
        assert step(spec, state) == matrix_step(spec, state)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fold_is_identity_without_multi_input_operators(self, seed):
        rng = random.Random(seed)
        spec = random_cao(rng, max_inputs=1)
        state = random_state(rng, spec)
        assert derive(spec).carry_groups == ()
        assert matrix_step(spec, state, fold=True) == matrix_step(spec, state, fold=False)

    def test_literal_update_takes_the_hand_checked_trajectory(self, showcase):
        for (state, pc), (nxt, _) in zip(SHOWCASE_TRAJECTORY, SHOWCASE_TRAJECTORY[1:]):
            got, _, got_pc = matrix_step(showcase, state)
            assert (got, got_pc) == (nxt, pc)

    @pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_extension)])
    @pytest.mark.parametrize("text", [GROWING_CYCLE_TEXT, LOOP_TEXT], ids=["grow", "loop"])
    def test_kernel_agrees_with_literal_matrix_arithmetic_on_cycles(self, text, backend):
        # starts wholly below 2**63 and starts with components above it, on
        # the CAO's own parameters and on redrawn ones; the growing cycle
        # crosses the boundary mid-run
        rng = random.Random(63)
        cyclic = parse(text, allow_cycles=True)
        near = (
            lambda: rng.randrange(1000),
            lambda: 2**63 - 1 - rng.randrange(2**20),
            lambda: 2**63 + rng.randrange(2**20),
            lambda: rng.randrange(2**63, 2**70),
        )
        sides = set()
        for i in range(40):
            spec = random_parameters(rng, cyclic) if i % 2 else cyclic
            draws = near[:2] if i % 4 < 2 else near
            state = tuple(rng.choice(draws)() for _ in range(spec.m))
            sides.add(max(state) >= 2**63)
            for _ in range(30):
                got = step(spec, state, backend=backend)
                assert got == matrix_step(spec, state), f"{spec.name} from {state}"
                state = got[0]
        assert sides == {False, True}


def step_nonstationary(sched, state, k):
    return step(sched.spec_at(k), state)


def _single_link(radix):
    return validate(
        "link",
        [Entity("a", Role.INITIAL, 0), Entity("b", Role.FINAL, 0)],
        [Operator((("a", radix),), (("b", 1),))],
    )


def _links(*links, names=("a", "b", "c")):
    """A three-entity CAO with one L operator of radix 2 per (src, dst) link."""
    roles = (Role.INITIAL, Role.INTERMEDIATE, Role.FINAL)
    return validate(
        "links",
        [Entity(n, r, 0) for n, r in zip(names, roles)],
        [Operator(((src, 2),), ((dst, 1),)) for src, dst in links],
    )


class TestParameterChanges:
    def test_with_parameters_swaps_numbers_only(self, showcase):
        swapped = with_parameters(
            showcase,
            [((5, 3), (2, 4)), ((6,), (1,)), ((7,), (2, 2)), ((9, 9), (5,))],
        )
        assert swapped.names == showcase.names
        assert swapped.operators[0].inputs == (("i", 5), ("j", 3))
        assert swapped.operators[0].outputs == (("d", 2), ("s", 4))
        assert [o.form for o in swapped.operators] == [o.form for o in showcase.operators]

    def test_with_parameters_rejects_shape_mismatch(self, showcase):
        with pytest.raises(ValueError):
            with_parameters(showcase, [((5,), (2, 4))] * 4)
        with pytest.raises(ValueError):
            with_parameters(showcase, [((5, 3), (2, 4))])

    def test_with_parameters_revalidates(self, showcase):
        from caosim import InvalidCaoError

        with pytest.raises(InvalidCaoError):
            with_parameters(
                showcase,
                [((1, 3), (2, 4)), ((6,), (1,)), ((7,), (2, 2)), ((9, 9), (5,))],
            )

    def test_with_parameters_keeps_a_cyclic_base_cyclic(self):
        from caosim import InvalidCaoError

        ring = validate(
            "ring",
            [Entity("a", Role.INITIAL, 9), Entity("b", Role.INTERMEDIATE, 0)],
            [Operator((("a", 2),), (("b", 1),)), Operator((("b", 2),), (("a", 1),))],
            allow_cycles=True,
        )
        swapped = with_parameters(ring, [((3,), (2,)), ((5,), (1,))])
        assert swapped.operators[0].inputs == (("a", 3),)
        assert swapped.operators[0].outputs == (("b", 2),)
        assert swapped.operators[1].inputs == (("b", 5),)
        with pytest.raises(InvalidCaoError, match="bad-radix"):
            with_parameters(ring, [((1,), (2,)), ((5,), (1,))])

    @pytest.mark.parametrize(
        "radix, coeff, code",
        [(2.7, 1, "bad-radix"), (True, 1, "bad-radix"), (2, 1.5, "bad-coefficient"), (2, True, "bad-coefficient")],
    )
    def test_with_parameters_rejects_numbers_that_are_not_integers(self, radix, coeff, code):
        # int() would truncate 2.7 to 2 and 1.5 or True to 1
        from caosim import InvalidCaoError

        with pytest.raises(InvalidCaoError, match="not an integer") as info:
            with_parameters(_single_link(10), [((radix,), (coeff,))])
        assert [i.code for i in info.value.report.errors] == [code]

    def test_schedule_lookup_and_gaps(self):
        ten = _single_link(10)
        five = _single_link(5)
        sched = ParameterSchedule.from_mapping(ten, {0: ten, 2: five})
        assert sched.spec_at(0) is ten
        assert sched.spec_at(2) is five
        with pytest.raises(ScheduleGapError):
            sched.spec_at(1)
        filled = ParameterSchedule.from_mapping(ten, {2: five}, default=ten)
        assert filled.spec_at(1) is ten

    def test_span_with_a_default(self):
        ten, five, three = _single_link(10), _single_link(5), _single_link(3)
        sched = ParameterSchedule.from_mapping(ten, {3: five, 4: three, 9: five}, default=ten)
        # before, on, between and after the overrides
        assert [sched.span(k) for k in range(12)] == [
            (ten, 3), (ten, 3), (ten, 3),
            (five, 4), (three, 5),
            (ten, 9), (ten, 9), (ten, 9), (ten, 9),
            (five, 10),
            (ten, None), (ten, None),
        ]
        assert sched.span(10**30) == (ten, None)
        assert all(sched.spec_at(k) is sched.span(k)[0] for k in range(12))

    def test_span_without_a_default(self):
        five, three = _single_link(5), _single_link(3)
        sched = ParameterSchedule.from_mapping(five, {3: five, 4: three, 9: five})
        assert [sched.span(k) for k in (3, 4, 9)] == [(five, 4), (three, 5), (five, 10)]
        for gap in (0, 2, 5, 8, 10, 10**30):
            with pytest.raises(ScheduleGapError) as info:
                sched.span(gap)
            assert info.value.k == gap

    def test_span_of_an_empty_schedule(self):
        ten = _single_link(10)
        assert ParameterSchedule.constant(ten).span(0) == (ten, None)
        assert ParameterSchedule.from_mapping(ten, {}, default=ten).span(7) == (ten, None)
        with pytest.raises(ScheduleGapError):
            ParameterSchedule.from_mapping(ten, {}).span(0)

    @pytest.mark.parametrize("steps", [(9, 3), (3, 3)])
    def test_schedule_steps_must_increase(self, steps):
        # from_mapping sorts its keys; a hand-built schedule must list its
        # steps in order, each once
        ten = _single_link(10)
        with pytest.raises(ValueError, match=f"step {steps[1]} does not follow step {steps[0]}"):
            ParameterSchedule(ten, tuple((k, ten) for k in steps), default=ten)
        assert ParameterSchedule(ten, ((3, ten), (9, ten))).span(3) == (ten, 4)

    @pytest.mark.parametrize("k", [1.5, True, "3"])
    def test_schedule_rejects_steps_that_are_not_integers(self, k):
        # 1.5 would reach the kernel as a stretch limit; True would be step 1
        ten = _single_link(10)
        with pytest.raises(ValueError, match="not an integer"):
            ParameterSchedule.from_mapping(ten, {k: ten}, default=ten)
        with pytest.raises(ValueError, match="not an integer"):
            ParameterSchedule(ten, ((k, ten),), default=ten)

    def test_schedule_rejects_different_topology(self, showcase):
        with pytest.raises(ValueError):
            ParameterSchedule.from_mapping(showcase, {0: _single_link(10)})

    @pytest.mark.parametrize(
        "other",
        [
            pytest.param(_links(("a", "b"), names=("a", "b", "d")), id="entity names"),
            pytest.param(_links(("a", "b"), ("b", "c")), id="operator count"),
            pytest.param(_links(("a", "c")), id="output wiring"),
            pytest.param(_links(("b", "c")), id="input wiring"),
        ],
    )
    def test_same_topology_tells_wirings_apart(self, other):
        base = _links(("a", "b"))
        assert not _same_topology(base, other) and not _same_topology(other, base)
        # parameters alone do not change the topology
        assert _same_topology(base, with_parameters(base, [((7,), (3,))]))
        with pytest.raises(ValueError, match="^default parameters change the topology$"):
            ParameterSchedule(base, (), default=other)
        with pytest.raises(ValueError, match="^parameters for step 2 change the topology$"):
            ParameterSchedule.from_mapping(base, {2: other}, default=base)

    @pytest.mark.parametrize("steps", [{"3": 0, 1: 0}, {1: 0, "3": 0}, {2: 0, 1.5: 0, 0: 0}])
    def test_from_mapping_refuses_keys_of_mixed_types(self, steps):
        # sorted() alone would raise TypeError on "3" against 1
        ten = _single_link(10)
        bad = next(k for k in steps if type(k) is not int)
        with pytest.raises(ValueError, match=f"^schedule step {bad!r} is not an integer$"):
            ParameterSchedule.from_mapping(ten, dict.fromkeys(steps, ten), default=ten)

    def test_schedule_rejects_negative_steps(self):
        ten = _single_link(10)
        with pytest.raises(ValueError):
            ParameterSchedule.from_mapping(ten, {-1: ten})

    def test_constant_schedule(self, showcase):
        sched = ParameterSchedule.constant(showcase)
        assert sched.is_constant()
        assert sched.spec_at(0) is showcase
        assert sched.spec_at(10**6) is showcase

    def test_nonstationary_steps_use_the_scheduled_radix(self):
        ten = _single_link(10)
        five = _single_link(5)
        sched = ParameterSchedule.from_mapping(ten, {0: ten}, default=five)
        # 27 under radix 10, then radix 5 from step 1 on
        s1, _, pc0 = step_nonstationary(sched, (27, 0), 0)
        assert (s1, pc0) == ((7, 2), (2, 0))
        s2, _, pc1 = step_nonstationary(sched, s1, 1)
        assert (s2, pc1) == ((2, 3), (1, 0))
        s3, _, pc2 = step_nonstationary(sched, s2, 2)
        assert s3 == (2, 3) and pc2 == (0, 0)

    def test_run_declares_fixed_points_only_once_parameters_settle(self):
        ten = _single_link(10)
        sched = ParameterSchedule.from_mapping(ten, {3: ten}, default=ten)
        trace = run(ten, (0, 0), schedule=sched)
        # carries vanish from the start, but the schedule could still change
        # parameters until step 3; only there may the run settle
        assert trace.fixed_point
        assert trace.steps[-1].k == 4
