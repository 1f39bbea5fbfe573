"""The per-operator procedures, enacted literally."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from caosim import (
    NegativeComponentError,
    random_cao,
    random_state,
    resolve,
    step_operational,
)
from caosim.operational import enact
from conftest import SHOWCASE_TRAJECTORY, package_imports


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
        for _ in range(5):
            got = enact(operators, state)
            assert got == enact_every_operator(operators, state)
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
