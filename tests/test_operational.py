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
from conftest import SHOWCASE_TRAJECTORY


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_effects_respect_the_procedure_laws(self, seed):
        # For every operator: the enacted carry is the minimum of the partial
        # carries, removals never exceed what an entity holds, and every
        # output gains exactly carry × coefficient.
        rng = random.Random(seed)
        spec = random_cao(rng)
        state = random_state(rng, spec)
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
