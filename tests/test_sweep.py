"""The one-sweep fixed point, a third route to an acyclic CAO's end state."""

from __future__ import annotations

import pytest

from caosim import fixed_point, parse
from caosim.model import check_state
from conftest import GROWING_CYCLE_TEXT, LOOP_TEXT, SHOWCASE_TRAJECTORY, package_imports


def test_the_sweep_is_a_third_route():
    # It checks the stepping routes only while it shares none of their code.
    assert package_imports("sweep") == {"model"}
    for module in ("kernel", "engine", "operational"):
        assert "sweep" not in package_imports(module)


def test_showcase_end_state_and_firing_totals(showcase):
    final, totals = fixed_point(showcase, showcase.start_state())
    assert final == SHOWCASE_TRAJECTORY[-1][0]
    # M fires 10 times, L once, D twice and F once: the common carries of
    # the hand-checked trajectory, summed per operator
    assert totals == (10, 1, 2, 1)


def test_an_operator_fires_as_often_as_its_scarcest_input():
    # F takes 3 parts of a for each 5 of b: 10 // 3 = 3 against 26 // 5 = 5
    spec = parse("cao f { initial a\n initial b\n final c\n F (a:3, b:5) -> (c:7) }")
    assert fixed_point(spec, (10, 26, 1)) == ((1, 11, 22), (3,))


@pytest.mark.parametrize("text", [LOOP_TEXT, GROWING_CYCLE_TEXT])
def test_a_cycle_is_refused(text):
    spec = parse(text, allow_cycles=True)
    with pytest.raises(ValueError, match="has a cycle"):
        fixed_point(spec, (1,) * spec.m)


@pytest.mark.parametrize(
    "state",
    [
        (100, 100),
        (0,) * 8,
        (0, 0, -1, 0, 0, 0, 0),
        (0, True, 0, 0, 0, 0, 0),
        (0, 0, 0, 2.0, 0, 0, 0),
    ],
)
def test_refuses_what_check_state_refuses(showcase, state):
    with pytest.raises(ValueError) as want:
        check_state(showcase, state)
    with pytest.raises(type(want.value)) as got:
        fixed_point(showcase, state)
    assert str(got.value) == str(want.value)

