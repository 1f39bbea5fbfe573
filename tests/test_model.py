"""Construction and validation of CAO descriptions."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import caosim
from caosim import (
    Entity,
    Form,
    InvalidCaoError,
    Operator,
    Role,
    build_config_matrix,
    check,
    infer_form,
    parse,
    validate,
)
from caosim.kernel import plan_for
from conftest import SHOWCASE_TEXT


def ent(name, role=Role.INTERMEDIATE, start=0):
    return Entity(name, role, start)


def op(inputs, outputs, form=None):
    return Operator(tuple(inputs), tuple(outputs), form)


class TestInferForm:
    def test_the_four_valence_classes(self):
        assert infer_form(1, 1) is Form.L
        assert infer_form(1, 3) is Form.D
        assert infer_form(4, 1) is Form.F
        assert infer_form(2, 2) is Form.M

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_total_and_consistent(self, ins, outs):
        form = infer_form(ins, outs)
        assert (ins == 1) == (form in (Form.L, Form.D))
        assert (outs == 1) == (form in (Form.L, Form.F))

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            infer_form(0, 1)
        with pytest.raises(ValueError):
            infer_form(1, 0)


def codes(report):
    return [i.code for i in report.errors]


class TestValidation:
    def test_single_entity_no_operators_is_valid(self):
        spec = validate("unit", [ent("a", Role.INITIAL)], [])
        assert spec.m == 1
        assert spec.start_state() == (0,)

    def test_forms_are_inferred_and_kept(self):
        spec = validate(
            "two",
            [ent("a", Role.INITIAL), ent("b", Role.FINAL)],
            [op([("a", 2)], [("b", 1)])],
        )
        assert spec.operators[0].form is Form.L

    def test_declared_form_must_match_valence(self):
        report = check(
            "x",
            [ent("a"), ent("b"), ent("c")],
            [op([("a", 2)], [("b", 1), ("c", 1)], form=Form.L)],
        )
        assert "form-mismatch" in codes(report)

    def test_duplicate_entity_name(self):
        report = check("x", [ent("a"), ent("a")], [])
        assert "duplicate-name" in codes(report)

    def test_unknown_entity_reference(self):
        report = check("x", [ent("a")], [op([("a", 2)], [("zz", 1)])])
        assert "unknown-entity" in codes(report)

    def test_bad_radix_and_coefficient(self):
        report = check(
            "x",
            [ent("a"), ent("b")],
            [op([("a", 1)], [("b", 0)])],
        )
        assert "bad-radix" in codes(report)
        assert "bad-coefficient" in codes(report)

    def test_negative_start(self):
        report = check("x", [Entity("a", Role.INITIAL, -3)], [])
        assert "bad-start" in codes(report)

    @pytest.mark.parametrize(
        "radix, coeff, start, code",
        [
            (2.5, 1, 0, "bad-radix"),
            (2.0, 1, 0, "bad-radix"),
            (True, 1, 0, "bad-radix"),
            (2, 1.5, 0, "bad-coefficient"),
            (2, True, 0, "bad-coefficient"),
            (2, 1, 1.5, "bad-start"),
            (2, 1, False, "bad-start"),
        ],
    )
    def test_numbers_must_be_integers(self, radix, coeff, start, code):
        # a float or bool would reach the kernels, or be truncated on the way
        entities = [Entity("a", Role.INITIAL, start), Entity("b", Role.FINAL)]
        with pytest.raises(InvalidCaoError) as info:
            validate("x", entities, [op([("a", radix)], [("b", coeff)])])
        [issue] = info.value.report.errors
        assert issue.code == code and "not an integer" in issue.message

    def test_bad_names(self):
        assert "bad-name" in codes(check("9lives", [ent("a")], []))
        assert "bad-name" in codes(check("x", [ent("no spaces")], []))

    def test_entity_on_both_sides(self):
        report = check("x", [ent("a"), ent("b")], [op([("a", 2), ("b", 2)], [("a", 1)])])
        assert "self-loop" in codes(report)

    def test_duplicate_input_and_output(self):
        report = check(
            "x",
            [ent("a"), ent("b"), ent("c")],
            [op([("a", 2), ("a", 3)], [("b", 1), ("b", 2)])],
        )
        assert "duplicate-input" in codes(report)
        assert "duplicate-output" in codes(report)

    def test_entity_may_feed_only_one_operator(self):
        report = check(
            "x",
            [ent("a"), ent("b"), ent("c")],
            [op([("a", 2)], [("b", 1)]), op([("a", 3)], [("c", 1)])],
        )
        assert "multiple-outgoing-operators" in codes(report)

    def test_final_entity_must_not_feed_an_operator(self):
        report = check(
            "x",
            [ent("a", Role.FINAL), ent("b")],
            [op([("a", 2)], [("b", 1)])],
        )
        assert "final-entity-input" in codes(report)

    def test_operator_needs_both_sides(self):
        report = check("x", [ent("a")], [Operator((), (("a", 1),))])
        assert "bad-valence" in codes(report)

    def test_cycle_is_reported_with_its_path(self):
        report = check(
            "x",
            [ent("a", Role.INITIAL), ent("b")],
            [op([("a", 2)], [("b", 1)]), op([("b", 2)], [("a", 1)])],
        )
        assert "cycle-detected" in codes(report)
        message = next(i.message for i in report.errors if i.code == "cycle-detected")
        assert "a -> b -> a" in message or "b -> a -> b" in message

    def test_allow_cycles_accepts_feedback(self):
        spec = validate(
            "loop",
            [ent("a", Role.INITIAL, 7), ent("b")],
            [op([("a", 2)], [("b", 1)]), op([("b", 2)], [("a", 1)])],
            allow_cycles=True,
        )
        assert spec.m == 2

    def test_validate_raises_with_report_attached(self):
        with pytest.raises(InvalidCaoError) as exc:
            validate("x", [ent("a"), ent("a")], [])
        assert any(i.code == "duplicate-name" for i in exc.value.report.errors)


class TestWarnings:
    def test_intermediate_sink_gets_role_mismatch(self):
        report = check("x", [ent("a", Role.INITIAL), ent("b")], [op([("a", 2)], [("b", 1)])])
        assert report.ok
        assert any(w.code == "role-mismatch" and w.entity == "b" for w in report.warnings)

    def test_initial_sink_is_not_flagged(self):
        report = check("x", [ent("a", Role.INITIAL)], [])
        assert not report.warnings

    def test_unreachable_entity(self):
        report = check(
            "x",
            [ent("a", Role.INITIAL), ent("b", Role.FINAL), ent("c", Role.FINAL)],
            [op([("a", 2)], [("b", 1)])],
        )
        assert any(w.code == "unreachable-entity" and w.entity == "c" for w in report.warnings)


class TestConfigMatrix:
    def test_showcase_matrix(self, showcase):
        # Diagonal holds each entity's radix; every input row of an operator
        # repeats the coefficients toward its outputs.
        assert build_config_matrix(showcase) == (
            (10, 0, 1, 2, 0, 0, 0),
            (0, 8, 1, 2, 0, 0, 0),
            (0, 0, 8, 0, 2, 0, 0),
            (0, 0, 0, 10, 1, 3, 0),
            (0, 0, 0, 0, 4, 0, 1),
            (0, 0, 0, 0, 0, 2, 1),
            (0, 0, 0, 0, 0, 0, 0),
        )


def test_entity_index_lookup(showcase):
    assert showcase.index("h") == 6
    with pytest.raises(KeyError):
        showcase.index("nope")


class TestSpecHash:
    def test_equal_specs_hash_alike_and_share_a_plan(self):
        a, b = parse(SHOWCASE_TEXT), parse(SHOWCASE_TEXT)
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash((a.name, a.entities, a.operators))
        assert plan_for(a) is plan_for(b)
        other = replace(a, name="other")
        assert other != a and plan_for(other) is not plan_for(a)

    def test_a_pickled_spec_hashes_afresh_where_it_is_loaded(self):
        # String hashes differ between processes, so a spec hashed before it
        # was pickled must hash as an equal spec built in the loading one.
        dump = (
            "import pickle, sys; from caosim import build_linear_chain as chain; "
            "s = chain(3, 4); hash(s); sys.stdout.buffer.write(pickle.dumps(s))"
        )
        load = (
            "import pickle, sys; from caosim import build_linear_chain as chain; "
            "s = pickle.loads(sys.stdin.buffer.read()); "
            "print(s == chain(3, 4), hash(s) == hash(chain(3, 4)), {chain(3, 4): 1}.get(s))"
        )
        src = str(Path(caosim.__file__).resolve().parents[1])

        def python(code: str, hash_seed: str, stdin: bytes = b"") -> bytes:
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            return subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env,
                capture_output=True, check=True, timeout=60,
            ).stdout

        assert python(load, "2", python(dump, "1")) == b"True True 1\n"
