"""Construction and validation of CAO descriptions."""

from __future__ import annotations

import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from dataclasses import dataclass, replace
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
from caosim.dsl import _scan
from caosim.kernel import plan_for
from conftest import LOOP_TEXT, SHOWCASE_TEXT, check_oracle


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


class TestCheckAgainstItsOracle:
    """``check`` proves each group of rules in bulk and walks only a group
    whose proof fails; ``check_oracle`` walks every rule item by item."""

    class Count(int):
        """An ``int`` subclass, which passes as an integer."""

    def mutations(self, spec, rng):
        """``spec`` as a raw description, and descriptions that change one
        field of it each, so that every rule fails somewhere."""
        name, ents, ops = spec.name, list(spec.entities), list(spec.operators)
        names = [e.name for e in ents]
        yield name, ents, ops
        for bad in ("", "9x", "a b", "é", None):
            yield bad, ents, ops
        for i, e in enumerate(ents):
            def put(**change):
                return name, [*ents[:i], replace(e, **change), *ents[i + 1:]], ops

            for bad in ("", "9a", "a-b", "é", f"{e.name}\n{e.name}", names[i - 1]):
                yield put(name=bad)
            for bad in (True, False, 1.5, -1, -(10**30), "3", self.Count(3)):
                yield put(start=bad)
            for role in (*Role, "final", "initial", None, 0):
                yield put(role=role)
        for k, o in enumerate(ops):
            def put(**change):
                return name, ents, [*ops[:k], replace(o, **change), *ops[k + 1:]]

            first, last = o.inputs[0][0], o.outputs[-1][0]
            yield put(inputs=())
            yield put(outputs=())
            yield put(inputs=o.inputs + (("undeclared", 2),))
            yield put(outputs=o.outputs + (("undeclared", 1),))
            yield put(inputs=o.inputs + o.inputs[:1])
            yield put(outputs=o.outputs + o.outputs[:1])
            yield put(outputs=o.outputs + ((first, 1),))
            for bad in (1, 0, -2, True, 2.0, "2", None, self.Count(2)):
                yield put(inputs=((first, bad), *o.inputs[1:]))
            for bad in (0, -1, True, 1.0, "1", self.Count(1)):
                yield put(outputs=(*o.outputs[:-1], (last, bad)))
            for form in (*Form, None):
                yield put(form=form)
            other = rng.choice(ops)
            yield put(inputs=o.inputs + other.inputs[-1:])  # an entity feeds two operators
            yield put(outputs=o.outputs + ((other.inputs[-1][0], 1),))  # a back edge, perhaps
            yield name, ents, [*ops[:k], *ops[k + 1:]]
        yield name, ents[::-1], ops
        yield name, ents, ops[::-1]  # acyclic, but not in declaration order

    def test_equal_reports_on_the_fuzz_corpus_and_its_mutations(self, fuzz_corpus):
        rng = random.Random(22)
        tripped = set()
        for spec, _ in fuzz_corpus[:120]:
            for description in self.mutations(spec, rng):
                for allow_cycles in (False, True):
                    try:
                        want = check_oracle(*description, allow_cycles=allow_cycles)
                    except TypeError:  # the oracle cannot read a name that is not a string
                        assert not all(isinstance(e.name, str) for e in description[1])
                        continue
                    assert check(*description, allow_cycles=allow_cycles) == want, description
                    tripped.update(i.code for i in want.issues)
        assert tripped == {
            "bad-name", "duplicate-name", "bad-start", "bad-role", "bad-valence", "unknown-entity",
            "duplicate-input", "duplicate-output", "self-loop", "bad-radix", "bad-coefficient",
            "form-mismatch", "final-entity-input", "multiple-outgoing-operators",
            "cycle-detected", "role-mismatch", "unreachable-entity",
        }

    def test_equal_reports_on_the_showcase_and_the_loop(self, showcase):
        loop = parse(LOOP_TEXT, allow_cycles=True)
        for spec in (showcase, loop):
            for allow_cycles in (False, True):
                description = (spec.name, spec.entities, spec.operators)
                want = check_oracle(*description, allow_cycles=allow_cycles)
                assert check(*description, allow_cycles=allow_cycles) == want
        assert [i.code for i in check(loop.name, loop.entities, loop.operators).issues] == ["cycle-detected"]

    @pytest.mark.parametrize("bad", [5, None, b"a", ("a",)])
    def test_a_name_that_is_not_a_string_is_a_bad_name(self, bad):
        entities = [Entity("a", Role.INITIAL), Entity(bad, Role.FINAL)]
        report = check("x", entities, [op([("a", 2)], [(bad, 1)])])
        assert [i.message for i in report.errors] == [f"entity name {bad!r} is not an identifier"]
        assert [i.code for i in check(bad, entities[:1], []).errors] == ["bad-name"]
        # operators that break rules are walked, and their inputs sorted, with the name among them
        entities.append(Entity("c", Role.FINAL))
        report = check("x", entities, [op([("a", 1)], [(bad, 1)]), op([(bad, 2), (bad, 2)], [("c", 1)])])
        assert [i.code for i in report.errors] == [
            "bad-name", "bad-radix", "duplicate-input", "final-entity-input", "final-entity-input",
            "multiple-outgoing-operators",
        ]

    def test_a_role_that_is_not_a_role_is_a_bad_role(self):
        # a string "final" role once escaped the final-entity-input rule,
        # and the spec validate returned could not be serialized
        entities = [Entity("a", "initial"), Entity("b", "final")]
        with pytest.raises(InvalidCaoError) as info:
            validate("x", entities, [op([("a", 2)], [("b", 1)])])
        assert [(i.code, i.entity) for i in info.value.report.errors] == [("bad-role", "a"), ("bad-role", "b")]
        assert info.value.report.errors[1].message == "entity 'b' has role 'final', which is not a Role"
        report = check("x", [Entity("a", Role.INITIAL), Entity("b", "final")], [op([("b", 2)], [("a", 1)])])
        assert codes(report) == ["bad-role"]

    def test_a_form_that_is_not_a_form_is_a_form_mismatch(self):
        entities = [Entity("a", Role.INITIAL), Entity("b", Role.FINAL)]
        report = check("x", entities, [op([("a", 2)], [("b", 1)], form="L")])
        [issue] = report.errors
        assert (issue.code, issue.operator) == ("form-mismatch", 0)
        assert issue.message == "operator #0 declared form 'L', which is not a Form; valence (1,1) implies L"

    def test_check_takes_linear_time(self):
        # every rule holds on a chain, and every link but the ring's closing
        # one points forward, so the ring takes the topological pass and the
        # reachability walk. A quadratic step would make four times the
        # entities take 16 times as long. The bound is 12, not 8, because
        # the bulk passes are bound by memory: on a shared 2-core x86-64
        # host even set(names) took 6 times as long for 20,000 names as for
        # 5,000. The timings run with the collector off, as a full
        # collection costs what the rest of the test run holds.
        def described(m, cyclic):
            if not cyclic:
                chain = caosim.build_linear_chain(2, m)
                return chain.name, chain.entities, chain.operators
            entities = [Entity(f"e{i}", Role.INITIAL if i == 0 else Role.INTERMEDIATE) for i in range(m)]
            return "ring", entities, [op([(f"e{i}", 2)], [(f"e{(i + 1) % m}", 1)], Form.L) for i in range(m)]

        def best(m, cyclic):
            args = described(m, cyclic)
            took = []
            gc.collect()
            gc.disable()
            try:
                for _ in range(3):
                    began = time.perf_counter()
                    report = check(*args, allow_cycles=cyclic)
                    took.append(time.perf_counter() - began)
            finally:
                gc.enable()
            assert report.issues == ()
            return min(took)

        for cyclic in (False, True):
            small_s, large_s = best(5_000, cyclic), best(20_000, cyclic)
            assert large_s < 12 * small_s, f"4x the entities: {large_s:.3f} s against {small_s:.3f} s"


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


# The oracles for Entity and Operator: the records as they were, with the
# dataclass's generated __init__ and an instance __dict__.
@dataclass(frozen=True)
class OracleEntity:
    name: str
    role: Role = Role.INTERMEDIATE
    start: int = 0


@dataclass(frozen=True)
class OracleOperator:
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]
    form: Form | None = None


RECORDS = [
    pytest.param(
        Entity, OracleEntity,
        [("a",), ("b", Role.FINAL), ("c", Role.INITIAL, 2**70), ("d", "final", 1.5), (None, None, None)],
        id="Entity",
    ),
    pytest.param(
        Operator, OracleOperator,
        [((("a", 2),), (("b", 1),)), ((("a", 2), ("b", 3)), (("c", 1),), Form.F), ((), (), "L"), ([], None, None)],
        id="Operator",
    ),
]


@pytest.mark.parametrize("cls, oracle, cases", RECORDS)
class TestRecordsAgainstTheirOracles:
    """``Entity`` and ``Operator`` are slotted and fill their slots by hand;
    all else must be what the generated dataclass gives."""

    @staticmethod
    def same(got, want) -> None:
        assert type(got).__name__ == type(want).__name__.removeprefix("Oracle")
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert repr(got) == repr(want).replace("Oracle", "", 1)

    def test_fields_match(self, cls, oracle, cases):
        def described(fields):
            return [(f.name, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare, f.kw_only) for f in fields]

        assert described(dataclasses.fields(cls)) == described(dataclasses.fields(oracle))
        assert cls.__match_args__ == oracle.__match_args__
        assert cls.__slots__ == oracle.__match_args__
        assert all(not hasattr(cls(*values), "__dict__") for values in cases)

    def test_constructs_as_the_generated_init(self, cls, oracle, cases):
        names = [f.name for f in dataclasses.fields(oracle)]
        for values in cases:
            want = oracle(*values)
            keywords = dict(zip(names, values))
            for got in (cls(*values), cls(**keywords), cls(values[0], **dict(zip(names[1:], values[1:])))):
                self.same(got, want)
            try:
                expected = hash(want)
            except TypeError:  # a field holds a list
                with pytest.raises(TypeError):
                    hash(cls(*values))
            else:
                assert hash(cls(*values)) == expected

    def test_bad_arguments_fail_as_the_generated_init(self, cls, oracle, cases):
        first = cases[1]
        name = dataclasses.fields(oracle)[0].name
        for args, kwargs in [((), {}), ((*first, 0, 0), {}), (first, {name: first[0]}), (first[:1], {"nope": 1})]:
            with pytest.raises(TypeError):
                oracle(*args, **kwargs)
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_eq_follows_the_values(self, cls, oracle, cases):
        for a in cases:
            for b in cases:
                assert (cls(*a) == cls(*b)) == (oracle(*a) == oracle(*b))
                assert (cls(*a) != cls(*b)) == (oracle(*a) != oracle(*b))
            assert cls(*a) != oracle(*a)

    def test_replace_pickle_and_copy(self, cls, oracle, cases):
        name = dataclasses.fields(oracle)[0].name
        for values in cases:
            record, want = cls(*values), oracle(*values)
            changed = replace(record, **{name: "z"})
            self.same(changed, replace(want, **{name: "z"}))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                again = pickle.loads(pickle.dumps(record, protocol))
                assert again == record
                self.same(again, want)
            for again in (copy.copy(record), copy.deepcopy(record)):
                assert again == record
                self.same(again, want)

    def test_frozen_as_the_generated_class(self, cls, oracle, cases):
        # a field or any other name, with the dataclass's own messages; the
        # slotted class's generated methods raised TypeError for another
        # name before Python 3.14
        for kind in (oracle, cls):
            record = kind(*cases[1])
            for name in (*kind.__match_args__, "other"):
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                    setattr(record, name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                    delattr(record, name)
        assert not hasattr(cls(*cases[1]), "other")


CHAIN_TEXT = """\
cao chain2x5 {
  initial c0
  intermediate c1
  intermediate c2
  intermediate c3
  final c4

  L (c0:2) -> (c1:1)
  L (c1:2) -> (c2:1)
  L (c2:2) -> (c3:1)
  L (c3:2) -> (c4:1)
}
"""


class TestOneSpecFiveWays:
    def test_equal_specs_hash_alike_and_share_a_plan(self):
        commented = "# a five-entity base-2 chain\n" + CHAIN_TEXT
        assert _scan(CHAIN_TEXT) is not None and _scan(commented) is None
        scanned = parse(CHAIN_TEXT)
        specs = [
            scanned,
            parse(commented),
            parse(caosim.serialize(scanned)),
            caosim.build_linear_chain(2, 5),
            caosim.with_parameters(scanned, [([2], [1])] * 4),
        ]
        # built apart: no two share a record, but for the entities
        # with_parameters keeps
        records = [id(r) for spec in specs for r in spec.operators]
        records += [id(r) for spec in specs[:4] for r in spec.entities]
        assert len(set(records)) == len(records)
        assert all(spec == scanned for spec in specs)
        assert len({hash(spec) for spec in specs}) == 1
        plan_for.cache_clear()
        plans = [plan_for(spec) for spec in specs]
        assert all(plan is plans[0] for plan in plans)
        assert plan_for.cache_info() == (4, 1, 1)


def test_enum_members_hash_by_identity():
    for member in (*Role, *Form):
        assert hash(member) == object.__hash__(member)


def test_a_valid_description_is_proven_in_bulk(fuzz_corpus, showcase, monkeypatch):
    # the item-by-item walks name the culprits of a group whose bulk proof
    # failed; a valid acyclic description must never reach them
    specs = [spec for spec, _ in fuzz_corpus] + [showcase, caosim.build_linear_chain(2, 600)]
    descriptions = [(spec.name, spec.entities, spec.operators) for spec in specs]
    wants = [check_oracle(*description) for description in descriptions]
    assert not any(want.errors for want in wants)

    def walked(*args, **kwargs):
        raise AssertionError("a valid description was walked")

    for fn in ("_entity_issues", "_operator_issues", "_find_cycle"):
        monkeypatch.setattr(caosim.model, fn, walked)
    for description, want in zip(descriptions, wants):
        assert check(*description) == want


class TestPerSpecCaches:
    """``plan_for``, ``derive``, ``resolve`` and ``entity_index`` cache per
    spec, for as long as the spec lives."""

    CACHED = (
        caosim.kernel.plan_for,
        caosim.engine.derive,
        caosim.operational.resolve,
        caosim.model.entity_index,
    )

    def test_a_dropped_spec_is_not_kept_alive(self):
        spec = caosim.build_linear_chain(2, 600)
        for fn in self.CACHED:
            fn(spec)
        caosim.kernel.bind(plan_for(spec), "compiled")
        kept = weakref.ref(spec)
        plan = weakref.ref(plan_for(spec))
        del spec
        gc.collect()
        assert kept() is None and plan() is None

    def test_equal_specs_share_an_entry_and_the_counts_are_kept(self):
        for fn in self.CACHED:
            fn.cache_clear()
            first, equal = parse(LOOP_TEXT, allow_cycles=True), parse(LOOP_TEXT, allow_cycles=True)
            assert first is not equal and first == equal
            value = fn(first)
            assert fn(first) is value and fn(equal) is value
            info = fn.cache_info()
            assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
            fn.cache_clear()
            assert fn.cache_info() == (0, 0, 0)
            assert fn(first) is not value and fn(first) == value
            del first, equal
            gc.collect()
            assert fn.cache_info().currsize == 0
