"""The command-line interface, driven through main()."""

from __future__ import annotations

import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

import caosim.cli
from caosim import build_linear_chain, serialize
from caosim.cli import EXIT_ERROR, EXIT_OK, EXIT_STEP_LIMIT, main
from conftest import LOOP_TEXT, SHOWCASE_TEXT

# Python's limit on the digits int() converts; 0 where it sets none
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.fixture()
def showcase_file(tmp_path):
    path = tmp_path / "showcase.cao"
    path.write_text(SHOWCASE_TEXT)
    return str(path)


class TestValidate:
    def test_ok(self, showcase_file, capsys):
        assert main(["validate", showcase_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok: showcase (7 entities, 4 operators)" in out

    def test_errors_go_to_stderr_with_positions(self, tmp_path, capsys):
        path = tmp_path / "bad.cao"
        path.write_text("cao x {\n  initial a = 3\n  L (a:1) -> (b:1)\n}\n")
        assert main(["validate", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{path}:3:3: error[unknown-entity]" in err
        assert f"{path}:3:3: error[bad-radix]" in err

    def test_warnings_do_not_fail(self, tmp_path, capsys):
        path = tmp_path / "warn.cao"
        path.write_text("cao x {\n  initial a\n  intermediate b\n  L (a:2) -> (b:1)\n}\n")
        assert main(["validate", str(path)]) == EXIT_OK
        assert "warning[role-mismatch]" in capsys.readouterr().err

    @pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() converts any number of digits")
    def test_a_number_past_the_digit_limit_is_a_diagnostic(self, tmp_path, capsys):
        # int() raised, and validate printed "error: Exceeds the limit …" with no position
        digits = INT_MAX_STR_DIGITS + 1
        path = tmp_path / "big.cao"
        path.write_text(f"cao x {{\n  initial a = {'7' * digits}\n  final b\n  L (a:2) -> (b:1)\n}}\n")
        assert main(["validate", str(path)]) == EXIT_ERROR
        assert capsys.readouterr() == (
            "",
            f"{path}:2:15: error[bad-number]: the start value has {digits} digits; "
            f"Python converts at most {INT_MAX_STR_DIGITS} (see PYTHONINTMAXSTRDIGITS)\n",
        )

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.cao"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SHOWCASE_TEXT))
        assert main(["validate", "-"]) == EXIT_OK
        assert "<stdin>" not in capsys.readouterr().err


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("engine", ["both", "matrix", "operational"])
def test_readme_quick_start_prints_its_table(tmp_path, capsys, engine, backend):
    # the quick start's CAO, and the table printed under its command line
    cao = re.search(r"^cao counter \{\n.*?^\}\n", README, re.M | re.S).group(0)
    table = re.search(r"^\$ caosim simulate counter\.cao\n(.*?)^```", README, re.M | re.S).group(1)
    path = tmp_path / "counter.cao"
    path.write_text(cao)
    argv = ["simulate", str(path), "--engine", engine, "--backend", backend]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == table.replace("engine=both", f"engine={engine}", 1)


RING_TEXT = "cao ring {\n  initial a = 9\n  intermediate b\n  L (a:2) -> (b:1)\n  L (b:2) -> (a:1)\n}\n"
# step 0 under radix 3 and coefficient 2 on a's operator, the base after it
RING_SCHEDULE = json.dumps(
    {
        "default": "base",
        "steps": {
            "0": {
                "operators": [
                    {"radices": [3], "coefficients": [2]},
                    {"radices": [2], "coefficients": [1]},
                ]
            }
        },
    }
)
RING_TABLE = """\
# cao ring engine={engine} termination=fixed-point
# k  a  b  p.a  p.b
  0  9  0    3    0
  1  0  6    0    3
  2  3  0    1    0
  3  1  1    0    0
"""


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("engine", ["both", "matrix", "operational"])
def test_a_cyclic_cao_takes_a_schedule(tmp_path, capsys, engine, backend):
    path = tmp_path / "ring.cao"
    path.write_text(RING_TEXT)
    sched = tmp_path / "s.json"
    sched.write_text(RING_SCHEDULE)
    argv = ["simulate", str(path), "--allow-cycles", "--max-steps", "5", "--schedule", str(sched)]
    assert main([*argv, "--engine", engine, "--backend", backend]) == EXIT_OK
    assert capsys.readouterr().out == RING_TABLE.format(engine=engine)


class TestSimulate:
    def test_fixed_point_exit_zero(self, showcase_file, capsys):
        assert main(["simulate", showcase_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "termination=fixed-point" in out
        assert out.count("\n") == 6  # 2 header lines + 4 entries

    def test_step_limit_exit_three(self, showcase_file, capsys):
        assert main(["simulate", showcase_file, "--max-steps", "1"]) == EXIT_STEP_LIMIT
        assert "termination=step-limit" in capsys.readouterr().out

    def test_init_overrides(self, showcase_file, capsys):
        assert main(["simulate", showcase_file, "--init", "i=0,j=0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\n") == 3  # already settled: single entry

    def test_structured_output_to_file(self, showcase_file, tmp_path):
        out_file = tmp_path / "trace.json"
        code = main(
            ["simulate", showcase_file, "--format", "structured", "-o", str(out_file)]
        )
        assert code == EXIT_OK
        doc = json.loads(out_file.read_text())
        assert doc["cao"] == "showcase"
        assert doc["step_count"] == 3

    def test_engine_and_backend_flags(self, showcase_file):
        assert main(["simulate", showcase_file, "--engine", "matrix", "--backend", "pure"]) == EXIT_OK
        assert main(["simulate", showcase_file, "--engine", "operational"]) == EXIT_OK

    def test_cyclic_needs_explicit_budget(self, tmp_path, capsys):
        path = tmp_path / "loop.cao"
        path.write_text(
            "cao loop {\n  initial a = 9\n  intermediate b\n"
            "  L (a:2) -> (b:1)\n  L (b:2) -> (a:1)\n}\n"
        )
        assert main(["simulate", str(path), "--allow-cycles"]) == EXIT_ERROR
        assert "--max-steps" in capsys.readouterr().err
        code = main(["simulate", str(path), "--allow-cycles", "--max-steps", "10"])
        assert code in (EXIT_OK, EXIT_STEP_LIMIT)

    def test_schedule_file(self, showcase_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text('{"default": "base"}')
        assert main(["simulate", showcase_file, "--schedule", str(sched)]) == EXIT_OK
        capsys.readouterr()

    def test_schedule_gap_is_an_error(self, showcase_file, tmp_path, capsys):
        sched = tmp_path / "gappy.json"
        sched.write_text('{"steps": {}}')
        assert main(["simulate", showcase_file, "--schedule", str(sched)]) == EXIT_ERROR
        assert "no parameters scheduled" in capsys.readouterr().err

    def test_malformed_schedule_is_a_one_line_error(self, showcase_file, tmp_path, capsys):
        sched = tmp_path / "listed.json"
        sched.write_text('{"steps": [1]}')
        assert main(["simulate", showcase_file, "--schedule", str(sched)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_infinite_radix_is_a_one_line_error(self, showcase_file, tmp_path, capsys):
        ops = [
            '{"radices": [10, 8], "coefficients": [1, 2]}',
            '{"radices": [Infinity], "coefficients": [2]}',
            '{"radices": [10], "coefficients": [1, 3]}',
            '{"radices": [4, 2], "coefficients": [1]}',
        ]
        sched = tmp_path / "infinite.json"
        sched.write_text(f'{{"default": {{"operators": [{", ".join(ops)}]}}}}')
        assert main(["simulate", showcase_file, "--schedule", str(sched)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Infinity is not an integer" in err

    @pytest.mark.parametrize(
        "where, extra, message",
        [
            ("set", {"extra": 1}, "default: unknown parameter set keys: ['extra']"),
            ("op", {"form": "banana"}, "default operators[0]: unknown operator keys: ['form']"),
            # a misspelt key beside the right one
            ("op", {"coeficients": [1, 2]}, "default operators[0]: unknown operator keys: ['coeficients']"),
        ],
    )
    def test_an_unknown_schedule_key_is_a_one_line_error(
        self, showcase_file, tmp_path, capsys, where, extra, message
    ):
        ops = [
            {"radices": [10, 8], "coefficients": [1, 2]},
            {"radices": [8], "coefficients": [2]},
            {"radices": [10], "coefficients": [1, 3]},
            {"radices": [4, 2], "coefficients": [1]},
        ]
        params = {"operators": ops}
        (params if where == "set" else ops[0]).update(extra)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"default": params}))
        assert main(["simulate", showcase_file, "--schedule", str(sched)]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() converts any number of digits")
    @pytest.mark.parametrize("where", ["radix", "step key"])
    def test_a_schedule_number_past_the_digit_limit_is_a_one_line_error(
        self, showcase_file, tmp_path, capsys, where
    ):
        # json.loads's own refusal named neither the schedule nor the number
        digits = INT_MAX_STR_DIGITS + 100
        big = "9" * digits
        sched = tmp_path / "sched.json"
        if where == "radix":
            ops = ",".join(['{"radices": [%s, 8], "coefficients": [1, 2]}' % big]
                           + ['{"radices": [2], "coefficients": [1]}'] * 2
                           + ['{"radices": [2, 2], "coefficients": [1]}'])
            sched.write_text('{"default": {"operators": [%s]}}' % ops)
            what = "a number in the schedule"
        else:
            sched.write_text('{"default": "base", "steps": {"-%s": "base"}}' % big)
            what = "step key"
        assert main(["simulate", showcase_file, "--schedule", str(sched)]) == EXIT_ERROR
        assert capsys.readouterr() == (
            "",
            f"error: {what} has {digits} digits; Python converts at most "
            f"{INT_MAX_STR_DIGITS} (see PYTHONINTMAXSTRDIGITS)\n",
        )

    @pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() converts any number of digits")
    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_an_init_past_the_digit_limit_is_a_one_line_error(self, showcase_file, capsys, sign):
        # the message said "not an integer" and echoed every digit
        digits = INT_MAX_STR_DIGITS + 700
        for value in (sign + "5" * digits, sign + "1_" + "0" * (digits - 1)):
            assert main(["simulate", showcase_file, "--init", f"i={value}"]) == EXIT_ERROR
            assert capsys.readouterr() == (
                "",
                f"error: --init value for 'i' has {digits} digits; Python converts at most "
                f"{INT_MAX_STR_DIGITS} (see PYTHONINTMAXSTRDIGITS)\n",
            )

    def test_bad_init_syntax(self, showcase_file, capsys):
        assert main(["simulate", showcase_file, "--init", "i"]) == EXIT_ERROR
        assert "NAME=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--init", "zz=1"], "no entity named 'zz' in CAO 'showcase'"),
            (["--init", "i=x"], "--init value for 'i' is not an integer: 'x'"),
            (["--schedule", "gappy"], "no parameters scheduled for step 0 and no default set"),
        ],
    )
    def test_refusals_print_their_message_unquoted(self, showcase_file, tmp_path, capsys, extra, message):
        # a KeyError's str() would wrap the message in quotes
        (tmp_path / "gappy").write_text('{"steps": {}}')
        extra = [str(tmp_path / a) if a == "gappy" else a for a in extra]
        assert main(["simulate", showcase_file, *extra]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["simulate", "weights", "export"])
def test_an_invalid_file_exits_one(tmp_path, capsys, command):
    path = tmp_path / "bad.cao"
    path.write_text("cao x {\n  initial a = 3\n  L (a:1) -> (b:1)\n}\n")
    assert main([command, str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and f"{path}:3:3: error[unknown-entity]" in captured.err


class TestWeights:
    def test_showcase_weights(self, showcase_file, capsys):
        assert main(["weights", showcase_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines() == ["# i j d s g u h", "1 1 10 4 40 0 160"]

    def test_no_operators_gives_identity_basis(self, tmp_path, capsys):
        path = tmp_path / "inert.cao"
        path.write_text("cao inert {\n  initial a\n  initial b\n}\n")
        assert main(["weights", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines() == ["# a b", "1 0", "0 1"]

    def test_a_2000_entity_chain_prints_the_powers_of_two(self, tmp_path, capsys):
        # on a 2-core x86-64 host the command takes about 0.07 s, and the
        # dense elimination would take minutes; the bound leaves room for a
        # slow shared runner
        path = tmp_path / "chain.cao"
        path.write_text(serialize(build_linear_chain(2, 2000)))
        start = time.perf_counter()
        assert main(["weights", str(path)]) == EXIT_OK
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "# " + " ".join(f"c{i}" for i in range(2000)),
            " ".join(str(2**i) for i in range(2000)),
        ]
        assert elapsed < 10, f"caosim weights took {elapsed:.1f} s"

    def test_a_cyclic_cao_needs_allow_cycles(self, tmp_path, capsys):
        # without the flag the cycle is refused, as validate refuses it;
        # with it the dense elimination gives the loop's one weight row
        path = tmp_path / "loop.cao"
        path.write_text(LOOP_TEXT)
        assert main(["weights", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and "error[cycle-detected]" in captured.err
        assert main(["weights", str(path), "--allow-cycles"]) == EXIT_OK
        assert capsys.readouterr().out == "# i j d s g u h k\n1 1 1 1 2 0 1 1\n"

    def test_an_empty_basis_is_said_in_a_comment(self, tmp_path, capsys):
        # an acyclic CAO with entities has one that feeds nothing, so its
        # transition matrix has rank < m: only the empty CAO has no weights
        path = tmp_path / "empty.cao"
        path.write_text("cao empty {\n}\n")
        assert main(["weights", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "# \n# no conserved weights\n"


class TestExport:
    def test_dot(self, showcase_file, capsys):
        assert main(["export", showcase_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("digraph showcase {")
        assert "op_0" in out

    def test_canonical_text_reparses(self, showcase_file, capsys, tmp_path):
        assert main(["export", showcase_file, "--kind", "canonical"]) == EXIT_OK
        text = capsys.readouterr().out
        round_trip = tmp_path / "again.cao"
        round_trip.write_text(text)
        assert main(["validate", str(round_trip)]) == EXIT_OK


def divmod_digits(value: int, base: int, length: int | None) -> list[int]:
    """The digits of ``value`` by Python's ``divmod``, least significant
    first: one per digit when ``length`` is None, else ``length``, the last
    holding what is left."""
    digits = []
    while len(digits) < length - 1 if length else value >= base:
        value, digit = divmod(value, base)
        digits.append(digit)
    return [*digits, value]


_rng = random.Random(0xD1617)
# values 0 and 1, chains of length 1, a short chain that warns, default
# lengths, a 600-bit value in base 2 and 2000-digit values in bases 3, 10, 16
RADIX_CASES = [
    (0, 2, None),
    (1, 2, None),
    (0, 10, 1),
    (2, 3, 1),
    (7, 3, 1),
    (100, 10, 2),
    (123456789, 10, 3),
    (1234, 10, None),
    (1234, 10, 9),
    (_rng.getrandbits(599) | 1 << 599, 2, None),
    *((base**1999 + _rng.randrange(base**1999), base, None) for base in (3, 10, 16)),
]


class TestRadix:
    def test_digit_expansion(self, capsys):
        # least-significant digit first, straight off the chain state
        assert main(["radix", "--value", "1234", "--base", "10", "--length", "4"]) == EXIT_OK
        assert capsys.readouterr().out == "4 3 2 1\n"

    def test_binary(self, capsys):
        assert main(["radix", "--value", "19", "--base", "2", "--length", "5"]) == EXIT_OK
        assert capsys.readouterr().out == "1 1 0 0 1\n"

    def test_zero_pads_to_length(self, capsys):
        assert main(["radix", "--value", "0", "--base", "2", "--length", "4"]) == EXIT_OK
        assert capsys.readouterr().out == "0 0 0 0\n"

    def test_length_defaults_to_digit_count(self, capsys):
        assert main(["radix", "--value", "4095", "--base", "16"]) == EXIT_OK
        assert capsys.readouterr().out == "15 15 15\n"

    def test_short_chain_warns_about_truncation(self, capsys):
        assert main(["radix", "--value", "100", "--base", "10", "--length", "2"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "0 10\n"
        assert "cannot hold" in captured.err

    def test_trace_flag(self, capsys):
        assert main(["radix", "--value", "255", "--base", "2", "--trace"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "termination=fixed-point" in out
        # --trace steps the chain with both routes
        assert main(["radix", "--value", "19", "--base", "2", "--length", "5", "--trace"]) == EXIT_OK
        assert capsys.readouterr() == (
            "# cao chain2x5 engine=both termination=fixed-point\n"
            "# k  c0  c1  c2  c3  c4  p.c0  p.c1  p.c2  p.c3  p.c4\n"
            "  0  19   0   0   0   0     9     0     0     0     0\n"
            "  1   1   9   0   0   0     0     4     0     0     0\n"
            "  2   1   1   4   0   0     0     0     2     0     0\n"
            "  3   1   1   0   2   0     0     0     0     1     0\n"
            "  4   1   1   0   0   1     0     0     0     0     0\n",
            "",
        )
        assert main(["radix", "--value", "100", "--base", "10", "--length", "2", "--trace"]) == EXIT_OK
        assert capsys.readouterr() == (
            "# cao chain10x2 engine=both termination=fixed-point\n"
            "# k   c0  c1  p.c0  p.c1\n"
            "  0  100   0    10     0\n"
            "  1    0  10     0     0\n",
            "warning: 2 entities cannot hold 100 in base 10; "
            "the leading component (10) exceeds the digit range\n",
        )

    @pytest.mark.parametrize("value, base, length", RADIX_CASES)
    def test_digits_are_pythons_own(self, value, base, length, capsys, monkeypatch):
        # the digits come from the one-sweep fixed point, with no stepping
        monkeypatch.setattr(caosim.cli, "run", None)
        args = ["radix", "--value", str(value), "--base", str(base)]
        if length is not None:
            args += ["--length", str(length)]
        digits = divmod_digits(value, base, length)
        err = ""
        if digits[-1] >= base:
            err = (
                f"warning: {len(digits)} entities cannot hold {value} in base {base}; "
                f"the leading component ({digits[-1]}) exceeds the digit range\n"
            )
        assert main(args) == EXIT_OK
        assert capsys.readouterr() == (" ".join(map(str, digits)) + "\n", err)

    def test_digits_that_fail_their_check_are_an_error(self, capsys, monkeypatch):
        sweep = caosim.cli.fixed_point

        def one_digit_off(spec, state):
            final, totals = sweep(spec, state)
            return (final[0] + 1, *final[1:]), totals

        monkeypatch.setattr(caosim.cli, "fixed_point", one_digit_off)
        assert main(["radix", "--value", "1234", "--base", "10", "--length", "4"]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_arguments(self, capsys):
        assert main(["radix", "--value", "-1", "--base", "10"]) == EXIT_ERROR
        assert main(["radix", "--value", "10", "--base", "1"]) == EXIT_ERROR
        assert main(["radix", "--value", "10", "--base", "10", "--length", "0"]) == EXIT_ERROR
        capsys.readouterr()

    @pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() converts any number of digits")
    @pytest.mark.parametrize("sign", ["", "-", "+", " "])
    @pytest.mark.parametrize("excess", [1, 700])
    def test_a_value_past_the_digit_limit_is_a_one_line_error(self, capsys, sign, excess):
        # argparse's type=int echoed the whole value and exited 2
        digits = INT_MAX_STR_DIGITS + excess
        for value in (sign + "7" * digits, sign + "1_" + "0" * (digits - 1)):
            assert main(["radix", f"--value={value}", "--base", "10"]) == EXIT_ERROR
            assert capsys.readouterr() == (
                "",
                f"error: --value has {digits} digits; Python converts at most "
                f"{INT_MAX_STR_DIGITS} (see PYTHONINTMAXSTRDIGITS)\n",
            )

    def test_a_value_at_the_digit_limit_is_expanded(self, capsys):
        value = "9" * (INT_MAX_STR_DIGITS or 4300)
        assert main(["radix", "--value", value, "--base", "10"]) == EXIT_OK
        assert capsys.readouterr() == (" ".join(value) + "\n", "")

    @pytest.mark.parametrize("value", ["abc", "1.5", "+-5", "5-", "1__0", "_1", "0x10", ""])
    def test_a_value_that_is_not_an_integer_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["radix", f"--value={value}", "--base", "10"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"\ncaosim radix: error: argument --value: invalid int value: {value!r}\n")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing file argument
    assert exc.value.code == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
