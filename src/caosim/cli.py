"""Command-line front end.

    caosim validate FILE              check a CAO description, print diagnostics
    caosim simulate FILE              run it and print the trajectory
    caosim weights FILE               print the conserved integer weight rows
    caosim export FILE --kind …       emit Graphviz DOT or the canonical text form
    caosim radix --value V --base B --length L
                                      digit expansion via a conversion chain

Exit codes: 0 success (simulate: reached a fixed point), 1 any error
(bad input, validation failure, engine divergence, radix digits that fail
their check), 2 command-line usage, 3 simulate stopped at the step limit.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from .dsl import export_dot, export_trace, load_schedule, serialize, too_many_digits, try_parse
from .kernel import BACKENDS
from .model import InvalidCaoError
from .simulate import (
    ENGINES,
    EngineDivergenceError,
    build_linear_chain,
    conserved_weights,
    run,
)
from .sweep import fixed_point

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2  # argparse's own convention
EXIT_STEP_LIMIT = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_spec(path: str, *, allow_cycles: bool = False):
    """Parse a CAO file, printing every diagnostic; returns None on errors."""
    display = "<stdin>" if path == "-" else path
    spec, diags = try_parse(_read(path), path=display, allow_cycles=allow_cycles)
    for d in diags:
        print(d, file=sys.stderr)
    return spec


def _parse_inits(pairs: list[str] | None) -> dict[str, int]:
    values: dict[str, int] = {}
    for chunk in pairs or []:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            name, eq, num = item.partition("=")
            if not eq:
                raise ValueError(f"--init expects NAME=VALUE, got {item!r}")
            what = f"--init value for {name.strip()!r}"
            if (value := _int(num, what)) is None:
                raise ValueError(f"{what} is not an integer: {num!r}")
            values[name.strip()] = value
    return values


def _int(text: str, what: str) -> int | None:
    """``int(text)``, or None when ``text`` is not an integer. A decimal
    integer of more digits than ``int()`` converts raises OverflowError
    naming ``what``, its digit count and the limit."""
    try:
        return int(text)
    except ValueError:
        if (number := re.fullmatch(r"[+-]?(\d+(_\d+)*)", text.strip())) is None:
            return None
        raise OverflowError(too_many_digits(what, len(number[1].replace("_", "")))) from None


def _radix_value(text: str) -> int:
    """``int(text)``; OverflowError past the digit limit, which argparse passes
    on to :func:`main`."""
    if (value := _int(text, "--value")) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.file, allow_cycles=args.allow_cycles)
    if spec is None:
        return EXIT_ERROR
    print(f"ok: {spec.name} ({spec.m} entities, {len(spec.operators)} operators)")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.file, allow_cycles=args.allow_cycles)
    if spec is None:
        return EXIT_ERROR
    if args.allow_cycles and args.max_steps is None:
        print(
            "error: a cyclic CAO may never reach a fixed point; give an explicit --max-steps",
            file=sys.stderr,
        )
        return EXIT_ERROR
    schedule = None
    if args.schedule:
        schedule = load_schedule(_read(args.schedule), spec)
    trace = run(
        spec,
        _parse_inits(args.init) or None,
        max_steps=args.max_steps if args.max_steps is not None else 1000,
        engine=args.engine,
        schedule=schedule,
        backend=args.backend,
    )
    fmt = "json" if args.format == "structured" else "table"
    _write(args.output, export_trace(trace, fmt))
    return EXIT_OK if trace.fixed_point else EXIT_STEP_LIMIT


def _cmd_weights(args: argparse.Namespace) -> int:
    spec = _load_spec(args.file)
    if spec is None:
        return EXIT_ERROR
    rows = conserved_weights(spec)
    lines = ["# " + " ".join(spec.names)]
    if not rows:
        lines.append("# no conserved weights")
    lines.extend(" ".join(str(x) for x in w) for w in rows)
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    spec = _load_spec(args.file, allow_cycles=args.allow_cycles)
    if spec is None:
        return EXIT_ERROR
    text = export_dot(spec) if args.kind == "dot" else serialize(spec)
    _write(args.output, text)
    return EXIT_OK


def _cmd_radix(args: argparse.Namespace) -> int:
    if args.value < 0:
        print("error: --value must be non-negative", file=sys.stderr)
        return EXIT_ERROR
    if args.base < 2:
        print("error: --base must be at least 2", file=sys.stderr)
        return EXIT_ERROR
    length = args.length
    if length is None:
        length = 1
        v = args.value
        while v >= args.base:
            v //= args.base
            length += 1
    elif length < 1:
        print("error: --length must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    chain = build_linear_chain(args.base, length)
    start = [args.value] + [0] * (length - 1)
    if args.trace:
        # a chain always settles within length-1 updates: each step finalizes
        # one digit and the last entity only ever accumulates
        trace = run(chain, start, max_steps=max(length - 1, 0))
        _write(args.output, export_trace(trace, "table"))
        digits = trace.final_state
    else:
        digits = fixed_point(chain, start)[0]
        # The chain conserves Σ dᵢ·bⁱ, and a base-b expansion whose digits
        # below the last are under b is unique, so these checks prove the
        # digits without stepping.
        expanded = 0
        for d in reversed(digits):
            expanded = expanded * args.base + d
        if expanded != args.value or not all(0 <= d < args.base for d in digits[:-1]):
            print(
                f"error: the chain's fixed point is not a base-{args.base} expansion of --value",
                file=sys.stderr,
            )
            return EXIT_ERROR
        # least-significant digit first: the chain's own entity order
        _write(args.output, " ".join(str(d) for d in digits) + "\n")
    leading = digits[-1]
    if leading >= args.base:
        print(
            f"warning: {length} entities cannot hold {args.value} in base {args.base}; "
            f"the leading component ({leading}) exceeds the digit range",
            file=sys.stderr,
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caosim",
        description="Simulate and analyse cardinal semantic numeration graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, cycles: bool = True) -> None:
        p.add_argument("file", help="CAO description file ('-' for stdin)")
        p.add_argument("-o", "--output", help="write result here instead of stdout")
        if cycles:
            p.add_argument(
                "--allow-cycles",
                action="store_true",
                help="accept descriptions whose entity graph has cycles",
            )

    p = sub.add_parser("validate", help="check a description and print diagnostics")
    p.add_argument("file", help="CAO description file ('-' for stdin)")
    p.add_argument("--allow-cycles", action="store_true", help="accept cyclic topologies")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="run a CAO and print its trajectory")
    add_common(p)
    p.add_argument(
        "--init",
        action="append",
        metavar="NAME=VALUE",
        help="override an entity's start value (repeatable, commas allowed)",
    )
    p.add_argument("--max-steps", type=int, help="step budget (default 1000)")
    p.add_argument(
        "--engine",
        choices=ENGINES,
        default="both",
        help="which update route to use; 'both' cross-checks them (default)",
    )
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        help="matrix-engine kernel (default: compiled when built)",
    )
    p.add_argument("--schedule", help="JSON file with per-step parameter sets")
    p.add_argument(
        "--format",
        choices=("rows", "structured"),
        default="rows",
        help="trace output: aligned rows, or the versioned JSON document",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("weights", help="print conserved integer weight rows")
    add_common(p, cycles=False)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("export", help="emit DOT or the canonical text form")
    add_common(p)
    p.add_argument("--kind", choices=("dot", "canonical"), default="dot")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("radix", help="digit expansion via a conversion chain")
    p.add_argument("--value", type=_radix_value, required=True, help="non-negative integer to expand")
    p.add_argument("--base", type=int, required=True, help="target base (>= 2)")
    p.add_argument("--length", type=int, help="chain length (default: one per digit)")
    p.add_argument("--trace", action="store_true", help="print the full trajectory instead")
    p.add_argument("-o", "--output", help="write result here instead of stdout")
    p.set_defaults(func=_cmd_radix)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except KeyError as exc:
        # str() of a KeyError quotes its message; ScheduleGapError is one
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_ERROR
    except (InvalidCaoError, EngineDivergenceError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
