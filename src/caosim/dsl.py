"""Text format for CAOs, plus trace and schedule serialization.

The format is line-oriented only by convention; structure comes entirely
from tokens:

    cao counter {                      # '#' starts a comment
      initial i = 100                  # role NAME [= start]
      intermediate d
      final h

      L (i:10) -> (d:1)                # [form] (in:radix, ...) -> (out:coeff, ...)
      D (d:8) -> (h:2)
    }

Operator forms (L/D/F/M) may be omitted; they follow from the valence.
Two readers share this grammar. An ASCII text without comments is read one
declaration at a time, by one anchored regular expression per statement
(:func:`_scan`). Any other text, and any text that scanner does not take
whole, is tokenized and read by the token parser, so every lexical and
syntax diagnostic comes from the token parser. Both record the offsets of
each declaration, from which the structural checks point at it.
Every parse failure — lexical, syntactic, or structural — carries a source
span (1-based line and column, 0-based half-open offsets) so tools can point
at the offending text. Tokens carry only their offsets; a span's line and
column are looked up from its start offset, in a table of the text's line
starts built once per parse, when the diagnostic is built.
Serialization is canonical: ``parse(serialize(spec))`` reproduces the
:class:`~caosim.model.CaoSpec` exactly, forms and all.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .engine import ParameterSchedule, with_parameters
from . import model
from .model import CaoSpec, Entity, Form, Operator, Role, build_spec, infer_form
from .simulate import ENGINES, TERMINATIONS, CstTrace, TraceStep

_KEYWORD_ROLES = {
    "initial": Role.INITIAL,
    "intermediate": Role.INTERMEDIATE,
    "final": Role.FINAL,
}
_FORMS = {f.value: f for f in Form}

TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SourceSpan:
    """Where something sits in the input text."""

    line: int  # 1-based
    column: int  # 1-based
    start: int  # 0-based offset, inclusive
    end: int  # 0-based offset, exclusive


@dataclass(frozen=True)
class Diagnostic:
    path: str
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.span.line}:{self.span.column}: "
            f"{self.severity}[{self.code}]: {self.message}"
        )


class DslError(ValueError):
    """Parse failure; ``diagnostics`` holds every finding, spans included."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


def too_many_digits(what: str, digits: int) -> str:
    """The refusal of a decimal number ``what`` of ``digits`` digits, more than
    ``int()`` converts."""
    return (
        f"{what} has {digits} digits; Python converts at most "
        f"{sys.get_int_max_str_digits()} (see PYTHONINTMAXSTRDIGITS)"
    )


def _line_starts(text: str) -> list[int]:
    """The offset at which each line of ``text`` starts, in increasing order."""
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _span(lines: list[int], start: int, end: int) -> SourceSpan:
    """The span from offset ``start`` to ``end`` of a text whose
    :func:`_line_starts` are ``lines``, its line and column found by bisection."""
    line = bisect_right(lines, start)
    return SourceSpan(line, start - lines[line - 1] + 1, start, end)


_Lexeme = tuple[str, str, int, int]  # kind, text, start offset, end offset
_At = tuple[int, int]  # the start and end offsets of a name or declaration


# One alternative per token kind, tried in order from each position; an
# unnamed match is skipped. \d is what int() reads (isdecimal; isdigit would
# take "²"), \w is isalnum or "_", and BAD takes any other character.
_TOKEN = re.compile(
    r"[ \t\r\n]+|\#[^\n]*"
    r"|(?P<NUMBER>\d+)|(?P<IDENT>\w+)|(?P<PUNCT>->|[{}(),:=])|(?P<BAD>.)",
    re.DOTALL,
)


def _tokenize(text: str, path: str) -> list[_Lexeme]:
    """The tokens of ``text``, ending in EOF; a punctuation mark is its own kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word, (start, end) = m.group(), m.span()
        # \w also takes "²", "½" and "Ⅻ", which may follow a letter but not start a name
        if kind == "BAD" or (kind == "IDENT" and not (word[0].isalpha() or word[0] == "_")):
            message = f"unexpected character {word[0]!r}"
            span = _span(_line_starts(text), start, start + 1)
            raise DslError([Diagnostic(path, "error", "bad-token", message, span)])
        tokens.append((word if kind == "PUNCT" else kind, word, start, end))
    tokens.append(("EOF", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        self.tokens = _tokenize(text, path)
        self.pos = 0

    @property
    def here(self) -> _Lexeme:
        return self.tokens[self.pos]

    def take(self) -> _Lexeme:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Lexeme | None = None) -> DslError:
        _, _, start, end = tok or self.here
        span = _span(_line_starts(self.text), start, end)
        return DslError([Diagnostic(self.path, "error", "syntax", message, span)])

    def expect(self, kind: str, what: str) -> _Lexeme:
        if self.here[0] != kind:
            found = self.here[1] or "end of input"
            raise self.fail(f"expected {what}, found {found!r}")
        return self.take()

    def number(self, meaning: str) -> tuple[int, int]:
        """The value of the number expected next, and the offset just past it."""
        _, digits, start, end = self.expect("NUMBER", f"a {meaning}")
        try:
            return int(digits), end
        except ValueError:  # more digits than int() converts
            span = _span(_line_starts(self.text), start, end)
            message = too_many_digits(f"the {meaning}", len(digits))
            raise DslError([Diagnostic(self.path, "error", "bad-number", message, span)]) from None

    def parse_pairs(self, number_meaning: str) -> tuple[tuple[tuple[str, int], ...], int]:
        """The pairs of a parenthesised list, and the offset just past its ')'."""
        self.expect("(", "'('")
        pairs = []
        while True:
            name = self.expect("IDENT", "an entity name")
            self.expect(":", f"':' before the {number_meaning}")
            pairs.append((name[1], self.number(number_meaning)[0]))
            if self.here[0] != ",":
                break
            self.take()
        close = self.expect(")", "')' or ','")
        return tuple(pairs), close[3]

    def parse_cao(self) -> tuple[str, _At, list[tuple[Entity, _At]], list[tuple[Operator, _At]]]:
        head = self.expect("IDENT", "'cao'")
        if head[1] != "cao":
            raise self.fail(f"expected 'cao', found {head[1]!r}", head)
        _, name, name_start, name_end = self.expect("IDENT", "a CAO name")
        self.expect("{", "'{'")
        entities: list[tuple[Entity, _At]] = []
        operators: list[tuple[Operator, _At]] = []
        while self.here[0] != "}":
            kind, word, _, _ = self.here
            if kind == "IDENT" and word in _KEYWORD_ROLES:
                entities.append(self.parse_entity())
            elif kind == "(" or (kind == "IDENT" and word in _FORMS):
                operators.append(self.parse_operator())
            elif kind == "EOF":
                raise self.fail("unterminated CAO body; expected '}'")
            else:
                raise self.fail(f"expected an entity role, an operator, or '}}', found {word!r}")
        self.take()  # }
        if self.here[0] != "EOF":
            raise self.fail(f"expected end of input after '}}', found {self.here[1]!r}")
        return name, (name_start, name_end), entities, operators

    def parse_entity(self) -> tuple[Entity, _At]:
        _, role, role_start, _ = self.take()
        _, name, _, end = self.expect("IDENT", "an entity name")
        start = 0
        if self.here[0] == "=":
            self.take()
            start, end = self.number("start value")
        return Entity(name, _KEYWORD_ROLES[role], start), (role_start, end)

    def parse_operator(self) -> tuple[Operator, _At]:
        form = None
        first = self.here[2]
        if self.here[0] == "IDENT":
            form = _FORMS[self.take()[1]]
        inputs, _ = self.parse_pairs("radix")
        self.expect("->", "'->'")
        outputs, end = self.parse_pairs("conversion coefficient")
        return Operator(inputs=inputs, outputs=outputs, form=form), (first, end)


# The statement scanner reads only ASCII texts, on which \w is [A-Za-z0-9_]
# and \d is [0-9], as in the tokenizer, and no pattern takes a '#'. Whitespace
# is optional between two tokens unless both are words, and a word is read
# whole: nothing after a name or a number can go on with a word character,
# except a name after a number (``= 10final h``), which the tokenizer splits too.
_WS = r"[ \t\r\n]*"
_PAIR = rf"[A-Za-z_]\w*{_WS}:{_WS}\d+{_WS}"
_PAIRS = rf"\({_WS}(?:{_PAIR},{_WS})*{_PAIR}\)"
_HEAD = re.compile(rf"{_WS}cao[ \t\r\n]+([A-Za-z_]\w*){_WS}\{{")
_STATEMENT = re.compile(
    rf"{_WS}(?:(initial|intermediate|final)[ \t\r\n]+([A-Za-z_]\w*)(?:{_WS}={_WS}(\d+))?"
    rf"|(?:([LDFM]){_WS})?({_PAIRS}){_WS}->{_WS}({_PAIRS})|(}}){_WS}\Z)"
)
_PAIR_VALUES = re.compile(rf"(\w+){_WS}:{_WS}(\d+)")


def _pairs(text: str) -> tuple[tuple[str, int], ...]:
    """The ``(name, number)`` pairs of a list :data:`_PAIRS` matched."""
    return tuple([(name, int(digits)) for name, digits in _PAIR_VALUES.findall(text)])


def _scan(text: str) -> tuple[str, _At, list[tuple[Entity, _At]], list[tuple[Operator, _At]]] | None:
    """What ``_Parser(text, path).parse_cao()`` returns, read one declaration
    per match; None for any text it does not take whole, which the token
    parser then reads: one with a comment, a character outside ASCII, a
    number of more digits than ``int()`` converts, or an error."""
    if not text.isascii() or (head := _HEAD.match(text)) is None:
        return None
    entities: list[tuple[Entity, _At]] = []
    operators: list[tuple[Operator, _At]] = []
    pos = head.end()
    try:
        while (m := _STATEMENT.match(text, pos)) is not None:
            role, name, start, form, inputs, outputs, close = m.groups()
            if close:
                return head[1], head.span(1), entities, operators
            pos = m.end()
            if role:
                entity = Entity(name, _KEYWORD_ROLES[role], int(start) if start else 0)
                entities.append((entity, (m.start(1), pos)))
            else:
                operator = Operator(_pairs(inputs), _pairs(outputs), _FORMS[form] if form else None)
                operators.append((operator, (m.start(4) if form else m.start(5), pos)))
    except ValueError:  # more digits than int() converts
        pass
    return None


def _semantic_diagnostics(
    text: str,
    path: str,
    name_at: _At,
    entities: list[tuple[Entity, _At]],
    operators: list[tuple[Operator, _At]],
    issues,
) -> list[Diagnostic]:
    entity_at = {ent.name: at for ent, at in entities}  # duplicates point at the later declaration
    lines = _line_starts(text)
    out = []
    for issue in issues:
        if issue.operator is not None and issue.operator < len(operators):
            at = operators[issue.operator][1]
        elif issue.entity is not None and issue.entity in entity_at:
            at = entity_at[issue.entity]
        else:
            at = name_at
        out.append(Diagnostic(path, issue.severity, issue.code, issue.message, _span(lines, *at)))
    return out


def try_parse(
    text: str, *, path: str = "<dsl>", allow_cycles: bool = False
) -> tuple[CaoSpec | None, tuple[Diagnostic, ...]]:
    """Parse leniently: return (spec or None, all diagnostics incl. warnings)."""
    parsed = _scan(text)
    if parsed is None:
        try:
            parsed = _Parser(text, path).parse_cao()
        except DslError as exc:
            return None, exc.diagnostics
    name, name_at, entities, operators = parsed
    ents = [e for e, _ in entities]
    ops = [op for op, _ in operators]
    report = model.check(name, ents, ops, allow_cycles=allow_cycles)
    diags = _semantic_diagnostics(text, path, name_at, entities, operators, report.issues)
    if not report.ok:
        return None, tuple(diags)
    return build_spec(name, ents, ops), tuple(diags)


def parse(text: str, *, path: str = "<dsl>", allow_cycles: bool = False) -> CaoSpec:
    """Parse strictly: return the :class:`~caosim.model.CaoSpec` or raise :class:`DslError`."""
    spec, diags = try_parse(text, path=path, allow_cycles=allow_cycles)
    if spec is None:
        raise DslError([d for d in diags if d.severity == "error"] or list(diags))
    return spec


def serialize(spec: CaoSpec) -> str:
    """Canonical text form; parsing it back reproduces ``spec`` exactly."""
    lines = [f"cao {spec.name} {{"]
    for ent in spec.entities:
        suffix = f" = {ent.start}" if ent.start else ""
        lines.append(f"  {ent.role.value} {ent.name}{suffix}")
    if spec.operators:
        lines.append("")
    for op in spec.operators:
        ins = ", ".join(f"{e}:{n}" for e, n in op.inputs)
        outs = ", ".join(f"{t}:{r}" for t, r in op.outputs)
        form = op.form or infer_form(len(op.inputs), len(op.outputs))
        lines.append(f"  {form.value} ({ins}) -> ({outs})")
    lines.append("}")
    return "\n".join(lines) + "\n"


_ROLE_SHAPES = {Role.INITIAL: "triangle", Role.INTERMEDIATE: "circle", Role.FINAL: "invtriangle"}
# DOT's keywords, in any letter case, cannot be a bare graph ID
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def export_dot(spec: CaoSpec) -> str:
    """Graphviz rendering: entities as role-shaped nodes, operators as diamonds."""
    name = f'"{spec.name}"' if spec.name.lower() in _DOT_KEYWORDS else spec.name
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for ent in spec.entities:
        lines.append(f'  ent_{ent.name} [label="{ent.name}" shape={_ROLE_SHAPES[ent.role]}];')
    for k, op in enumerate(spec.operators):
        form = op.form.value if op.form is not None else "?"
        lines.append(f'  op_{k} [label="{form}" shape=diamond];')
    for k, op in enumerate(spec.operators):
        for e, n in op.inputs:
            lines.append(f'  ent_{e} -> op_{k} [label="{n}"];')
        for t, r in op.outputs:
            lines.append(f'  op_{k} -> ent_{t} [label="{r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- Trace serialization ------------------------------------------------------


def export_trace(trace: CstTrace, fmt: str = "table") -> str:
    """Render a trace as an aligned text table or as JSON.

    The JSON form is self-describing (format_version, entity names, engine,
    termination) and, for scheduled runs, embeds the parameters in force at
    every recorded step.
    """
    if fmt == "table":
        return _trace_table(trace)
    if fmt == "json":
        return _trace_json(trace)
    raise ValueError(f"unknown trace format {fmt!r}; expected 'table' or 'json'")


def _trace_table(trace: CstTrace) -> str:
    names = trace.spec.names
    header = ["k", *names, *[f"p.{n}" for n in names]]
    rows = [
        [str(s.k), *[str(v) for v in s.state], *[str(c) for c in s.common]]
        for s in trace.steps
    ]
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c]) for c in range(len(header))]
    out = [
        f"# cao {trace.spec.name} engine={trace.engine} termination={trace.termination}",
        "# " + "  ".join(h.rjust(w) for h, w in zip(header, widths)),
    ]
    for r in rows:
        out.append("  " + "  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(out) + "\n"


# The JSON trace is written directly, in the bytes ``json.dumps(doc, indent=2)
# + "\n"`` would give: given an indent, json.dumps formats every value in pure
# Python. Strings go through the C escaper json.dumps itself uses, integers
# through ``int.__repr__`` as in json.dumps, which writes the digits of an int
# subclass whatever its ``__str__`` and refuses more digits than
# ``sys.get_int_max_str_digits()``. ``_PADn`` opens a line indented n spaces.
_encode_str = json.encoder.encode_basestring_ascii
_PAD4, _PAD8, _PAD12 = "\n    ", "\n        ", "\n            "


def _array(items: list[str], pad: str) -> str:
    """``items``, JSON text, as json.dumps(indent=2) lays out an array: each
    on its own line opened by ``pad``, and the closing bracket two spaces
    left of them."""
    if not items:
        return "[]"
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def _ints(values, pad: str) -> str:
    """The integers ``values`` as an array laid out by :func:`_array`."""
    return _array(list(map(int.__repr__, values)), pad)


def _operators_json(spec: CaoSpec) -> str:
    """The ``operators`` array of a scheduled trace's step: the parameter
    set ``spec``, as it appears in every step it is in force at."""
    return _array(
        [
            f'{{\n          "radices": {_ints([n for _, n in op.inputs], _PAD12)},'
            f'\n          "coefficients": {_ints([r for _, r in op.outputs], _PAD12)}\n        }}'
            for op in spec.operators
        ],
        _PAD8,
    )


def _trace_json(trace: CstTrace) -> str:
    schedule = trace.schedule
    steps = []
    for s in trace.steps:
        step = (
            f'{{\n      "k": {s.k},\n      "state": {_ints(s.state, _PAD8)},'
            f'\n      "partial": {_ints(s.partials, _PAD8)},\n      "common": {_ints(s.common, _PAD8)}'
        )
        if schedule is not None:
            step += ',\n      "operators": ' + _operators_json(schedule.spec_at(s.k))
        steps.append(step + "\n    }")
    return (
        f'{{\n  "format_version": {TRACE_FORMAT_VERSION},\n  "cao": {_encode_str(trace.spec.name)},'
        f'\n  "entities": {_array([_encode_str(n) for n in trace.spec.names], _PAD4)},'
        f'\n  "engine": {_encode_str(trace.engine)},\n  "termination": {_encode_str(trace.termination)},'
        f'\n  "step_count": {trace.step_count},\n  "steps": {_array(steps, _PAD4)}\n}}\n'
    )


@dataclass(frozen=True)
class TraceDocument:
    """A trace read back from its JSON form (structure only, no CAO)."""

    cao: str
    entities: tuple[str, ...]
    engine: str
    termination: str
    steps: tuple[TraceStep, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps) - 1


# An object key holding a step number: JSON writes keys as strings.
_KEY_INT = re.compile(r"-?[0-9]+")
# The keys export_trace writes in a document and in a step (``operators`` if scheduled).
_TRACE_KEYS = {"format_version", "cao", "entities", "engine", "termination", "step_count", "steps"}
_STEP_KEYS = {"k", "state", "partial", "common", "operators"}


def _json_int(value, where: str, *, key: bool = False) -> int:
    """An integer read from a JSON document; ValueError for anything else.

    A value must be a JSON integer: an ``int``, but neither ``true`` nor
    ``false``, and no float (``2.9``, ``1e400``, ``Infinity``) or string.
    With ``key`` it is an object key and must be a minus sign or none
    followed by decimal digits, where ``int()`` would also take ``"1_0"``,
    spaces and the digits of other scripts.
    """
    if not (_KEY_INT.fullmatch(value) if key else type(value) is int):
        raise ValueError(f"{where}: {json.dumps(value)} is not an integer")
    try:
        return int(value)
    except ValueError:  # a key of more digits than int() converts
        raise ValueError(too_many_digits(where, len(value.lstrip("-")))) from None


def _json_document(text: str, what: str):
    """``json.loads(text)``, or ValueError naming ``what``: the ``schedule``
    or the ``trace``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    except ValueError:
        # int()'s refusal of a number past its digit limit, which names no
        # document: read again, refusing that number in our own words
        def number(literal: str) -> int:
            digits = len(literal.lstrip("-"))
            if digits > sys.get_int_max_str_digits() > 0:
                raise ValueError(too_many_digits(f"a number in the {what}", digits)) from None
            return int(literal)

        json.loads(text, parse_int=number)
        raise


def _trace_vector(values, width: int, where: str) -> tuple[int, ...]:
    vec = tuple(values)
    if not set(map(type, vec)) <= {int}:
        for v in vec:  # name the first value that is not an integer
            _json_int(v, where)
    if len(vec) != width:
        raise ValueError(f"trace vector has {len(vec)} entries, not one per entity ({width})")
    return vec


def _json_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where}: {json.dumps(value)} is not a string")
    return value


def _known_keys(obj: dict, known: set[str], where: str) -> None:
    if obj.keys() - known:
        raise ValueError(f"{where}: {json.dumps(min(obj.keys() - known))} is not a key export_trace writes")


def _trace_step(i: int, s, width: int) -> TraceStep:
    k = _json_int(s["k"], f"steps[{i}].k")  # a step that is not an object fails here
    _known_keys(s, _STEP_KEYS, f"steps[{i}]")
    if k != i:
        raise ValueError(f"steps[{i}].k: {k} is not the step's index {i}")
    ops = s.get("operators", [])
    if type(ops) is not list or not all(
        type(op) is dict and op.keys() == {"radices", "coefficients"}
        and all(type(v) is list and set(map(type, v)) <= {int} for v in op.values())
        for op in ops
    ):
        raise ValueError(f"steps[{i}].operators: not a list of objects holding only the integer lists radices and coefficients")
    return TraceStep(
        k=k,
        state=_trace_vector(s["state"], width, f"steps[{i}].state"),
        partials=_trace_vector(s["partial"], width, f"steps[{i}].partial"),
        common=_trace_vector(s["common"], width, f"steps[{i}].common"),
    )


def parse_trace(text: str) -> TraceDocument:
    """Read the JSON trace form back; raise ValueError on a malformed document,
    and on any document :func:`export_trace` never writes: a key it does not
    write, names that are not strings, no steps, a step whose ``k`` is not its
    index or whose ``operators`` are not integer parameter sets, an engine or
    termination no run reports, or a ``step_count`` other than the number of
    steps less one."""
    doc = _json_document(text, "trace")
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != TRACE_FORMAT_VERSION:  # true and 1.0 equal 1
        raise ValueError(
            f"unsupported trace document; expected format_version {TRACE_FORMAT_VERSION}"
        )
    try:
        _known_keys(doc, _TRACE_KEYS, "trace document")
        if not isinstance(doc["entities"], list):
            raise ValueError("trace entities must be a list of names")
        entities = tuple(doc["entities"])
        if not set(map(type, entities)) <= {str}:
            for n in entities:  # name the first name that is not a string
                _json_str(n, "entity name")
        steps = tuple(_trace_step(i, s, len(entities)) for i, s in enumerate(doc["steps"]))
        if not steps:
            raise ValueError("trace has no steps")
        cao = _json_str(doc["cao"], "cao")
        engine = _json_str(doc["engine"], "engine")
        termination = _json_str(doc["termination"], "termination")
        # checked after everything read above, so a document that breaks an
        # earlier rule as well gets that rule's message
        if engine not in ENGINES:
            raise ValueError(f"engine: {json.dumps(engine)} is not one of {', '.join(ENGINES)}")
        if termination not in TERMINATIONS:
            raise ValueError(
                f"termination: {json.dumps(termination)} is not one of {', '.join(TERMINATIONS)}"
            )
        step_count = _json_int(doc["step_count"], "step_count")
        if step_count != len(steps) - 1:
            raise ValueError(
                f"step_count: {step_count} is not the {len(steps) - 1} updates the steps record"
            )
        return TraceDocument(
            cao=cao, entities=entities, engine=engine, termination=termination, steps=steps
        )
    except KeyError as exc:
        raise ValueError(f"trace document lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed trace document: {exc}") from None


# --- Schedules ----------------------------------------------------------------


def _schedule_keys(obj: dict, known: set[str], refusal: str) -> None:
    """Refuse an object holding a key outside ``known``: ValueError
    ``"<refusal>: [<the unknown keys, sorted>]"``."""
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"{refusal}: {sorted(unknown)}")


def _paramset(base: CaoSpec, raw, where: str) -> CaoSpec:
    if not isinstance(raw, dict) or "operators" not in raw:
        raise ValueError(f"{where}: expected an object with an 'operators' list")
    _schedule_keys(raw, {"operators"}, f"{where}: unknown parameter set keys")
    ops = raw["operators"]
    if not isinstance(ops, list):
        raise ValueError(f"{where}: 'operators' must be a list")
    for i, o in enumerate(ops):
        if isinstance(o, dict):
            refusal = f"{where} operators[{i}]: unknown operator keys"
            _schedule_keys(o, {"radices", "coefficients"}, refusal)
    try:
        params = [
            (
                tuple(_json_int(r, f"{where} radix") for r in o["radices"]),
                tuple(_json_int(c, f"{where} coefficient") for c in o["coefficients"]),
            )
            for o in ops
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{where}: each operator needs 'radices' and 'coefficients' lists"
        ) from exc
    return with_parameters(base, params)


def load_schedule(text: str, base: CaoSpec) -> ParameterSchedule:
    """Parse the JSON schedule format against a base CAO.

    Layout::

        {
          "default": "base" | null | {"operators": [{"radices": [...],
                                                     "coefficients": [...]}, ...]},
          "steps": {"4": "base" | {"operators": [...]}, ...}
        }

    ``"base"`` — usable as the default or for any single step — reuses the
    parameters of the CAO file itself. A ``null`` default (or omitting the
    key) makes unscheduled steps an error. A key outside this layout, in the
    schedule, a parameter set or an operator, is refused.
    """
    doc = _json_document(text, "schedule")
    if not isinstance(doc, dict):
        raise ValueError("schedule must be a JSON object")
    _schedule_keys(doc, {"default", "steps"}, "unknown schedule keys")
    raw_default = doc.get("default")
    if raw_default is None:
        default = None
    elif raw_default == "base":
        default = base
    else:
        default = _paramset(base, raw_default, "default")
    raw_steps = {} if doc.get("steps") is None else doc["steps"]
    if not isinstance(raw_steps, dict):
        raise ValueError("schedule 'steps' must be an object mapping step numbers to parameters")
    keyed = {_json_int(key, "step key", key=True): (key, raw) for key, raw in raw_steps.items()}
    # the steps themselves are refused before any of their parameter sets is read
    ParameterSchedule.check_steps(sorted(keyed))
    steps = {
        k: base if raw == "base" else _paramset(base, raw, f"steps[{key}]")
        for k, (key, raw) in keyed.items()
    }
    return ParameterSchedule.from_mapping(base, steps, default)
