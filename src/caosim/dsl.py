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
Every parse failure — lexical, syntactic, or structural — carries a source
span (1-based line and column, 0-based half-open offsets) so tools can point
at the offending text. Serialization is canonical: ``parse(serialize(spec))``
reproduces the :class:`~caosim.model.CaoSpec` exactly, forms and all.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .engine import ParameterSchedule, with_parameters
from .model import CaoSpec, Entity, Form, Operator, Role, build_spec, check, infer_form
from .simulate import CstTrace, TraceStep

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

    def merge(self, other: SourceSpan) -> SourceSpan:
        first = self if self.start <= other.start else other
        return SourceSpan(first.line, first.column, min(self.start, other.start), max(self.end, other.end))


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


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER { } ( ) , : = -> EOF
    text: str
    span: SourceSpan


def _tokenize(text: str, path: str) -> Iterator[_Token]:
    i = 0
    line = 1
    col = 1
    size = len(text)

    def span(start: int, start_line: int, start_col: int, end: int) -> SourceSpan:
        return SourceSpan(start_line, start_col, start, end)

    while i < size:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
            continue
        start, start_line, start_col = i, line, col
        if ch.isalpha() or ch == "_":
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            col += i - start
            yield _Token("IDENT", text[start:i], span(start, start_line, start_col, i))
            continue
        if ch.isdecimal():  # what int() reads; isdigit() would take "²"
            while i < size and text[i].isdecimal():
                i += 1
            col += i - start
            yield _Token("NUMBER", text[start:i], span(start, start_line, start_col, i))
            continue
        if ch == "-" and i + 1 < size and text[i + 1] == ">":
            i += 2
            col += 2
            yield _Token("->", "->", span(start, start_line, start_col, i))
            continue
        if ch in "{}(),:=":
            i += 1
            col += 1
            yield _Token(ch, ch, span(start, start_line, start_col, i))
            continue
        raise DslError(
            [
                Diagnostic(
                    path,
                    "error",
                    "bad-token",
                    f"unexpected character {ch!r}",
                    span(start, start_line, start_col, i + 1),
                )
            ]
        )
    yield _Token("EOF", "", SourceSpan(line, col, size, size))


class _Parser:
    def __init__(self, text: str, path: str):
        self.path = path
        self.tokens = list(_tokenize(text, path))
        self.pos = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, span: SourceSpan | None = None) -> DslError:
        return DslError(
            [Diagnostic(self.path, "error", "syntax", message, span or self.here.span)]
        )

    def expect(self, kind: str, what: str) -> _Token:
        if self.here.kind != kind:
            found = self.here.text or "end of input"
            raise self.fail(f"expected {what}, found {found!r}")
        return self.take()

    def parse_pairs(self, number_meaning: str) -> tuple[tuple[tuple[str, int], ...], SourceSpan]:
        open_tok = self.expect("(", "'('")
        pairs = []
        while True:
            name = self.expect("IDENT", "an entity name")
            self.expect(":", f"':' before the {number_meaning}")
            num = self.expect("NUMBER", f"a {number_meaning}")
            pairs.append((name.text, int(num.text)))
            if self.here.kind == ",":
                self.take()
                continue
            break
        close_tok = self.expect(")", "')' or ','")
        return tuple(pairs), open_tok.span.merge(close_tok.span)

    def parse_cao(
        self,
    ) -> tuple[str, SourceSpan, list[tuple[Entity, SourceSpan]], list[tuple[Operator, SourceSpan]]]:
        head = self.expect("IDENT", "'cao'")
        if head.text != "cao":
            raise self.fail(f"expected 'cao', found {head.text!r}", head.span)
        name = self.expect("IDENT", "a CAO name")
        self.expect("{", "'{'")
        entities: list[tuple[Entity, SourceSpan]] = []
        operators: list[tuple[Operator, SourceSpan]] = []
        while self.here.kind != "}":
            tok = self.here
            if tok.kind == "IDENT" and tok.text in _KEYWORD_ROLES:
                entities.append(self.parse_entity())
            elif tok.kind == "(" or (tok.kind == "IDENT" and tok.text in _FORMS):
                operators.append(self.parse_operator())
            elif tok.kind == "EOF":
                raise self.fail("unterminated CAO body; expected '}'")
            else:
                found = tok.text or "end of input"
                raise self.fail(
                    f"expected an entity role, an operator, or '}}', found {found!r}"
                )
        self.take()  # }
        tail = self.here
        if tail.kind != "EOF":
            raise self.fail(f"expected end of input after '}}', found {tail.text!r}")
        return name.text, name.span, entities, operators

    def parse_entity(self) -> tuple[Entity, SourceSpan]:
        role_tok = self.take()
        name = self.expect("IDENT", "an entity name")
        start = 0
        last = name
        if self.here.kind == "=":
            self.take()
            num = self.expect("NUMBER", "a start value")
            start = int(num.text)
            last = num
        entity = Entity(name.text, _KEYWORD_ROLES[role_tok.text], start)
        return entity, role_tok.span.merge(last.span)

    def parse_operator(self) -> tuple[Operator, SourceSpan]:
        form = None
        first_span = self.here.span
        if self.here.kind == "IDENT":
            form = _FORMS[self.take().text]
        inputs, _ = self.parse_pairs("radix")
        self.expect("->", "'->'")
        outputs, out_span = self.parse_pairs("conversion coefficient")
        op = Operator(inputs=inputs, outputs=outputs, form=form)
        return op, first_span.merge(out_span)


def _semantic_diagnostics(
    path: str,
    name_span: SourceSpan,
    entities: list[tuple[Entity, SourceSpan]],
    operators: list[tuple[Operator, SourceSpan]],
    issues,
) -> list[Diagnostic]:
    entity_spans: dict[str, SourceSpan] = {}
    for ent, span in entities:
        entity_spans[ent.name] = span  # duplicates point at the later declaration
    out = []
    for issue in issues:
        if issue.operator is not None and issue.operator < len(operators):
            span = operators[issue.operator][1]
        elif issue.entity is not None and issue.entity in entity_spans:
            span = entity_spans[issue.entity]
        else:
            span = name_span
        out.append(Diagnostic(path, issue.severity, issue.code, issue.message, span))
    return out


def try_parse(
    text: str, *, path: str = "<dsl>", allow_cycles: bool = False
) -> tuple[CaoSpec | None, tuple[Diagnostic, ...]]:
    """Parse leniently: return (spec or None, all diagnostics incl. warnings)."""
    try:
        parser = _Parser(text, path)
        name, name_span, entities, operators = parser.parse_cao()
    except DslError as exc:
        return None, exc.diagnostics
    ents = [e for e, _ in entities]
    ops = [op for op, _ in operators]
    report = check(name, ents, ops, allow_cycles=allow_cycles)
    diags = _semantic_diagnostics(path, name_span, entities, operators, report.issues)
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


def export_dot(spec: CaoSpec) -> str:
    """Graphviz rendering: entities as role-shaped nodes, operators as diamonds."""
    lines = [f"digraph {spec.name} {{", "  rankdir=LR;"]
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


def _operator_params(spec: CaoSpec) -> list[dict]:
    return [
        {"radices": [n for _, n in op.inputs], "coefficients": [r for _, r in op.outputs]}
        for op in spec.operators
    ]


def _trace_json(trace: CstTrace) -> str:
    steps = []
    for s in trace.steps:
        entry: dict = {
            "k": s.k,
            "state": list(s.state),
            "partial": list(s.partials),
            "common": list(s.common),
        }
        if trace.schedule is not None:
            entry["operators"] = _operator_params(trace.schedule.spec_at(s.k))
        steps.append(entry)
    doc = {
        "format_version": TRACE_FORMAT_VERSION,
        "cao": trace.spec.name,
        "entities": list(trace.spec.names),
        "engine": trace.engine,
        "termination": trace.termination,
        "step_count": trace.step_count,
        "steps": steps,
    }
    return json.dumps(doc, indent=2) + "\n"


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
    return int(value)


def _trace_vector(values, width: int, where: str) -> tuple[int, ...]:
    vec = tuple(_json_int(v, where) for v in values)
    if len(vec) != width:
        raise ValueError(f"trace vector has {len(vec)} entries, not one per entity ({width})")
    return vec


def parse_trace(text: str) -> TraceDocument:
    """Read the JSON trace form back; raise ValueError on a malformed document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"trace is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format_version") != TRACE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace document; expected format_version {TRACE_FORMAT_VERSION}"
        )
    try:
        entities = tuple(str(n) for n in doc["entities"])
        steps = tuple(
            TraceStep(
                k=_json_int(s["k"], f"steps[{i}].k"),
                state=_trace_vector(s["state"], len(entities), f"steps[{i}].state"),
                partials=_trace_vector(s["partial"], len(entities), f"steps[{i}].partial"),
                common=_trace_vector(s["common"], len(entities), f"steps[{i}].common"),
            )
            for i, s in enumerate(doc["steps"])
        )
        return TraceDocument(
            cao=str(doc["cao"]),
            entities=entities,
            engine=str(doc["engine"]),
            termination=str(doc["termination"]),
            steps=steps,
        )
    except KeyError as exc:
        raise ValueError(f"trace document lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed trace document: {exc}") from None


# --- Schedules ----------------------------------------------------------------


def _paramset(base: CaoSpec, raw, where: str) -> CaoSpec:
    if not isinstance(raw, dict) or "operators" not in raw:
        raise ValueError(f"{where}: expected an object with an 'operators' list")
    ops = raw["operators"]
    if not isinstance(ops, list):
        raise ValueError(f"{where}: 'operators' must be a list")
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
    key) makes unscheduled steps an error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"schedule is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("schedule must be a JSON object")
    unknown = set(doc) - {"default", "steps"}
    if unknown:
        raise ValueError(f"unknown schedule keys: {sorted(unknown)}")
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
    steps: dict[int, CaoSpec] = {}
    for key, raw in raw_steps.items():
        k = _json_int(key, "step key", key=True)
        if k < 0:
            raise ValueError(f"step key {k} is negative")
        steps[k] = base if raw == "base" else _paramset(base, raw, f"steps[{key}]")
    return ParameterSchedule.from_mapping(base, steps, default)
