"""Domain model for cardinal abstract objects (CAOs).

A CAO is a set of named entities, each holding a non-negative integer
cardinal, wired together by carry-propagating operators. Every operator
consumes whole multiples of a per-input radix and credits each output with a
transformant (carry times a conversion coefficient). The four operator forms
are distinguished only by valence:

    L  1 input, 1 output        D  1 input, many outputs
    F  many inputs, 1 output    M  many inputs, many outputs

Cardinals are unbounded; all arithmetic in this package is exact. Silent
wraparound never happens — the compiled fast path detects 64-bit overflow and
defers to unbounded integers.

Structural rules enforced by :func:`validate`:

* entity names are unique identifiers; matrix index = declaration order;
* every entity feeds at most one operator (its radix is the diagonal entry
  of the configuration matrix, so it must be unique);
* final entities feed no operator;
* no entity appears on both sides of one operator;
* the entity graph is acyclic unless ``allow_cycles`` is set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

ConfigMatrix = tuple[tuple[int, ...], ...]


class Role(Enum):
    """Declared position of an entity in the topology."""

    INITIAL = "initial"
    INTERMEDIATE = "intermediate"
    FINAL = "final"


class Form(Enum):
    """Operator form, determined by valence."""

    L = "L"
    D = "D"
    F = "F"
    M = "M"


def infer_form(input_count: int, output_count: int) -> Form:
    """Map an operator's valence (input count, output count) to its form."""
    if input_count < 1 or output_count < 1:
        raise ValueError("operator needs at least one input and one output")
    if input_count == 1:
        return Form.L if output_count == 1 else Form.D
    return Form.F if output_count == 1 else Form.M


@dataclass(frozen=True)
class Entity:
    """A named cardinal-bearing entity.

    ``start`` is the default initial cardinal used when a simulation is not
    given an explicit initial state.
    """

    name: str
    role: Role = Role.INTERMEDIATE
    start: int = 0


@dataclass(frozen=True)
class Operator:
    """One carry-propagating operator.

    ``inputs`` pairs each consumed entity with its radix (>= 2); ``outputs``
    pairs each credited entity with its conversion coefficient (>= 1).
    ``form`` may be left ``None`` in raw descriptions; :func:`validate` infers
    it from the valence and cross-checks it when declared.
    """

    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]
    form: Form | None = None


@dataclass(frozen=True)
class Issue:
    """A single validation finding."""

    severity: str  # "error" | "warning"
    code: str
    message: str
    entity: str | None = None
    operator: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[Issue, ...]

    @property
    def errors(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    @property
    def warnings(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors


class InvalidCaoError(ValueError):
    """Raised by :func:`validate` when a description breaks a structural rule."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = [f"[{i.code}] {i.message}" for i in report.errors]
        super().__init__("invalid CAO description:\n  " + "\n  ".join(lines))


@dataclass(frozen=True)
class CaoSpec:
    """A validated CAO description. Immutable; safe to share across threads."""

    name: str
    entities: tuple[Entity, ...]
    operators: tuple[Operator, ...]

    @property
    def m(self) -> int:
        return len(self.entities)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entities)

    def index(self, name: str) -> int:
        try:
            return entity_index(self)[name]
        except KeyError:
            raise KeyError(f"no entity named {name!r} in CAO {self.name!r}") from None

    def start_state(self) -> tuple[int, ...]:
        return tuple(e.start for e in self.entities)

    # The per-spec caches (``plan_for``, ``resolve``, ``entity_index``) hash
    # the spec on every lookup, so the hash of the whole entity and operator
    # tree is taken once and kept.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.entities, self.operators))

    def __getstate__(self) -> dict:
        # String hashes differ between processes, so a pickle carries no hash.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@lru_cache(maxsize=4096)
def entity_index(spec: CaoSpec) -> dict[str, int]:
    return {e.name: i for i, e in enumerate(spec.entities)}


def _operator_edges(operators: Sequence[Operator]) -> Iterable[tuple[str, str]]:
    for op in operators:
        for src, _ in op.inputs:
            for dst, _ in op.outputs:
                yield src, dst


def _find_cycle(names: Sequence[str], edges: Iterable[tuple[str, str]]) -> list[str] | None:
    """Return one directed cycle as a name path (closed), or None."""
    adj: dict[str, list[str]] = {n: [] for n in names}
    for src, dst in edges:
        if src in adj and dst in adj:
            adj[src].append(dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in names}
    for root in names:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        path = [root]
        color[root] = GRAY
        while stack:
            node, child = stack[-1]
            if child < len(adj[node]):
                stack[-1] = (node, child + 1)
                nxt = adj[node][child]
                if color[nxt] == GRAY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def _is_integer(value) -> bool:
    """True for an ``int``; a ``bool`` is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def check(
    name: str,
    entities: Sequence[Entity],
    operators: Sequence[Operator],
    *,
    allow_cycles: bool = False,
) -> ValidationReport:
    """Collect every violated rule (and advisory warnings) without raising."""
    issues: list[Issue] = []

    def err(code: str, message: str, entity: str | None = None, operator: int | None = None) -> None:
        issues.append(Issue("error", code, message, entity, operator))

    def warn(code: str, message: str, entity: str | None = None, operator: int | None = None) -> None:
        issues.append(Issue("warning", code, message, entity, operator))

    if not _IDENT_RE.match(name or ""):
        err("bad-name", f"CAO name {name!r} is not an identifier")

    seen: set[str] = set()
    for ent in entities:
        if not _IDENT_RE.match(ent.name or ""):
            err("bad-name", f"entity name {ent.name!r} is not an identifier", entity=ent.name)
        if ent.name in seen:
            err("duplicate-name", f"entity {ent.name!r} declared more than once", entity=ent.name)
        seen.add(ent.name)
        if not _is_integer(ent.start):
            err("bad-start", f"entity {ent.name!r} has a start value that is not an integer: {ent.start!r}", entity=ent.name)
        elif ent.start < 0:
            err("bad-start", f"entity {ent.name!r} has negative start value {ent.start}", entity=ent.name)

    known = {e.name for e in entities}
    role_of = {e.name: e.role for e in entities}
    outgoing: dict[str, list[int]] = {}

    for k, op in enumerate(operators):
        if not op.inputs or not op.outputs:
            err("bad-valence", f"operator #{k} must have at least one input and one output", operator=k)
            continue
        in_names = [e for e, _ in op.inputs]
        out_names = [e for e, _ in op.outputs]
        for e in in_names + out_names:
            if e not in known:
                err("unknown-entity", f"operator #{k} references undeclared entity {e!r}", entity=e, operator=k)
        if len(set(in_names)) != len(in_names):
            err("duplicate-input", f"operator #{k} lists an input entity twice", operator=k)
        if len(set(out_names)) != len(out_names):
            err("duplicate-output", f"operator #{k} lists an output entity twice", operator=k)
        overlap = sorted(set(in_names) & set(out_names))
        if overlap:
            err("self-loop", f"operator #{k} uses {overlap[0]!r} as both input and output", entity=overlap[0], operator=k)
        for e, radix in op.inputs:
            if not _is_integer(radix):
                err("bad-radix", f"operator #{k} input {e!r} has a radix that is not an integer: {radix!r}", entity=e, operator=k)
            elif radix < 2:
                err("bad-radix", f"operator #{k} input {e!r} has radix {radix}; must be >= 2", entity=e, operator=k)
        for e, coeff in op.outputs:
            if not _is_integer(coeff):
                err("bad-coefficient", f"operator #{k} output {e!r} has a coefficient that is not an integer: {coeff!r}", entity=e, operator=k)
            elif coeff < 1:
                err("bad-coefficient", f"operator #{k} output {e!r} has coefficient {coeff}; must be >= 1", entity=e, operator=k)
        inferred = infer_form(max(len(op.inputs), 1), max(len(op.outputs), 1))
        if op.form is not None and op.form != inferred:
            err(
                "form-mismatch",
                f"operator #{k} declared {op.form.value} but valence "
                f"({len(op.inputs)},{len(op.outputs)}) implies {inferred.value}",
                operator=k,
            )
        for e in in_names:
            if role_of.get(e) == Role.FINAL:
                err("final-entity-input", f"final entity {e!r} cannot feed operator #{k}", entity=e, operator=k)
            outgoing.setdefault(e, []).append(k)

    for e, ops in sorted(outgoing.items()):
        if len(ops) > 1:
            err(
                "multiple-outgoing-operators",
                f"entity {e!r} feeds operators {ops}; an entity may feed at most one",
                entity=e,
            )

    if not allow_cycles:
        cycle = _find_cycle([e.name for e in entities], _operator_edges(operators))
        if cycle is not None:
            err("cycle-detected", "topology contains a cycle: " + " -> ".join(cycle))

    # Advisory checks. An intermediate entity with no outgoing operator
    # behaves exactly like a final one; reachability gaps usually mean a typo.
    for ent in entities:
        if ent.role == Role.INTERMEDIATE and ent.name not in outgoing:
            warn(
                "role-mismatch",
                f"entity {ent.name!r} has no outgoing operator but is not declared final",
                entity=ent.name,
            )
    reachable = {e.name for e in entities if e.role == Role.INITIAL}
    frontier = list(reachable)
    adj: dict[str, set[str]] = {}
    for src, dst in _operator_edges(operators):
        adj.setdefault(src, set()).add(dst)
    while frontier:
        node = frontier.pop()
        for nxt in sorted(adj.get(node, ())):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    for ent in entities:
        if ent.role != Role.INITIAL and ent.name not in reachable:
            warn("unreachable-entity", f"entity {ent.name!r} is not reachable from any initial entity", entity=ent.name)

    return ValidationReport(tuple(issues))


def validate(
    name: str,
    entities: Sequence[Entity],
    operators: Sequence[Operator],
    *,
    allow_cycles: bool = False,
) -> CaoSpec:
    """Validate a raw description and return the immutable spec.

    Raises :class:`InvalidCaoError` carrying the full report if any rule is
    violated. Warnings do not block; use :func:`check` to inspect them.
    """
    report = check(name, entities, operators, allow_cycles=allow_cycles)
    if not report.ok:
        raise InvalidCaoError(report)
    return build_spec(name, entities, operators)


def build_spec(
    name: str, entities: Sequence[Entity], operators: Sequence[Operator]
) -> CaoSpec:
    """The immutable spec of a description that :func:`check` found valid.

    Operators declared without a form get the one their valence implies.
    """
    resolved = tuple(
        op if op.form is not None else replace(op, form=infer_form(len(op.inputs), len(op.outputs)))
        for op in operators
    )
    return CaoSpec(name=name, entities=tuple(entities), operators=resolved)


def build_config_matrix(spec: CaoSpec) -> ConfigMatrix:
    """The m×m configuration matrix.

    Diagonal entry (i, i) holds entity i's radix (0 when it feeds nothing);
    entry (i, j) holds the conversion coefficient toward entity j for every
    input row i of an operator that outputs to j. All input rows of a
    multi-input operator therefore carry identical off-diagonal coefficients.
    """
    m = spec.m
    idx = entity_index(spec)
    rows = [[0] * m for _ in range(m)]
    for op in spec.operators:
        for e, radix in op.inputs:
            i = idx[e]
            rows[i][i] = radix
            for t, coeff in op.outputs:
                rows[i][idx[t]] = coeff
    return tuple(tuple(r) for r in rows)


class NegativeComponentError(ValueError):
    """A state fed to either engine has a negative component."""


def check_state(spec: CaoSpec, state: Sequence[int]) -> None:
    """Reject a state of the wrong length, or with a component that is not
    an ``int`` (a ``bool`` is not one) or is negative; ValueError for each.

    Both update routes call this before stepping. It looks at shape, type
    and sign only and does no arithmetic, so the routes still share none.
    """
    if len(state) != spec.m:
        raise ValueError(
            f"state has {len(state)} components, CAO {spec.name!r} has {spec.m}"
        )
    if set(map(type, state)) <= {int} and (not state or min(state) >= 0):
        return  # the common case, checked at C speed; the loop names the culprit
    for ent, value in zip(spec.entities, state):
        if not _is_integer(value):
            raise ValueError(f"entity {ent.name!r} has a cardinal that is not an integer: {value!r}")
        if value < 0:
            raise NegativeComponentError(
                f"entity {ent.name!r} has negative cardinal {value}"
            )
