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
import weakref
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass, replace
from enum import Enum
from functools import cached_property, wraps
from itertools import chain, compress, repeat
from operator import attrgetter, gt, is_, is_not, itemgetter, lt
from typing import Callable, Iterable, Iterator, Sequence

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT + r"\Z")
_IDENTS_RE = re.compile(f"{_IDENT}(?:\\n{_IDENT})*")  # identifiers, one per line

ConfigMatrix = tuple[tuple[int, ...], ...]


class Role(Enum):
    """Declared position of an entity in the topology.

    A member hashes by identity, in C, where ``Enum.__hash__`` hashes its
    name in Python code at about five times the cost. Members compare by
    identity, so this agrees with their equality.
    """

    INITIAL = "initial"
    INTERMEDIATE = "intermediate"
    FINAL = "final"

    __hash__ = object.__hash__


class Form(Enum):
    """Operator form, determined by valence. Hashed by identity, as
    :class:`Role` is."""

    L = "L"
    D = "D"
    F = "F"
    M = "M"

    __hash__ = object.__hash__


# The form of each valence, keyed by (more than one input, more than one output).
_FORM_OF_VALENCE = {(False, False): Form.L, (False, True): Form.D, (True, False): Form.F, (True, True): Form.M}


def infer_form(input_count: int, output_count: int) -> Form:
    """Map an operator's valence (input count, output count) to its form."""
    if input_count < 1 or output_count < 1:
        raise ValueError("operator needs at least one input and one output")
    return _FORM_OF_VALENCE[input_count > 1, output_count > 1]


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls):
    """Make every assignment and deletion on ``cls``'s instances raise
    ``FrozenInstanceError``, with the dataclass's own messages.

    With ``slots=True`` the decorator returns a new class, but before Python
    3.14 its generated ``__setattr__`` and ``__delattr__`` still name the
    class it replaced: a name that is not a field reaches ``super()`` with
    that class and raises TypeError. A slotted record without ``__dict__``
    has nowhere to put such a name anyway."""
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Entity:
    """A named cardinal-bearing entity.

    ``start`` is the default initial cardinal used when a simulation is not
    given an explicit initial state.

    A description builds one per entity, so the record is slotted and its
    constructor is written by hand: it fills the three slots through their
    descriptors, which costs less than half of the generated ``__init__``'s
    three ``object.__setattr__`` calls. Everything else is the dataclass's
    own.
    """

    name: str
    role: Role = Role.INTERMEDIATE
    start: int = 0

    def __init__(self, name: str, role: Role = Role.INTERMEDIATE, start: int = 0) -> None:
        _set_name(self, name)
        _set_role(self, role)
        _set_start(self, start)


_set_name = Entity.name.__set__
_set_role = Entity.role.__set__
_set_start = Entity.start.__set__


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Operator:
    """One carry-propagating operator.

    ``inputs`` pairs each consumed entity with its radix (>= 2); ``outputs``
    pairs each credited entity with its conversion coefficient (>= 1).
    ``form`` may be left ``None`` in raw descriptions; :func:`validate` infers
    it from the valence and cross-checks it when declared.

    Slotted, with a hand-written constructor, for the reason
    :class:`Entity` gives.
    """

    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]
    form: Form | None = None

    def __init__(
        self, inputs: tuple[tuple[str, int], ...], outputs: tuple[tuple[str, int], ...], form: Form | None = None
    ) -> None:
        _set_inputs(self, inputs)
        _set_outputs(self, outputs)
        _set_form(self, form)


_set_inputs = Operator.inputs.__set__
_set_outputs = Operator.outputs.__set__
_set_form = Operator.form.__set__


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class TraceStep:
    """One recorded instant: the state at step k and the carries read off it.

    The carries stored here are computed *from* ``state`` and produce the
    next entry's state. In the last entry of a fixed-point trace they are all
    zero; after a step-limit stop they are computed but never applied.

    A run records one entry per update, and the stepping routes build the
    entries themselves (:mod:`caosim.kernel`, :mod:`caosim.operational`), so
    the record lives here, where both import it. Its constructor is written
    by hand, for the reason :class:`Entity` gives.

    On the compiled backend C writes the entries, filling the same slots,
    and each tuple an entry holds is untracked by the garbage collector when
    it holds only exact ints, which cannot be part of a cycle (see
    :mod:`caosim.kernel`). An entry whose three tuples are such untracked
    tuples is untracked too: it is frozen and has no ``__dict__``, so it
    refers to an int and those tuples alone, and nothing they reach can
    refer back to it. Any other entry, one holding an ``int`` subclass say,
    stays tracked. (Forcing a slot of an untracked entry with
    ``object.__setattr__`` can make a cycle the collector never frees; it
    cannot make one it frees wrongly.)
    """

    k: int
    state: tuple[int, ...]
    partials: tuple[int, ...]
    common: tuple[int, ...]

    def __init__(
        self, k: int, state: tuple[int, ...], partials: tuple[int, ...], common: tuple[int, ...]
    ) -> None:
        _set_k(self, k)
        _set_state(self, state)
        _set_partials(self, partials)
        _set_common(self, common)


_set_k = TraceStep.k.__set__
_set_state = TraceStep.state.__set__
_set_partials = TraceStep.partials.__set__
_set_common = TraceStep.common.__set__


def held(entry: TraceStep, end: int) -> list[TraceStep]:
    """The entries that repeat ``entry`` from step ``entry.k + 1`` up to
    ``end`` (exclusive): a fixed point held while the parameters may still
    change. Each shares ``entry``'s three tuples."""
    state, partials, common = entry.state, entry.partials, entry.common
    return [TraceStep(k, state, partials, common) for k in range(entry.k + 1, end)]

_NAME, _ROLE, _START = attrgetter("name"), attrgetter("role"), attrgetter("start")
_INPUTS, _OUTPUTS, _FORM = attrgetter("inputs"), attrgetter("outputs"), attrgetter("form")
_ENTITY_FIELDS = attrgetter("name", "role", "start")
_OPERATOR_FIELDS = attrgetter("inputs", "outputs", "form")


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
    # tree is taken once and kept. It hashes each record's field tuple, read
    # in C by ``attrgetter``, where hashing the records would call each one's
    # generated ``__hash__`` in Python; equal specs hold records of one class
    # with equal fields, so they still hash alike.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        entities = tuple(map(_ENTITY_FIELDS, self.entities))
        return hash((self.name, entities, tuple(map(_OPERATOR_FIELDS, self.operators))))

    def __getstate__(self) -> dict:
        # String hashes differ between processes, so a pickle carries no hash.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "currsize"])


def per_spec(fn: Callable) -> Callable:
    """Cache ``fn(spec)`` for as long as ``spec`` lives.

    The cache holds its keys weakly, so a dropped spec takes its entry, and
    all that was computed from it, with it. Equal specs share an entry.
    Like a ``functools.lru_cache``, the cached function has
    ``cache_clear()`` and ``cache_info()``, which counts hits and misses.
    A cached value must not refer to its spec, or the entry never dies.
    """
    cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    counts = [0, 0]  # hits, misses
    miss = object()

    @wraps(fn)
    def cached(spec: CaoSpec):
        value = cache.get(spec, miss)
        if value is miss:
            counts[1] += 1
            value = cache[spec] = fn(spec)
        else:
            counts[0] += 1
        return value

    def cache_clear() -> None:
        cache.clear()
        counts[:] = [0, 0]

    cached.cache_clear = cache_clear  # type: ignore[attr-defined]
    cached.cache_info = lambda: CacheInfo(*counts, len(cache))  # type: ignore[attr-defined]
    return cached


@per_spec
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


def _is_identifier(name) -> bool:
    return isinstance(name, str) and _IDENT_RE.match(name) is not None


def _name_order(name) -> tuple[bool, str]:
    """Sort key: names in string order, then names that are not strings."""
    return (False, name) if isinstance(name, str) else (True, repr(name))


def _columns(sides) -> tuple[list, list]:
    """The names and the numbers of all ``(name, number)`` pairs of ``sides``."""
    pairs = list(chain.from_iterable(sides))
    return list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))


def _entity_issues(entities: Sequence[Entity]) -> Iterator[Issue]:
    """The errors of each entity, in declaration order."""
    seen: set[str] = set()
    for ent in entities:
        if not _is_identifier(ent.name):
            yield Issue("error", "bad-name", f"entity name {ent.name!r} is not an identifier", ent.name)
        if ent.name in seen:
            yield Issue("error", "duplicate-name", f"entity {ent.name!r} declared more than once", ent.name)
        seen.add(ent.name)
        if not _is_integer(ent.start):
            yield Issue("error", "bad-start", f"entity {ent.name!r} has a start value that is not an integer: {ent.start!r}", ent.name)
        elif ent.start < 0:
            yield Issue("error", "bad-start", f"entity {ent.name!r} has negative start value {ent.start}", ent.name)
        if type(ent.role) is not Role:
            yield Issue("error", "bad-role", f"entity {ent.name!r} has role {ent.role!r}, which is not a Role", ent.name)


def _operator_issues(
    operators: Sequence[Operator], known: set[str], finals: set[str], outgoing: dict[str, list[int]]
) -> Iterator[Issue]:
    """The errors of each operator, in declaration order. Fills ``outgoing``
    with the operators each entity feeds."""
    for k, op in enumerate(operators):
        if not op.inputs or not op.outputs:
            yield Issue("error", "bad-valence", f"operator #{k} must have at least one input and one output", None, k)
            continue
        in_names = [e for e, _ in op.inputs]
        out_names = [e for e, _ in op.outputs]
        for e in in_names + out_names:
            if e not in known:
                yield Issue("error", "unknown-entity", f"operator #{k} references undeclared entity {e!r}", e, k)
        if len(set(in_names)) != len(in_names):
            yield Issue("error", "duplicate-input", f"operator #{k} lists an input entity twice", None, k)
        if len(set(out_names)) != len(out_names):
            yield Issue("error", "duplicate-output", f"operator #{k} lists an output entity twice", None, k)
        overlap = set(in_names) & set(out_names)
        if overlap:
            e = min(overlap, key=_name_order)
            yield Issue("error", "self-loop", f"operator #{k} uses {e!r} as both input and output", e, k)
        for e, radix in op.inputs:
            if not _is_integer(radix):
                yield Issue("error", "bad-radix", f"operator #{k} input {e!r} has a radix that is not an integer: {radix!r}", e, k)
            elif radix < 2:
                yield Issue("error", "bad-radix", f"operator #{k} input {e!r} has radix {radix}; must be >= 2", e, k)
        for e, coeff in op.outputs:
            if not _is_integer(coeff):
                yield Issue("error", "bad-coefficient", f"operator #{k} output {e!r} has a coefficient that is not an integer: {coeff!r}", e, k)
            elif coeff < 1:
                yield Issue("error", "bad-coefficient", f"operator #{k} output {e!r} has coefficient {coeff}; must be >= 1", e, k)
        inferred = infer_form(len(op.inputs), len(op.outputs))
        valence = f"valence ({len(op.inputs)},{len(op.outputs)}) implies {inferred.value}"
        if op.form is not None and op.form is not inferred:
            declared = f"{op.form.value} but" if isinstance(op.form, Form) else f"form {op.form!r}, which is not a Form;"
            yield Issue("error", "form-mismatch", f"operator #{k} declared {declared} {valence}", None, k)
        for e in in_names:
            if e in finals:
                yield Issue("error", "final-entity-input", f"final entity {e!r} cannot feed operator #{k}", e, k)
            outgoing.setdefault(e, []).append(k)


def check(
    name: str,
    entities: Sequence[Entity],
    operators: Sequence[Operator],
    *,
    allow_cycles: bool = False,
) -> ValidationReport:
    """Collect every violated rule (and advisory warnings) without raising.

    Each group of rules is first shown to hold for the whole description at
    once, with set, ``min`` and ``map`` operations. Only a group whose proof
    fails is walked item by item, to name its culprits in declaration order.
    """
    issues: list[Issue] = []
    if not _is_identifier(name):
        issues.append(Issue("error", "bad-name", f"CAO name {name!r} is not an identifier"))

    names = list(map(_NAME, entities))
    roles = list(map(_ROLE, entities))
    starts = list(map(_START, entities))
    known = set(names)
    if not (
        set(map(type, names)) <= {str}
        # one match for all names; the count shows that no name holds a newline
        and (not names or _IDENTS_RE.fullmatch(joined := "\n".join(names)) and joined.count("\n") == len(names) - 1)
        and len(known) == len(names)
        and set(map(type, starts)) <= {int}
        and (not starts or min(starts) >= 0)
        and set(map(type, roles)) <= {Role}
    ):
        issues.extend(_entity_issues(entities))

    role_of = dict(zip(names, roles))  # a name declared twice has its last role
    finals = set(compress(role_of, map(is_, role_of.values(), repeat(Role.FINAL))))
    ins = list(map(_INPUTS, operators))
    outs = list(map(_OUTPUTS, operators))
    in_counts, out_counts = list(map(len, ins)), list(map(len, outs))
    in_names, radices = _columns(ins)
    out_names, coefficients = _columns(outs)
    # the operator of each input and output
    in_ops = list(chain.from_iterable(map(repeat, range(len(ins)), in_counts)))
    out_ops = list(chain.from_iterable(map(repeat, range(len(outs)), out_counts)))
    out_pairs = set(zip(out_names, out_ops))
    outgoing: dict = dict(zip(in_names, in_ops))
    forms = list(map(_FORM, operators))
    # the form each valence implies, looked up by (inputs > 1, outputs > 1)
    implied = map(_FORM_OF_VALENCE.__getitem__, zip(map(gt, in_counts, repeat(1)), map(gt, out_counts, repeat(1))))
    bulk = (
        (not operators or min(in_counts) >= 1 and min(out_counts) >= 1)
        and known.issuperset(in_names)
        and known.issuperset(out_names)
        and len(outgoing) == len(in_names)  # no entity feeds two operators, or one twice
        and len(out_pairs) == len(out_names)  # no operator credits an entity twice
        and out_pairs.isdisjoint(zip(in_names, in_ops))  # no operator credits its own input
        and set(map(type, radices)) <= {int}
        and (not radices or min(radices) >= 2)
        and set(map(type, coefficients)) <= {int}
        and (not coefficients or min(coefficients) >= 1)
        # each declared form is the one its valence implies
        and sum(map(is_not, forms, implied)) == forms.count(None)
        and finals.isdisjoint(in_names)
    )
    if not bulk:
        outgoing = {}
        issues.extend(_operator_issues(operators, known, finals, outgoing))
        for e, ops in sorted(outgoing.items(), key=lambda item: _name_order(item[0])):
            if len(ops) > 1:
                message = f"entity {e!r} feeds operators {ops}; an entity may feed at most one"
                issues.append(Issue("error", "multiple-outgoing-operators", message, e))

    # Once each entity feeds at most one operator, which ``bulk`` shows,
    # the topology is acyclic when every operator credits only entities
    # that feed a later one; otherwise a search decides, and names a cycle.
    acyclic = bulk and all(map(lt, out_ops, map(outgoing.get, out_names, repeat(len(operators)))))
    if not allow_cycles and not acyclic:
        cycle = _find_cycle(names, _operator_edges(operators))
        if cycle is not None:
            issues.append(Issue("error", "cycle-detected", "topology contains a cycle: " + " -> ".join(cycle)))
        acyclic = bulk and cycle is None

    # Advisory checks. An intermediate entity with no outgoing operator
    # behaves exactly like a final one; reachability gaps usually mean a typo.
    if not outgoing.keys() >= set(compress(names, map(is_, roles, repeat(Role.INTERMEDIATE)))):
        for e, role in zip(names, roles):
            if role is Role.INTERMEDIATE and e not in outgoing:
                issues.append(Issue("warning", "role-mismatch", f"entity {e!r} has no outgoing operator but is not declared final", e))
    # In an acyclic topology every operator is reached, by induction in
    # topological order, when every entity that is not initial is credited
    # by some operator; otherwise a walk finds what is reached. Its order
    # never shows, as the warnings go out in entity order.
    reachable = set(compress(names, map(is_, roles, repeat(Role.INITIAL))))
    if not (acyclic and reachable.union(out_names).issuperset(names)):
        # ``bulk`` left each entity mapped to the one operator it feeds
        fed = {e: (k,) for e, k in outgoing.items()} if bulk else outgoing
        frontier = list(reachable)
        taken: set[int] = set()
        for e in frontier:
            for k in fed.get(e, ()):
                if k not in taken:
                    taken.add(k)
                    for t, _ in outs[k]:
                        if t not in reachable:
                            reachable.add(t)
                            frontier.append(t)
        for e, role in zip(names, roles):
            if role is not Role.INITIAL and e not in reachable:
                issues.append(Issue("warning", "unreachable-entity", f"entity {e!r} is not reachable from any initial entity", e))

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
