"""Shared fixtures: the all-forms showcase CAO and a deterministic fuzz corpus,
``random_parameters``, which redraws a CAO's radices and coefficients,
``matrix_step``, the paper's matrix update applied literally,
``check_oracle``, the structural check walked rule by rule,
``lockstep_oracle``, the lock-step check compared row by row,
``recorded``, the full-row recording that the stretch records replaced,
``record_of`` and ``with_row``, which write full rows as a stretch record,
``as_rows``, which reads a stretch record back as rows, and
``package_imports``, which reads what a ``caosim`` module imports.

Before ``caosim`` is imported, the compiled step kernel is built in place
from ``src/caosim/_stepcore.c`` when a C compiler is present, so the tests
exercise it as well as the pure kernel.
"""

from __future__ import annotations

import ast
import importlib
import math
import os
import random
import shlex
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest


KERNEL_SOURCE = Path(__file__).resolve().parent.parent / "src" / "caosim" / "_stepcore.c"


def kernel_compiler() -> list[str] | None:
    """Python's own C compiler command, or None when it is not on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return cc if shutil.which(cc[0]) else None


def kernel_compile_command(output: Path, *extra_flags: str, source: Path = KERNEL_SOURCE) -> list[str]:
    """Compile ``source``, by default ``_stepcore.c``, into the extension
    ``output`` with Python's compiler and flags, followed by ``extra_flags``."""
    return [
        *kernel_compiler(),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC"),
        *shlex.split(sysconfig.get_config_var("CFLAGS") or "-O2"),
        *extra_flags,
        "-shared",
        f"-I{sysconfig.get_paths()['include']}",
        str(source),
        "-o",
        str(output),
    ]


def _build_kernel() -> None:
    """Compile the kernel next to its source, unless no compiler exists or
    the built module is up to date."""
    target = KERNEL_SOURCE.with_name("_stepcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not KERNEL_SOURCE.is_file() or kernel_compiler() is None:
        return
    if target.is_file() and target.stat().st_mtime >= KERNEL_SOURCE.stat().st_mtime:
        return
    partial = target.with_name(f"_stepcore.build-{os.getpid()}.so")
    try:
        subprocess.run(kernel_compile_command(partial), check=True)
        os.replace(partial, target)  # atomic, so a concurrent run never loads half a file
    finally:
        partial.unlink(missing_ok=True)


_build_kernel()

from caosim import (  # noqa: E402
    CaoSpec,
    DerivedOperators,
    ParameterSchedule,
    derive,
    kernel,
    parse,
    random_cao,
    random_state,
    resolve,
    with_parameters,
)
from caosim.model import (  # noqa: E402
    Entity,
    Issue,
    Operator,
    Role,
    Stretch,
    TraceStep,
    ValidationReport,
    _IDENT_RE,
    _find_cycle,
    _is_integer,
    _operator_edges,
    infer_form,
)
from caosim.simulate import _RUN_CHUNK, Divergence, _initial_state  # noqa: E402

# One CAO exercising every operator form: an M fans (i, j) into (d, s),
# an L and a D push d and s onward into (g, u), and an F collapses (g, u)
# into the final h. Starts at (100, 100, 0, ...).
SHOWCASE_TEXT = """\
cao showcase {
  initial i = 100
  initial j = 100
  intermediate d
  intermediate s
  intermediate g
  intermediate u
  final h

  M (i:10, j:8) -> (d:1, s:2)
  L (d:8) -> (g:2)
  D (s:10) -> (g:1, u:3)
  F (g:4, u:2) -> (h:1)
}
"""

# Its hand-checked trajectory: state and common-carry vector at every step,
# in entity order (i, j, d, s, g, u, h). The run settles after three updates.
SHOWCASE_TRAJECTORY = (
    ((100, 100, 0, 0, 0, 0, 0), (10, 10, 0, 0, 0, 0, 0)),
    ((0, 20, 10, 20, 0, 0, 0), (0, 0, 1, 2, 0, 0, 0)),
    ((0, 20, 2, 0, 4, 6, 0), (0, 0, 0, 0, 1, 1, 0)),
    ((0, 20, 2, 0, 0, 4, 1), (0, 0, 0, 0, 0, 0, 0)),
)

# A cycle that grows by about half a bit per update, so runs from near 2**63
# cross the int64 boundary mid-run, often more than once.
GROWING_CYCLE_TEXT = """\
cao grow {
  initial a
  initial b
  intermediate c
  F (a:2, b:3) -> (c:4)
  D (c:2) -> (a:3, b:2)
}
"""

# An 8-entity cycle using all four forms: every operator moves as much
# weight out as in, so from (a + 1, a, 0, ...) it never settles.
LOOP_TEXT = """\
cao loop {
  initial i = 500000001
  initial j = 500000000
  intermediate d
  intermediate s
  intermediate g
  intermediate u
  intermediate h
  intermediate k

  M (i:2, j:2) -> (d:2, s:2)
  D (d:2) -> (g:1, u:1)
  D (s:2) -> (g:1, u:1)
  F (g:2, u:2) -> (h:4)
  L (h:2) -> (k:2)
  D (k:4) -> (i:2, j:2)
}
"""

# The loop from (a + 1, a) with a odd: i's partial carry is one more than
# j's, so the M operator's fold lowers i's common carry on every update.
# From ``LOOP_TEXT``'s own start, with a even, no update lowers one.
LOWERING_LOOP_TEXT = LOOP_TEXT.replace("= 500000001", "= 500000002").replace("= 500000000", "= 500000001")


def random_parameters(rng: random.Random, spec):
    """``spec`` with every radix drawn from 2..4 and every coefficient from 1..4."""
    return with_parameters(
        spec,
        [
            ([rng.randint(2, 4) for _ in op.inputs], [rng.randint(1, 4) for _ in op.outputs])
            for op in spec.operators
        ],
    )


# The oracle for ``caosim.step``: the paper's state equation
#     x(k+1) = x(k) + (Rᵀ − N)·Λ⌊N⁻·x(k)⌋
# applied literally to the dense matrices ``derive`` builds, with N⁻ in exact
# Fractions and an integer matrix-vector product.
def reciprocal_radices(d: DerivedOperators) -> tuple[Fraction, ...]:
    """The diagonal of N⁻: 1/n for each radix n, and 0 where N has 0."""
    return tuple(Fraction(1, v) if v else Fraction(0) for v in d.n)


def partial_carries(state, d: DerivedOperators) -> tuple[int, ...]:
    """⌊N⁻·state⌋ componentwise (zero where the reciprocal radix is zero)."""
    return tuple(math.floor(r * s) for s, r in zip(state, reciprocal_radices(d)))


def common_carries(partials, d: DerivedOperators) -> tuple[int, ...]:
    """Λ: each carry group takes its minimum; every other entry passes."""
    pc = list(partials)
    for grp in d.carry_groups:
        low = min(partials[i] for i in grp)
        for i in grp:
            pc[i] = low
    return tuple(pc)


def matrix_step(spec: CaoSpec, state, *, fold: bool = True):
    """``(next, partials, common)``: one update by the matrices of
    ``derive(spec)``. ``fold=False`` skips Λ, which is sound only for CAOs
    without multi-input operators, where Λ is the identity anyway."""
    d = derive(spec)
    p = partial_carries(state, d)
    pc = common_carries(p, d) if fold else p
    tr = d.transition()
    nxt = tuple(s + sum(tr[i][j] * pc[j] for j in range(d.m)) for i, s in enumerate(state))
    return nxt, p, pc


# The oracle for ``caosim.check``: every rule checked entity by entity and
# operator by operator. ``check`` must return an equal report. It raises
# where ``check`` reports a name that is not a string (``bad-name``) or a
# declared form that is not a ``Form`` (``form-mismatch``).
def check_oracle(
    name: str,
    entities: Sequence[Entity],
    operators: Sequence[Operator],
    *,
    allow_cycles: bool = False,
) -> ValidationReport:
    """Every violated rule and advisory warning, found item by item."""
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
        if not isinstance(ent.role, Role):
            err("bad-role", f"entity {ent.name!r} has role {ent.role!r}, which is not a Role", entity=ent.name)

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


# The oracle for the stretch records the stepping routes write: the
# recording they replaced, which kept one ``TraceStep`` of full rows per
# update.
def recorded(rows, k=0) -> list[TraceStep]:
    """One entry per ``(state, partials, common)`` row, numbered from ``k``."""
    return [TraceStep(i, s, p, pc) for i, (s, p, pc) in enumerate(rows, k)]


FIELDS = ("state", "partials", "common")


def record_of(rows, k=0) -> Stretch:
    """The stretch record of full ``(state, partials, common)`` rows: the
    first row in full, then for each later row the cells whose value
    differs from the row before, in cell order."""
    (state, partials, common), *rest = rows
    before = [*state, *partials, *common]
    changes = []
    for row in rest:
        cells = [v for r in row for v in r]
        changes.append(tuple(x for c, (a, b) in enumerate(zip(before, cells)) if a != b for x in (c, b)))
        before = cells
    return Stretch(k, state, partials, common, changes)


def with_row(stretch: Stretch, j: int, **fields) -> Stretch:
    """``stretch`` with the named rows of its update ``j`` replaced."""
    rows = [list(row) for row in stretch.rows()]
    for name, value in fields.items():
        rows[j][FIELDS.index(name)] = value
    return record_of(rows, stretch.k)


def as_rows(stretch, k=0):
    """``(rows, last, stop)`` for a stretch ``(record, last, stop)`` that a
    stepping route returned: each update as its ``(state, partials,
    common)`` row, once the record is checked to be a ``Stretch`` numbered
    from ``k`` whose changes name only cells whose value changed."""
    record, last, stop = stretch
    assert type(record) is Stretch and record.k == k
    assert type(record.changes) is list and all(type(c) is tuple for c in record.changes)
    rows = list(record.rows())
    assert record_of(rows, k).changes == [tuple(sorted_pairs(c)) for c in record.changes]
    return rows, last, stop


def sorted_pairs(change):
    """The ``(cell, value)`` pairs of a change tuple in cell order, laid end
    to end again."""
    return [x for pair in sorted(zip(change[::2], change[1::2]), key=lambda p: p[0]) for x in pair]


# The oracle for the lock-step check of ``run(engine="both")``, which the
# enactor makes as it takes each matrix stretch: the enactor as it was when
# each ``next()`` took one update, and the loop that zipped it with the rows
# of each matrix stretch and compared each row in full.
def stepwise_enactor(operators, state):
    """The updates of ``state`` under resolved ``operators``: each
    ``next()`` takes one and returns ``(next, partials, common)``. The first
    update enacts every operator, each later one only the operators that
    read a component the last update changed."""
    readers = [[] for _ in state]
    for o, (inputs, _) in enumerate(operators):
        for i, _ in inputs:
            readers[i].append(o)
    marks = [
        tuple({r for i, _ in (*inputs, *outputs) for r in readers[i]})
        for inputs, outputs in operators
    ]
    grouped = any(len(inputs) > 1 for inputs, _ in operators)
    s = list(state)
    p = [0] * len(s)
    pc = [0] * len(s)
    cur = tuple(s)
    dirty = range(len(operators))
    while True:
        marked = set()
        for o in dirty:
            inputs, outputs = operators[o]
            if len(inputs) == 1:
                i, n = inputs[0]
                common = p[i] = pc[i] = cur[i] // n
                if not common:
                    continue
                s[i] -= common * n
            else:
                common = None
                for i, n in inputs:
                    carry = p[i] = cur[i] // n
                    if common is None or carry < common:
                        common = carry
                for i, n in inputs:
                    pc[i] = common
                if not common:
                    continue
                for i, n in inputs:
                    s[i] -= common * n
            for t, coeff in outputs:
                s[t] += common * coeff
            marked.update(marks[o])
        if marked:
            cur = tuple(s)
        dirty = marked
        pt = tuple(p)
        yield cur, pt, pt if not grouped or p == pc else tuple(pc)


def lockstep_oracle(spec, initial=None, *, max_steps=1000, schedule=None, backend=None):
    """The first :class:`Divergence` of the two routes on the run ``run``
    would make with ``engine="both"``, or None when they agree throughout.

    It takes the matrix stretches as ``run`` does, through ``kernel.advance``
    looked up on the module at each stretch (so a test's patch applies), and
    one :func:`stepwise_enactor` update per row, compared in full with the
    row's carries and the next row's state (``last`` after the last row).
    """
    backend = kernel.backend_name(backend)
    sched = schedule if schedule is not None else ParameterSchedule.constant(spec)
    state = _initial_state(spec, initial)
    current = None
    k = 0
    while True:
        spec_k, until = sched.span(k)
        if spec_k is not current:
            current = spec_k
            plan = kernel.plan_for(spec_k)
            compiled = kernel.bind(plan, backend)
            updates = stepwise_enactor(resolve(spec_k), state)
        limit = min(_RUN_CHUNK, max_steps + 1 - k, _RUN_CHUNK if until is None else until - k)
        rows, last, stop = as_rows(kernel.advance(plan, compiled, state, limit, k), k)
        for i, ((s, p, pc), want) in enumerate(zip(rows, updates)):
            got = (rows[i + 1][0] if i + 1 < len(rows) else last, p, pc)
            if got != want:
                return Divergence(k + i, s, got, want)
        # a fixed state stays fixed until the parameters may change
        k += limit if stop == 0 and until is not None else len(rows)
        if until is None and stop == 0 or k > max_steps:
            return None
        state = last


CORPUS_SEED = 0xCA05
CORPUS_SIZE = 1000


def package_imports(module: str) -> set[str]:
    """The ``caosim`` modules that the source of ``caosim.<module>`` imports,
    relatively or by absolute name, anywhere in the file."""
    path = Path(importlib.import_module(f"caosim.{module}").__file__)
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found.update(n[1] if len(n) > 1 else n[0] for n in names if n[0] == "caosim")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "caosim":
                continue
            inside = parts[1:] if node.level == 0 else parts
            if inside and inside[0]:
                found.add(inside[0])
            else:
                found.update(a.name for a in node.names)
    return found


@pytest.fixture(scope="session")
def showcase() -> CaoSpec:
    return parse(SHOWCASE_TEXT)


@pytest.fixture(scope="session")
def fuzz_corpus() -> list[tuple[CaoSpec, tuple[int, ...]]]:
    """1000 random acyclic CAOs with random start states, fixed seed."""
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for i in range(CORPUS_SIZE):
        spec = random_cao(rng, name=f"fuzz{i}")
        corpus.append((spec, random_state(rng, spec)))
    return corpus
