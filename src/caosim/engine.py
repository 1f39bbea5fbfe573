"""Matrix-form dynamics.

From a validated CAO this module derives the operators of the paper's update

    next = state + (Rᵀ − N) · Λ[⌊N⁻ · state⌋]

— the radix matrix N (diagonal; N⁻ holds its reciprocals), the conversion
matrix Rᵀ, and the carry-group fold Λ — and advances states with it.
Rᵀ holds each output's conversion coefficient in exactly one input column;
outputs cycle through their operator's inputs in declaration order. Λ is not
a literal matrix: it replaces each partial carry inside a multi-input
operator's input set by the group minimum and passes everything else through.

``step`` takes the update by the kernels in :mod:`caosim.kernel`; the tests
apply the derived matrices literally, in exact rationals, as its oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import kernel
from .model import CaoSpec, Operator, _is_integer, check_state, per_spec, validate

IntMatrix = tuple[tuple[int, ...], ...]


class ScheduleGapError(KeyError):
    """A non-stationary run reached a step with no parameter set."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"no parameters scheduled for step {k} and no default set")


@dataclass(frozen=True)
class DerivedOperators:
    """The operator family of one CAO, in exact form.

    ``n``            diagonal of N (0 where an entity feeds nothing)
    ``rt``           m×m integer conversion matrix
    ``carry_groups`` index sets Λ folds with min
    """

    n: tuple[int, ...]
    rt: IntMatrix
    carry_groups: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.n)

    def transition(self) -> IntMatrix:
        """Rᵀ − N, the matrix multiplying the common carry vector."""
        return tuple(
            tuple(row[j] - (self.n[i] if i == j else 0) for j in range(self.m))
            for i, row in enumerate(self.rt)
        )


@per_spec
def derive(spec: CaoSpec) -> DerivedOperators:
    """Build N, Rᵀ and the carry groups from the spec's step plan.

    N is the plan's radix row and Λ its carry groups; each plan edge
    (src, dst, coeff) puts ``coeff`` at Rᵀ[dst][src].
    """
    plan = kernel.plan_for(spec)
    rt = [[0] * plan.m for _ in range(plan.m)]
    for src, dst, coeff in plan.edges:
        rt[dst][src] = coeff
    return DerivedOperators(
        n=plan.n,
        rt=tuple(tuple(r) for r in rt),
        carry_groups=plan.groups,
    )


def step(
    spec: CaoSpec, state: Sequence[int], *, backend: str | None = None
) -> kernel.StepResult:
    """One synchronous update; returns (next, partials, common carries)."""
    check_state(spec, state)
    return kernel.step(state, kernel.plan_for(spec), backend=backend)


# --- Non-stationary runs ----------------------------------------------------


def with_parameters(
    spec: CaoSpec,
    op_params: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> CaoSpec:
    """Copy of ``spec`` with per-operator (radices, coefficients) replaced.

    ``op_params[k]`` supplies the new input radices and output coefficients
    of operator k, in declaration order. Wiring and entity set stay fixed;
    the result is re-validated, but for cycles: ``spec``'s wiring was
    already accepted, with or without them.
    """
    if len(op_params) != len(spec.operators):
        raise ValueError(
            f"got parameters for {len(op_params)} operators, CAO has {len(spec.operators)}"
        )
    new_ops = []
    for op, (radices, coeffs) in zip(spec.operators, op_params):
        if len(radices) != len(op.inputs) or len(coeffs) != len(op.outputs):
            raise ValueError(
                f"parameter shape mismatch for operator "
                f"({len(op.inputs)} in/{len(op.outputs)} out): "
                f"got {len(radices)} radices, {len(coeffs)} coefficients"
            )
        new_ops.append(
            Operator(
                inputs=tuple((e, r) for (e, _), r in zip(op.inputs, radices)),
                outputs=tuple((t, c) for (t, _), c in zip(op.outputs, coeffs)),
                form=op.form,
            )
        )
    return validate(spec.name, spec.entities, new_ops, allow_cycles=True)


def _same_topology(a: CaoSpec, b: CaoSpec) -> bool:
    if a is b:
        return True
    if a.names != b.names:
        return False
    if len(a.operators) != len(b.operators):
        return False
    for oa, ob in zip(a.operators, b.operators):
        if [e for e, _ in oa.inputs] != [e for e, _ in ob.inputs]:
            return False
        if [t for t, _ in oa.outputs] != [t for t, _ in ob.outputs]:
            return False
    return True


@dataclass(frozen=True)
class ParameterSchedule:
    """Per-step parameter sets for a non-stationary CAO.

    All entries share the topology of ``base``; only radices and conversion
    coefficients vary. ``overrides`` pairs step numbers (``int``s >= 0, in
    increasing order) with full parameter sets; steps without an override
    use ``default``, and a missing default makes such steps an error
    (:class:`ScheduleGapError`). :meth:`span` is the one place that says when
    the parameters may change.
    """

    base: CaoSpec
    overrides: tuple[tuple[int, CaoSpec], ...] = ()
    default: CaoSpec | None = None

    def __post_init__(self) -> None:
        self.check_steps([k for k, _ in self.overrides])
        for k, sp in self.overrides:
            if not _same_topology(self.base, sp):
                raise ValueError(f"parameters for step {k} change the topology")
        if self.default is not None and not _same_topology(self.base, self.default):
            raise ValueError("default parameters change the topology")

    @staticmethod
    def check_steps(steps: Sequence[int]) -> None:
        """Raise ValueError unless ``steps`` are ``int``s >= 0 in increasing
        order, as the overrides' steps must be."""
        last = -1
        for k in steps:
            if not _is_integer(k):
                raise ValueError(f"schedule step {k!r} is not an integer")
            if k < 0:
                raise ValueError(f"schedule step {k} is negative")
            if k <= last:
                raise ValueError(f"schedule step {k} does not follow step {last}")
            last = k

    @classmethod
    def constant(cls, spec: CaoSpec) -> ParameterSchedule:
        """Schedule that applies the same parameters at every step."""
        return cls(base=spec, overrides=(), default=spec)

    @classmethod
    def from_mapping(
        cls,
        base: CaoSpec,
        steps: Mapping[int, CaoSpec],
        default: CaoSpec | None = None,
    ) -> ParameterSchedule:
        # a key that is not an integer sorts first, where the constructor
        # refuses it, instead of making sorted() raise TypeError
        items = sorted(steps.items(), key=lambda kv: kv[0] if _is_integer(kv[0]) else -math.inf)
        return cls(base=base, overrides=tuple(items), default=default)

    def span(self, k: int) -> tuple[CaoSpec, int | None]:
        """``(spec, until)``: the parameter set in force at step k, and the
        first later step whose set may differ: k + 1 on an override step, the
        next override after a default step, None once no later step can
        change. A step with neither raises :class:`ScheduleGapError`."""
        i = bisect_left(self.overrides, k, key=lambda step: step[0])
        nxt = self.overrides[i][0] if i < len(self.overrides) else None
        if nxt == k:
            return self.overrides[i][1], k + 1
        if self.default is None:
            raise ScheduleGapError(k)
        return self.default, nxt

    def spec_at(self, k: int) -> CaoSpec:
        """Parameter set in force at step k."""
        return self.span(k)[0]

    def is_constant(self) -> bool:
        return not self.overrides and self.default is not None
