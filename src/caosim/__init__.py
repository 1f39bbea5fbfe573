"""caosim: exact simulation and analysis of cardinal semantic numeration graphs.

A CAO (cardinal abstract object) is a directed graph of integer-valued
entities linked by carry-propagating operators. This package advances such
systems along two independent routes — a derived matrix update and direct
per-operator procedures — checks them against each other, computes an
acyclic CAO's fixed point by a third route in one sweep without stepping,
extracts exact conserved weights, and round-trips descriptions through a
small text format.
"""

from __future__ import annotations

from .model import (
    CaoSpec,
    Entity,
    Form,
    InvalidCaoError,
    Issue,
    NegativeComponentError,
    Operator,
    Role,
    Stretch,
    ValidationReport,
    build_config_matrix,
    check,
    infer_form,
    validate,
)
from .engine import (
    DerivedOperators,
    ParameterSchedule,
    ScheduleGapError,
    derive,
    step,
    with_parameters,
)
from .operational import resolve, step_operational
from .sweep import fixed_point
from .simulate import (
    ConservationError,
    ConservationReport,
    CstTrace,
    Divergence,
    EngineComparison,
    EngineDivergenceError,
    Steps,
    TraceStep,
    build_linear_chain,
    check_conservation,
    compare_engines,
    conserved_weights,
    random_cao,
    random_state,
    run,
    verify_conservation,
)
from .dsl import (
    Diagnostic,
    DslError,
    SourceSpan,
    TraceDocument,
    export_dot,
    export_trace,
    load_schedule,
    parse,
    parse_trace,
    serialize,
    try_parse,
)
from .kernel import COMPILED_AVAILABLE, DEFAULT_BACKEND

__version__ = "0.1.0"

__all__ = [
    "CaoSpec",
    "Entity",
    "Form",
    "InvalidCaoError",
    "Issue",
    "NegativeComponentError",
    "Operator",
    "Role",
    "Stretch",
    "ValidationReport",
    "build_config_matrix",
    "check",
    "infer_form",
    "validate",
    "DerivedOperators",
    "ParameterSchedule",
    "ScheduleGapError",
    "derive",
    "step",
    "with_parameters",
    "resolve",
    "step_operational",
    "fixed_point",
    "ConservationError",
    "ConservationReport",
    "CstTrace",
    "Divergence",
    "EngineComparison",
    "EngineDivergenceError",
    "Steps",
    "TraceStep",
    "build_linear_chain",
    "check_conservation",
    "compare_engines",
    "conserved_weights",
    "random_cao",
    "random_state",
    "run",
    "verify_conservation",
    "Diagnostic",
    "DslError",
    "SourceSpan",
    "TraceDocument",
    "export_dot",
    "export_trace",
    "load_schedule",
    "parse",
    "parse_trace",
    "serialize",
    "try_parse",
    "COMPILED_AVAILABLE",
    "DEFAULT_BACKEND",
    "__version__",
]
