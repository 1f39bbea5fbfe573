"""The public API: every name ``caosim`` exports, written out, so adding or
removing one is a visible edit here."""

from __future__ import annotations

import inspect

import caosim
from caosim import kernel

PUBLIC = {
    "COMPILED_AVAILABLE",
    "CaoSpec",
    "ConservationReport",
    "CstTrace",
    "DEFAULT_BACKEND",
    "DerivedOperators",
    "Diagnostic",
    "Divergence",
    "DslError",
    "EngineDivergenceError",
    "Entity",
    "Form",
    "InvalidCaoError",
    "Issue",
    "NegativeComponentError",
    "Operator",
    "ParameterSchedule",
    "Role",
    "ScheduleGapError",
    "SourceSpan",
    "Steps",
    "Stretch",
    "TraceDocument",
    "TraceStep",
    "ValidationReport",
    "__version__",
    "build_config_matrix",
    "build_linear_chain",
    "check",
    "check_conservation",
    "conserved_weights",
    "derive",
    "export_dot",
    "export_trace",
    "fixed_point",
    "infer_form",
    "load_schedule",
    "parse",
    "parse_trace",
    "random_cao",
    "random_state",
    "resolve",
    "run",
    "serialize",
    "step",
    "try_parse",
    "validate",
    "with_parameters",
}

# Wrappers of another public call, no longer exported: run(engine="both")
# raising EngineDivergenceError, check_conservation(trace).ok, and a primed
# operational enactor's send((0, 1)).
REMOVED = {
    "compare_engines",
    "EngineComparison",
    "verify_conservation",
    "ConservationError",
    "step_operational",
}


def test_all_is_the_public_api():
    assert len(caosim.__all__) == len(set(caosim.__all__))
    assert set(caosim.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(caosim, name), name


def test_the_removed_wrappers_are_gone():
    for name in REMOVED:
        assert not hasattr(caosim, name), name
        assert not any(hasattr(module, name) for module in (caosim.simulate, caosim.operational)), name


def test_advance_has_no_hold_option():
    assert list(inspect.signature(kernel.advance).parameters) == ["plan", "compiled", "state", "limit", "k"]
