"""The names ``hybridproj`` exports and its member interface; growing either
is a visible edit."""

import dataclasses
import inspect
import types

import hybridproj

PUBLIC_NAMES = {
    # geometry
    "Ball", "BaseSet", "Box", "CustomSet", "Halfspace", "InfeasibleSetError",
    "NestedSet", "ProjectionFailure", "as_vector", "contains",
    "halfspace_from_iterate", "project_nested",
    # operators
    "Bifunction", "CustomBifunction", "FamilyReport", "InvalidModelError",
    "IsmOperator", "ProblemFamily", "PseudoContraction", "ResolventFailure",
    "ScalarMonotoneBifunction", "ZeroBifunction", "affine_operator",
    "apply_power", "identity_map", "resolvent", "resolvent_scalar",
    "verify_family", "zero_operator",
    # problems
    "IntervalSolution", "PointSolution", "Section4Spec", "build_section4",
    "default_schedule", "preset", "section4_bifunction", "section4_map",
    # solver
    "IterationRecord", "ParamSchedule", "Report", "ResidualBelow",
    "SolverConfig", "SolverState", "ToleranceToReference", "iterate", "solve",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(hybridproj).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_member_interface_is_pinned():
    # A knob that comes back (a resolvent tolerance, a membership oracle) is
    # then a visible edit, as a new export is.
    signature = lambda f: list(inspect.signature(f).parameters)  # noqa: E731
    assert signature(hybridproj.Bifunction.resolve) == ["self", "r", "w", "base"]
    assert signature(hybridproj.resolvent) == ["f", "A", "r", "x", "base"]
    assert [f.name for f in dataclasses.fields(hybridproj.CustomSet)] == [
        "projection", "dimension"]
