"""Exception hierarchy for the mpfc package."""

from __future__ import annotations

__all__ = [
    "MpfcError",
    "ConfigurationError",
    "SolverFailureError",
    "BlowUpError",
    "ProjectionError",
    "ProjectionSingularError",
    "ScenarioError",
    "SnapshotFormatError",
    "InputError",
]


class MpfcError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MpfcError):
    """Invalid run configuration (bad parameters, unknown keys)."""


class SolverFailureError(MpfcError):
    """A linear solve did not meet its residual contract."""


class BlowUpError(MpfcError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, message: str, step_index: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time


class ProjectionError(MpfcError):
    """Constraint projection failed (bad bracket or state too far off manifold)."""

    def __init__(self, message: str, step_index: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time


class ProjectionSingularError(ProjectionError):
    """Radial projection undefined: zero vector encountered."""


class ScenarioError(MpfcError):
    """Initial-data geometry does not fit the grid or interfaces overlap."""


class SnapshotFormatError(MpfcError):
    """Snapshot file is corrupt, truncated, or has the wrong version/shape."""


class InputError(MpfcError):
    """Diagnostic or analysis routine received unusable input."""
