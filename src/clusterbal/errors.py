"""Semantic exception hierarchy shared across the package."""


class ClusterbalError(Exception):
    """Base class for all package errors."""


class CapExceeded(ClusterbalError):
    """A full 2^m pattern enumeration was requested beyond the configured cap."""

    def __init__(self, m, cap):
        self.m = int(m)
        self.cap = int(cap)
        super().__init__(
            f"cluster size {self.m} exceeds the pattern enumeration cap {self.cap}; "
            "use a sparse-support weight/structure or raise the cap"
        )


class DimensionMismatch(ClusterbalError):
    """Pattern / covariate / index dimensions disagree."""


class DegenerateIntervention(ClusterbalError):
    """A direct-effect base intervention has a zero conditioning denominator."""


class PropensityUnavailable(ClusterbalError):
    """The propensity model is unknown; only propensity-free estimators apply."""


class PositivityViolation(ClusterbalError):
    """A propensity evaluation was non-positive for an observed pattern."""


class InvalidInput(ClusterbalError):
    """Non-finite or otherwise malformed numeric input."""


class InvalidSpec(ClusterbalError):
    """A structure / weight / propensity specification is malformed."""


class InfeasibleFit(ClusterbalError):
    """An operation requires a feasible balancing fit but got an infeasible one."""


class DegenerateContrast(ClusterbalError):
    """Two candidate structures produced identical balancing weights."""


class DegenerateDF(ClusterbalError):
    """No residual degrees of freedom for the noise-scale estimator."""


class CalibrationFailed(ClusterbalError):
    """SNR calibration produced a degenerate variance estimate."""


class ParseError(ClusterbalError):
    """Dataset / spec file violates the documented schema."""

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column!r})" if column is not None else ")")
        super().__init__(f"{message}{loc}")
