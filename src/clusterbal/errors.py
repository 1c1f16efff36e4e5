"""Semantic exception hierarchy shared across the package."""


class ClusterbalError(Exception):
    """Base class for all package errors."""


# largest cluster size (and k-NN k) whose 2^m treatment patterns are enumerated;
# defined beside the error whose message names it, and re-exported by `core`
PATTERN_CAP = 20


class CapExceeded(ClusterbalError):
    """A full 2^m pattern enumeration was requested beyond PATTERN_CAP.

    `what` names the quantity over the cap: a cluster size or a k-NN k.
    """

    def __init__(self, m, what):
        self.m = int(m)
        super().__init__(
            f"{what} {self.m} exceeds the pattern enumeration cap {PATTERN_CAP}; "
            "use a sparse-support weight/structure"
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
