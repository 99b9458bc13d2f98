"""Exception hierarchy shared across the package.

Input and configuration problems (bad files, bad schemas, bad flag values)
are kept distinct from estimation failures (lack of overlap, degenerate
weights, separation) so that callers, in particular the command line
interface, can map them to different exit codes.
"""


class SurrogateError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SurrogateError):
    """Invalid user-supplied options or parameters."""


class SchemaError(ConfigurationError):
    """A required column is missing or the column mapping is inconsistent."""


class ValidationError(ConfigurationError):
    """Input data violates a sample invariant (non-finite cell, bad treatment value, ...)."""


class PoolingError(ConfigurationError):
    """Experimental and observational samples have incompatible dimensions."""


class UnsupportedConfigurationError(ConfigurationError):
    """The requested computation is not defined for this configuration."""


class FitError(SurrogateError):
    """Base class for nuisance-model fitting failures."""


class DegenerateLabelsError(FitError):
    """Binary response contains a single class; no contrast can be fit."""


class SeparationError(FitError):
    """Perfect separation detected: the unpenalized logistic MLE does not exist."""


class SingularDesignError(FitError):
    """Rank-deficient design, or a penalized system that is still singular."""


class ConvergenceError(FitError):
    """An iterative fit reached its iteration limit before converging."""


class EstimationError(SurrogateError):
    """Base class for estimator failures on otherwise valid inputs."""


class OverlapError(EstimationError):
    """A fitted score reached the boundary where its weights are undefined."""


class DegenerateArmError(EstimationError):
    """One treatment arm has zero total weight."""


class UnstableBootstrapError(EstimationError):
    """Too many bootstrap replicates failed to produce an estimate."""

    def __init__(self, message: str, failures: int = 0, reps: int = 0):
        super().__init__(message)
        self.failures = failures
        self.reps = reps


class CalibrationError(SurrogateError):
    """A calibration target cannot be attained by the generating model."""


class StudyError(SurrogateError):
    """All replications of a Monte Carlo study failed."""


class WorkerError(SurrogateError):
    """A worker process died, or could not send its results back."""
