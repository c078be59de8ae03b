"""Exception types shared across the package."""


class AdaptNetError(Exception):
    """Base class for all package-specific errors."""


class ConnectivityError(AdaptNetError):
    """A graph is disconnected where a connected one is required."""


class StructureError(AdaptNetError):
    """A combination matrix violates a structural requirement
    (left-stochasticity, neighborhood sparsity, or primitivity)."""


class StabilityError(AdaptNetError):
    """A matrix fails the stability condition required by a solver."""

    def __init__(self, message, extreme=None):
        super().__init__(message)
        self.extreme = extreme


class NumericalError(AdaptNetError):
    """A linear solve produced an unacceptable residual."""


class ModelError(AdaptNetError):
    """A streaming-data model is malformed (e.g. indefinite covariance)."""


class ObservabilityError(AdaptNetError):
    """The weighted covariance sum is singular: the network cannot
    identify a unique limit point.  ``extreme`` is the least eigenvalue
    of the weighted Hessian sum."""

    def __init__(self, message, extreme=None):
        super().__init__(message)
        self.extreme = extreme


class ContractError(AdaptNetError):
    """Arguments violate an operation's typed precondition."""


class DivergenceError(AdaptNetError):
    """A simulated trajectory blew up (step size too large)."""

    def __init__(self, message, trial=None, iteration=None):
        super().__init__(message)
        self.trial = trial
        self.iteration = iteration


class ConfigError(AdaptNetError):
    """An experiment configuration file is missing or malformed."""
