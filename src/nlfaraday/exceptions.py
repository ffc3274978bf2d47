"""Exception types raised across the package.

Numerical routines raise specific subclasses so callers can distinguish
"the physics model refused" from "the fit did not converge" without
string-matching messages.
"""


class NlfaradayError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfig(NlfaradayError):
    """A configuration file or parameter set failed validation."""


class DataIntegrityError(NlfaradayError):
    """Bundled atomic-data file is missing, malformed, or fails checksum."""


class IntegrationError(NlfaradayError):
    """Base class for master-equation integration failures."""


class StepFailure(IntegrationError):
    """The ODE solver could not complete a step within tolerances."""


class PositivityViolation(IntegrationError):
    """A density matrix developed negative population beyond tolerance."""


class NonConvergence(NlfaradayError):
    """An iterative extraction, root search or nonlinear fit did not converge."""


class FitError(NlfaradayError):
    """Base class for analysis/fitting failures."""


class DegenerateDesign(FitError):
    """Regression design matrix is rank-deficient (e.g. all x equal)."""


class NegativeVariance(FitError):
    """A variance decomposition produced a negative component."""


class InsufficientPoints(FitError):
    """Not enough data points for the requested fit."""


class NoCrossover(NlfaradayError):
    """The requested regime crossover does not occur in the given range."""

