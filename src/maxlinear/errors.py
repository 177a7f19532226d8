"""Exception hierarchy for the maxlinear package.

Every rejected input maps to exactly one error class; callers can catch
``MaxLinearError`` to handle anything raised by this package.
"""


class MaxLinearError(Exception):
    """Base class for all maxlinear errors."""


# --- model construction -------------------------------------------------

class NegativeEntryError(MaxLinearError):
    """Coefficient matrix contains a negative or non-finite entry."""


class ZeroRowError(MaxLinearError):
    """A row of the coefficient matrix has no strictly positive entry."""


class ZeroColumnError(MaxLinearError):
    """A column of the coefficient matrix has no strictly positive entry."""


class MarginCountMismatchError(MaxLinearError):
    """Number of margin specifications does not match the column count."""


class DimensionMismatchError(MaxLinearError):
    """Operands have incompatible shapes."""


class DensityNormalizationError(MaxLinearError):
    """Tabulated density does not integrate to one within tolerance."""


# --- hitting structure --------------------------------------------------

class InconsistentObservationError(MaxLinearError):
    """Observation lies outside the range of the model (a row of the
    hitting matrix has no one within tolerance)."""


class EmptyScenarioClassError(MaxLinearError):
    """A row class has no column hitting all of its rows; signals a
    numerically degenerate tie or an inconsistent observation."""


# --- conditional law ----------------------------------------------------

class NumericalUnderflowError(MaxLinearError):
    """All weights of a class underflowed to zero even in log space."""


class TooLargeForBruteForceError(MaxLinearError):
    """Instance exceeds the exhaustive-enumeration cap."""


class EmptyScenarioListError(MaxLinearError):
    """No scenarios supplied."""


# --- sampling -----------------------------------------------------------

class ZeroMassBelowBoundError(MaxLinearError):
    """No value could be drawn below a truncation bound: the CDF mass
    below it underflows to zero, or every redraw landed on the bound."""


class AcceptanceTooRareError(MaxLinearError):
    """Rejection sampler exhausted its proposal budget."""

    def __init__(self, message, acceptance_rate=None):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


# --- application models -------------------------------------------------

class NonStationaryError(MaxLinearError):
    """Autoregressive coefficients admit no stationary solution."""


class NotPureMarError(MaxLinearError):
    """Operation is defined for pure max-autoregressive models only."""


class DimensionOverflowError(MaxLinearError):
    """Requested design matrices would be unreasonably large."""


class AssumptionAViolationError(MaxLinearError):
    """Design matrix lost a fully positive row or column after flooring."""
