"""Exception hierarchy for the maxlinear package.

Every rejected input maps to exactly one error class; callers can catch
``MaxLinearError`` to handle anything raised by this package.
"""

import contextlib
import functools
import inspect
import numbers

import numpy as np

# the most entries a design builder (MARMA or Smith) or a prediction
# request's sample matrix Z or prediction Y allocates
MAX_DESIGN_ENTRIES = 200_000_000


class MaxLinearError(Exception):
    """Base class for all maxlinear errors."""


def _at_column(cls, template: str, column: int) -> MaxLinearError:
    """A ``cls`` error about one column, with the message ``template``
    naming ``column`` in its ``{column}`` field; the error keeps both, so
    that :func:`_columns_of` can name that column in a larger matrix."""
    exc = cls(template.format(column=column))
    exc.template, exc.column = template, int(column)
    return exc


@contextlib.contextmanager
def _columns_of(cols):
    """Run a block on the columns ``cols`` of a matrix: an error of
    :func:`_at_column` about column j there names column ``cols[j]``."""
    try:
        yield
    except MaxLinearError as exc:
        if hasattr(exc, "template"):
            exc.column = int(cols[exc.column])
            exc.args = (exc.template.format(column=exc.column),)
        raise


def _json_field(doc, key: str, what: str):
    """``doc[key]`` of the JSON ``doc`` read from a file, or a ValueError
    naming ``key`` if ``doc`` is not an object with that key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{what} must be a JSON object with a {key!r} key")
    return doc[key]


def _from_json(cls, doc, what: str):
    """``cls(**doc)`` for the JSON ``doc`` of a file, so that ``cls`` declares
    each key's name, default and type; a ValueError naming ``what`` if ``doc``
    is not an object, has a key ``cls`` does not take or lacks one it needs."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    known = _parameters(cls)
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; it takes {list(known)}")
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _to_json(obj):
    """The ``default=`` hook of ``json.dumps`` for every file and report the
    package writes, the mirror of :func:`_from_json`: an array as a list, a
    NumPy scalar as a number, and an object whose class declares
    ``_json_tag`` (a model, a spec or a margin) as that tag followed by each
    parameter of its class, read back as an attribute. Any other type is a
    TypeError."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    tag = getattr(type(obj), "_json_tag", None)
    if tag is None:
        raise TypeError(f"not JSON serializable: {type(obj)!r}")
    return {**tag, **{name: getattr(obj, name) for name in _parameters(type(obj))}}


@functools.cache
def _parameters(cls) -> tuple[str, ...]:
    # one signature per class, not one per margin of a model file
    return tuple(inspect.signature(cls).parameters)


def _converted(name: str, convert, value, **kwargs):
    """``convert(value, **kwargs)``, or a ValueError naming ``name``."""
    try:
        return convert(value, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid {name!r}: {exc}") from None


def _real(value) -> bool:
    """Whether ``value`` is a real number: a bool or a string is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(name: str, value, low: int) -> int:
    """``value`` as an int >= ``low``: an int, a NumPy integer or an integral
    float (25.0 is 25). A bool, a string, None, 2.5, inf, nan or a value below
    ``low`` is a ValueError naming ``name``. An int skips ``float()``, which
    would overflow on a very large one."""
    integral = _real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())
    if not integral or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _finite(value) -> float:
    """``float(value)``, or a ValueError if it is NaN or infinite."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _convert_fields(obj, **converters) -> None:
    """Convert the named fields of the frozen dataclass ``obj`` in place."""
    for name, convert in converters.items():
        object.__setattr__(obj, name, _converted(name, convert, getattr(obj, name)))


# --- model construction -------------------------------------------------

class NegativeEntryError(MaxLinearError):
    """Coefficient matrix contains a negative or non-finite entry."""


class ZeroRowError(MaxLinearError):
    """A row of the coefficient matrix has no strictly positive entry."""


class ZeroColumnError(MaxLinearError):
    """A column of the coefficient matrix has no strictly positive entry."""


class DimensionMismatchError(MaxLinearError):
    """Operands have incompatible shapes."""


class MarginCountMismatchError(DimensionMismatchError):
    """Number of margin specifications does not match the column count."""


class DensityNormalizationError(MaxLinearError):
    """Tabulated density does not integrate to one within tolerance."""


# --- hitting structure --------------------------------------------------

class InconsistentObservationError(MaxLinearError):
    """Observation lies outside the range of the model: a row of the
    hitting matrix has no one within tolerance, or every candidate of a
    class has zero density at its bound under the margins."""


class NumericalOverflowError(MaxLinearError):
    """An upper bound zhat_j = min_i x_i / a_ij is beyond the float64
    range, or underflows it (a row with no hit has an x_i / a_ij below the
    smallest normal float64, too few digits to reproduce x_i), so the
    observation cannot be conditioned on in floating point; or a
    prediction B (max-times) Z, or the sum of the MARMA coefficients psi,
    is beyond the range."""


class EmptyScenarioClassError(MaxLinearError):
    """A row class has no column hitting all of its rows; signals a
    numerically degenerate tie or an inconsistent observation."""


# --- conditional law ----------------------------------------------------

class TooLargeForBruteForceError(MaxLinearError):
    """Instance exceeds the exhaustive-enumeration cap."""


class EmptyScenarioListError(MaxLinearError):
    """No scenarios supplied."""


# --- sampling -----------------------------------------------------------

class ZeroMassBelowBoundError(MaxLinearError):
    """No value could be drawn below a truncation bound: the CDF mass
    below it underflows to zero, or a quantile returned NaN."""


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
    """Requested design or sample matrices would hold more than
    MAX_DESIGN_ENTRIES entries."""


def _check_design_size(rows: int, cols: int, what: str = "design") -> None:
    """A DimensionOverflowError naming ``what`` if a rows x cols matrix
    would hold more than MAX_DESIGN_ENTRIES entries."""
    if rows * cols > MAX_DESIGN_ENTRIES:
        raise DimensionOverflowError(
            f"{what} would hold {rows * cols} entries, more than {MAX_DESIGN_ENTRIES}"
        )


class AssumptionAViolationError(MaxLinearError):
    """Design matrix lost a fully positive row or column after flooring."""
