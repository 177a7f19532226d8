"""Max-linear model core: X = A (max-times) Z.

The model couples a nonnegative coefficient matrix with one margin per
factor. ``validate_model`` checks the matrix and keeps a read-only copy;
``hitting_structure`` runs the same checks of the matrix within its one
blocked pass, so a request builds its model without either. The
observation vector is validated where it is used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DensityNormalizationError,
    DimensionMismatchError,
    MarginCountMismatchError,
    NegativeEntryError,
    ZeroColumnError,
    ZeroRowError,
    _converted,
    _from_json,
    _json_field,
    _to_json,
)
from .margins import MarginSpec, _readonly, margin_from_dict, margin_groups


# entries of a sample matrix handled at a time by a blocked loop (256 KiB)
BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class MaxLinearModel:
    """Max-linear model: n x p coefficient matrix plus p margins.

    The constructor checks nothing and keeps ``A`` as given.
    :func:`validate_model` checks ``A`` and the margins and builds the
    model on a read-only copy of ``A``, so that model is immutable
    and safe to share across threads. ``run_prediction`` builds its model
    unchecked from the caller's array (or its conditioned columns), and
    :func:`~maxlinear.hitting.hitting_structure` checks that ``A`` as
    ``validate_model`` does, in its one pass; the caller must not change
    the array while the request runs.
    """

    A: np.ndarray
    margins: tuple[MarginSpec, ...]

    _json_tag = {}  # a model file holds the fields alone

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]


def _block_width(rows: int) -> int:
    """Columns of a ``rows``-row matrix that fit in one block of
    BLOCK_ELEMENTS entries (at least one)."""
    return max(1, BLOCK_ELEMENTS // max(rows, 1))


def _matrix(M, name: str) -> np.ndarray:
    """``M`` as a 2-d float array: a ValueError naming it if it is not an
    array of numbers, a DimensionMismatchError if it is not 2-d."""
    M = _converted(name, np.asarray, M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-d, got shape {M.shape}")
    return M


def check_coefficients(M, name: str) -> np.ndarray:
    """Return ``M`` as a 2-d float array after checking that every entry
    is finite and nonnegative.

    Raises
    ------
    ValueError
        if ``M`` is not an array of numbers; the message names it.
    DimensionMismatchError
        if ``M`` is not 2-d.
    NegativeEntryError
        if any entry is negative or non-finite; the message names the
        offending columns.
    """
    M = _matrix(M, name)
    # min >= 0 rejects NaN and negative values, max < inf rejects +inf
    if M.size and not (M.min() >= 0.0 and M.max() < np.inf):
        bad = np.flatnonzero(~((M >= 0.0) & (M < np.inf)).all(axis=0))
        raise NegativeEntryError(
            f"{name} has negative or non-finite entries in columns {bad.tolist()}"
        )
    return M


def _check_model_matrix(A) -> np.ndarray:
    """``A`` as a 2-d float array after checking it as the coefficients of
    a model; the errors are those of :func:`validate_model`, in its order."""
    A = check_coefficients(A, "A")
    if A.size == 0:
        raise DimensionMismatchError(f"A has no rows or no columns: shape {A.shape}")
    pos = A > 0
    bad_rows = np.flatnonzero(~pos.any(axis=1))
    if bad_rows.size:
        raise ZeroRowError(f"rows with no positive entry: {bad_rows.tolist()}")
    bad_cols = np.flatnonzero(~pos.any(axis=0))
    if bad_cols.size:
        raise ZeroColumnError(f"columns with no positive entry: {bad_cols.tolist()}")
    return A


def _margins_for(margins, p: int) -> tuple[MarginSpec, ...]:
    """``margins`` as a tuple, checked to hold one margin per column of A."""
    margins = tuple(margins)
    if len(margins) != p:
        raise MarginCountMismatchError(f"expected {p} margins, got {len(margins)}")
    return margins


def validate_model(A, margins: Sequence[MarginSpec]) -> MaxLinearModel:
    """Check structural assumptions and return an immutable model that
    owns a read-only copy of ``A``.

    Raises
    ------
    ValueError
        if ``A`` is not an array of numbers.
    DimensionMismatchError
        if ``A`` is not 2-d or has no rows or no columns.
    NegativeEntryError
        if any entry is negative or non-finite.
    ZeroRowError, ZeroColumnError
        if a row or column of ``A`` has no strictly positive entry.
    MarginCountMismatchError
        if ``margins`` does not have one entry per column.
    TypeError
        if a margin is not a :class:`MarginSpec`; the message names its type.
    """
    A = _check_model_matrix(A)
    margins = _margins_for(margins, A.shape[1])
    margin_groups(margins)  # a margin that is not a MarginSpec is a TypeError
    return MaxLinearModel(A=_readonly(A), margins=margins)


def validate_observations(x, n: int) -> np.ndarray:
    """Validate an observation vector: finite, strictly positive reals.

    Returns a read-only copy; the caller's array stays writeable."""
    x = np.array(x, dtype=float, order="C", ndmin=1)
    if x.ndim != 1:
        raise DimensionMismatchError(f"x must be 1-d, got shape {x.shape}")
    if x.size != n:
        raise DimensionMismatchError(f"expected {n} observations, got {x.size}")
    # min > 0 rejects NaN and nonpositive values, max < inf rejects +inf
    if x.size and not (x.min() > 0.0 and x.max() < np.inf):
        raise ValueError("observations must be finite and strictly positive")
    x.setflags(write=False)
    return x


def live_entries(A, upper, floor) -> np.ndarray:
    """Boolean mask of the entries a_ij with a_ij * upper_j > floor_i.

    ``upper`` bounds the factors (``inf`` for an unbounded one) and
    ``floor`` the rows of A (max-times) Z, as in
    :func:`max_linear_apply_batch`. An entry outside the mask has a
    product of at most floor_i in every sample, so it cannot decide its
    row. With floor >= 0, zero entries are never live.
    """
    A = np.asarray(A, dtype=float)
    # 0 * inf is nan, and nan > floor is False; an overflowing product is
    # inf, which is live
    with np.errstate(invalid="ignore", over="ignore"):
        return A * np.asarray(upper, dtype=float) > np.asarray(floor, dtype=float)[:, None]


def max_linear_apply_batch(A, Z, upper, floor) -> np.ndarray:
    """Apply ``A`` to each row of the sample matrix ``Z`` (num x p):
    result[k, i] = max_j A[i, j] * Z[k, j], a (num x n) matrix. The result
    is column-major (``result.T`` is C-contiguous): each row of ``A`` is
    accumulated in one contiguous row of an (n x num) buffer, whose
    transpose is returned.

    ``upper`` bounds the factors, Z[:, j] <= upper[j] for every sample
    (``inf`` where unbounded), and ``floor`` the result, every row i at
    least floor[i]. Only the entries in :func:`live_entries` are
    multiplied, and row i is the larger of floor[i] and their maximum.
    Products are monotone in IEEE arithmetic, so every skipped product is
    at most floor[i] and the result is exactly the full map's. With
    ``upper = inf`` and ``floor = 0`` every positive entry is live, which
    gives the full map of a nonnegative ``Z``.
    """
    A = np.asarray(A, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if A.ndim != 2 or Z.ndim != 2 or A.shape[1] != Z.shape[1]:
        raise DimensionMismatchError(
            f"incompatible shapes A{A.shape} and Z{Z.shape}"
        )
    upper = np.asarray(upper, dtype=float)
    floor = np.asarray(floor, dtype=float)
    if upper.shape != (A.shape[1],) or floor.shape != (A.shape[0],):
        raise DimensionMismatchError(
            f"bounds upper{upper.shape} and floor{floor.shape} do not fit A{A.shape}"
        )
    live = live_entries(A, upper, floor)
    # gathering rows of Z.T makes each maximum run over contiguous samples;
    # for the column-major Z of the sampler each gathered row is contiguous
    # too. A row's live columns pass through one buffer a block at a time,
    # so no temporary's size depends on how many entries are live.
    Zt = Z.T
    block = _block_width(Z.shape[0])
    buf = np.empty((block, Z.shape[0]))
    out = np.empty((A.shape[0], Z.shape[0]))
    out[:] = floor[:, None]
    with np.errstate(over="ignore"):  # a product past float64 is an inf result
        for i in range(A.shape[0]):
            cols = np.flatnonzero(live[i])
            for start in range(0, cols.size, block):
                part = cols[start : start + block]
                terms = np.take(Zt, part, axis=0, out=buf[: part.size], mode="clip")
                terms *= A[i, part][:, None]
                np.maximum(out[i], terms.max(axis=0), out=out[i])
    return out.T


# --- model file format ---------------------------------------------------

def save_model(model: MaxLinearModel, path) -> None:
    Path(path).write_text(json.dumps(model, default=_to_json))


def load_model(path) -> MaxLinearModel:
    doc = json.loads(Path(path).read_text())
    margins = _converted("margins", list, _json_field(doc, "margins", "a model"))
    for index, entry in enumerate(margins):
        try:
            margins[index] = margin_from_dict(entry)
        except (ValueError, DensityNormalizationError) as exc:
            raise type(exc)(f"margin {index}: {exc}") from None
    return _from_json(validate_model, {**doc, "margins": margins}, "a model")
