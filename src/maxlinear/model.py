"""Max-linear model core: X = A (max-times) Z.

The model couples a nonnegative coefficient matrix with one margin per
factor. Both the matrix and the observation vector are validated up
front; downstream modules assume these invariants and never re-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    MarginCountMismatchError,
    NegativeEntryError,
    ZeroColumnError,
    ZeroRowError,
)
from .margins import MarginSpec, margin_from_dict


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MaxLinearModel:
    """Validated max-linear model: n x p coefficient matrix plus p margins.

    Immutable after construction; safe to share across threads.
    """

    A: np.ndarray
    margins: tuple[MarginSpec, ...]

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]


def check_coefficients(M, name: str) -> np.ndarray:
    """Return ``M`` as a 2-d float array after checking that every entry
    is finite and nonnegative.

    Raises
    ------
    DimensionMismatchError
        if ``M`` is not 2-d.
    NegativeEntryError
        if any entry is negative or non-finite.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-d, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NegativeEntryError(f"{name} contains non-finite entries")
    if np.any(M < 0):
        i, j = np.argwhere(M < 0)[0]
        raise NegativeEntryError(f"{name}[{i},{j}] = {M[i, j]} is negative")
    return M


def validate_model(A, margins: Sequence[MarginSpec]) -> MaxLinearModel:
    """Check structural assumptions and return an immutable model.

    Raises
    ------
    DimensionMismatchError
        if ``A`` is not 2-d or has no rows or no columns.
    NegativeEntryError
        if any entry is negative or non-finite.
    ZeroRowError, ZeroColumnError
        if a row or column of ``A`` has no strictly positive entry.
    MarginCountMismatchError
        if ``margins`` does not have one entry per column.
    """
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
    margins = tuple(margins)
    if len(margins) != A.shape[1]:
        raise MarginCountMismatchError(
            f"expected {A.shape[1]} margins, got {len(margins)}"
        )
    return MaxLinearModel(A=_readonly(A), margins=margins)


def validate_observations(x, n: int | None = None) -> np.ndarray:
    """Validate an observation vector: finite, strictly positive reals."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError(f"x must be 1-d, got shape {x.shape}")
    if n is not None and x.size != n:
        raise DimensionMismatchError(f"expected {n} observations, got {x.size}")
    # min > 0 rejects NaN and nonpositive values, max < inf rejects +inf
    if x.size and not (x.min() > 0.0 and x.max() < np.inf):
        raise ValueError("observations must be finite and strictly positive")
    x.setflags(write=False)
    return x


def max_linear_apply(A, z) -> np.ndarray:
    """Row-wise max-times product: result_i = max_j A[i,j] * z[j]."""
    A = np.asarray(A, dtype=float)
    z = np.asarray(z, dtype=float)
    if A.ndim != 2 or z.ndim != 1 or A.shape[1] != z.size:
        raise DimensionMismatchError(
            f"incompatible shapes A{A.shape} and z{z.shape}"
        )
    return (A * z).max(axis=1)


def live_entries(A, upper, floor) -> np.ndarray:
    """Boolean mask of the entries a_ij with a_ij * upper_j > floor_i.

    ``upper`` bounds the factors (``inf`` for an unbounded one) and
    ``floor`` the rows of A (max-times) Z, as in
    :func:`max_linear_apply_batch`. An entry outside the mask has a
    product of at most floor_i in every sample, so it cannot decide its
    row. With floor >= 0, zero entries are never live.
    """
    A = np.asarray(A, dtype=float)
    with np.errstate(invalid="ignore"):  # 0 * inf is nan, and nan > floor is False
        return A * np.asarray(upper, dtype=float) > np.asarray(floor, dtype=float)[:, None]


def max_linear_apply_batch(A, Z, upper=None, floor=None) -> np.ndarray:
    """Apply ``A`` to each row of the sample matrix ``Z`` (num x p).

    Returns a (num x n) matrix. Iterates over the rows of ``A`` so the
    temporaries stay at num x p.

    Callers that know bounds pass both ``upper``, with Z[:, j] <= upper[j]
    for every sample (``inf`` where unbounded), and ``floor``, with every
    result row i at least floor[i]. Then only the entries in
    :func:`live_entries` are multiplied, and row i is the larger of
    floor[i] and their maximum. Products are monotone in IEEE arithmetic,
    so every skipped product is at most floor[i] and the result is
    exactly the full map's.
    """
    A = np.asarray(A, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if A.ndim != 2 or Z.ndim != 2 or A.shape[1] != Z.shape[1]:
        raise DimensionMismatchError(
            f"incompatible shapes A{A.shape} and Z{Z.shape}"
        )
    out = np.empty((Z.shape[0], A.shape[0]))
    if upper is None and floor is None:
        for i in range(A.shape[0]):
            np.max(Z * A[i], axis=1, out=out[:, i])
        return out
    if upper is None or floor is None:
        raise ValueError("upper and floor must be given together")
    upper = np.asarray(upper, dtype=float)
    floor = np.asarray(floor, dtype=float)
    if upper.shape != (A.shape[1],) or floor.shape != (A.shape[0],):
        raise DimensionMismatchError(
            f"bounds upper{upper.shape} and floor{floor.shape} do not fit A{A.shape}"
        )
    live = live_entries(A, upper, floor)
    # gathering rows of Z.T makes each maximum run over contiguous samples
    Zt = Z.T
    for i in range(A.shape[0]):
        cols = np.flatnonzero(live[i])
        if cols.size:
            terms = Zt[cols]
            terms *= A[i, cols][:, None]
            np.max(terms, axis=0, out=out[:, i])
            np.maximum(out[:, i], floor[i], out=out[:, i])
        else:
            out[:, i] = floor[i]
    return out


# --- model file format ---------------------------------------------------

def model_to_dict(model: MaxLinearModel) -> dict:
    return {
        "A": model.A.tolist(),
        "margins": [m.to_dict() for m in model.margins],
    }


def model_from_dict(doc: dict) -> MaxLinearModel:
    margins = [margin_from_dict(m) for m in doc["margins"]]
    return validate_model(np.array(doc["A"], dtype=float), margins)


def save_model(model: MaxLinearModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)))


def load_model(path) -> MaxLinearModel:
    return model_from_dict(json.loads(Path(path).read_text()))
