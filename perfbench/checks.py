"""Output checks run on every request, outside the timed region.

The max-times products are recomputed here with the benchmark's own
loop rather than the library's, so a change to the library's
prediction map cannot also change what it is checked against.
"""

from __future__ import annotations

import math

import numpy as np


def max_times(M: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """(num, rows) matrix of max_j M[k, j] * Z[:, j]."""
    out = np.empty((Z.shape[0], M.shape[0]))
    for k in range(M.shape[0]):
        out[:, k] = (Z * M[k]).max(axis=1)
    return out


def _type1_quantile(sorted_values: np.ndarray, level: float) -> np.ndarray:
    num = sorted_values.shape[0]
    return sorted_values[min(max(math.ceil(level * num) - 1, 0), num - 1)]


def check_request(design, x, rel_tol, Z, Y, summary) -> str | None:
    """Return why the request's output is wrong, or None if it is right.

    * every draw reproduces ``x``: |A (max-times) z - x| <= rel_tol * x;
    * ``Y`` is finite and positive and equals B (max-times) Z exactly;
    * rows of ``B`` at the observation sites equal A (max-times) Z
      exactly, hence reproduce ``x`` within ``rel_tol``;
    * the summary's medians and 0.95 quantiles are the type-1 order
      statistics of ``Y``.
    """
    Z = np.asarray(Z)
    Y = np.asarray(Y)
    num = Z.shape[0]
    if Z.shape != (num, design.A.shape[1]) or Y.shape != (num, design.B.shape[0]):
        return f"shapes Z{Z.shape} Y{Y.shape} do not match the design"
    X = max_times(design.A, Z)
    if not np.all(np.abs(X - x) <= rel_tol * x):
        worst = int(np.argmax(np.max(np.abs(X - x) / x, axis=1)))
        return f"draw {worst} does not reproduce x within rel_tol"
    if not (np.all(np.isfinite(Y)) and np.all(Y > 0)):
        return "Y is non-finite or non-positive"
    if not np.array_equal(Y, max_times(design.B, Z)):
        return "Y differs from B (max-times) Z"
    if design.site_rows is not None and not np.array_equal(Y[:, design.site_rows], X):
        return "prediction rows at the observation sites do not reproduce x"
    srt = np.sort(Y, axis=0)
    if not (
        np.array_equal(summary.medians, _type1_quantile(srt, 0.5))
        and np.array_equal(summary.quantiles[0.95], _type1_quantile(srt, 0.95))
    ):
        return "summary disagrees with the order statistics of Y"
    return None
