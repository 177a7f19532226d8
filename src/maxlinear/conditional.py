"""Conditional law of the factors given the observations.

The law is a per-class mixture (``ConditionalLaw``): each class puts one
of its candidate columns at its upper bound, with the class weights
computed here. It scales to thousands of factors and is what the sampler
consumes. The brute-force scenario mixture that checks it on small
instances lives in :mod:`maxlinear.oracles`.

All weight arithmetic is done in log space: products of p CDF values
underflow long before p reaches realistic sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalUnderflowError
from .hitting import DEFAULT_REL_TOL, HittingStructure, hitting_structure
from .margins import MarginSpec, _columnwise
from .model import MaxLinearModel


def _joined(sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays ``sets`` end to end, and where each one starts."""
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    starts = np.zeros(len(sets), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    return np.concatenate(sets), starts


def _joined_log_weights(
    structure: HittingStructure, margins: Sequence[MarginSpec]
) -> tuple[np.ndarray, np.ndarray]:
    """The log weights of :func:`class_log_weights`, joined end to end in
    the order of ``structure.J``, and where each class starts."""
    z_hat = structure.z_hat
    log_pdf = _columnwise(margins, "log_pdf", z_hat)
    log_cdf = _columnwise(margins, "log_cdf", z_hat)
    cols, starts = _joined(structure.J)
    bar, bar_starts = _joined(structure.J_bar)
    cdf_sum = np.repeat(
        np.add.reduceat(log_cdf[bar], bar_starts), np.diff(starts, append=cols.size)
    )
    with np.errstate(divide="ignore"):
        log_z = np.log(z_hat[cols])
    return log_z + log_pdf[cols] + cdf_sum - log_cdf[cols], starts


def class_log_weights(
    structure: HittingStructure, margins: Sequence[MarginSpec]
) -> list[np.ndarray]:
    """Unnormalized log weights per class.

    For j in J[s]:
        log w_j = log zhat_j + log f_j(zhat_j)
                  + sum over k in J_bar[s], k != j, of log F_k(zhat_k).
    """
    log_w, starts = _joined_log_weights(structure, margins)
    return np.split(log_w, starts[1:])


def class_weights(
    structure: HittingStructure, margins: Sequence[MarginSpec]
) -> list[np.ndarray]:
    """Normalized mixture weights for each class (sum to one per class).

    Every class is normalized at once, by segment reductions over the
    joined log weights.
    """
    log_w, starts = _joined_log_weights(structure, margins)
    top = np.maximum.reduceat(log_w, starts)
    vanished = np.flatnonzero(~np.isfinite(top))
    if vanished.size:
        raise NumericalUnderflowError(
            f"all weights of class {vanished[0]} vanish in log space"
        )
    sizes = np.diff(starts, append=log_w.size)
    w = np.exp(log_w - np.repeat(top, sizes))
    w /= np.repeat(np.add.reduceat(w, starts), sizes)
    return np.split(w, starts[1:])


@dataclass(frozen=True)
class ConditionalLaw:
    """Sampleable representation of the conditional law of Z given X = x."""

    structure: HittingStructure
    margins: tuple[MarginSpec, ...]
    weights: tuple[np.ndarray, ...]

    @property
    def z_hat(self) -> np.ndarray:
        return self.structure.z_hat

    @property
    def rank(self) -> int:
        return self.structure.rank


def conditional_law(
    model: MaxLinearModel, x, rel_tol: float = DEFAULT_REL_TOL
) -> ConditionalLaw:
    """Build the factorized conditional law for observed X = x."""
    structure = hitting_structure(model, x, rel_tol)
    weights = class_weights(structure, model.margins)
    return ConditionalLaw(
        structure=structure, margins=model.margins, weights=tuple(weights)
    )
