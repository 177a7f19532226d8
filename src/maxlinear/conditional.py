"""Conditional law of the factors given the observations.

Two representations are provided:

* the factorized per-class mixture (``ConditionalLaw``), which scales to
  thousands of factors and is what the sampler consumes;
* the brute-force scenario mixture (``ScenarioLaw``), built by exhaustive
  minimum-cover enumeration. It is exponential in general and exists as
  an independent oracle for the factorized path on small instances.

All weight arithmetic is done in log space: products of p CDF values
underflow long before p reaches realistic sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import (
    EmptyScenarioListError,
    NumericalUnderflowError,
    TooLargeForBruteForceError,
)
from .hitting import DEFAULT_REL_TOL, HittingStructure, hitting_structure
from .margins import MarginSpec, _columnwise
from .model import MaxLinearModel

BRUTE_FORCE_COLUMN_CAP = 20


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


def _normalize(log_w: np.ndarray, what: str) -> np.ndarray:
    total = logsumexp(log_w)
    if not np.isfinite(total):
        raise NumericalUnderflowError(f"all weights of {what} vanish in log space")
    return np.exp(log_w - total)


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


# --- brute-force oracle ---------------------------------------------------

def enumerate_relevant_scenarios(
    H, max_columns: int = BRUTE_FORCE_COLUMN_CAP
) -> list[tuple[int, ...]]:
    """All minimum-cardinality column subsets covering every row of H.

    Exhaustive search in increasing cardinality order; exponential in p,
    capped at ``max_columns`` columns because this exists only as an
    oracle for the factorized decomposition.
    """
    H = np.asarray(H, dtype=bool)
    n, p = H.shape
    if p > max_columns:
        raise TooLargeForBruteForceError(
            f"p = {p} exceeds brute-force cap {max_columns}"
        )
    col_masks = []
    for j in range(p):
        m = 0
        for i in np.flatnonzero(H[:, j]):
            m |= 1 << int(i)
        col_masks.append(m)
    full = (1 << n) - 1
    for r in range(1, p + 1):
        found = [
            combo
            for combo in itertools.combinations(range(p), r)
            if _covers(combo, col_masks, full)
        ]
        if found:
            return found
    raise ValueError("H has an uncoverable row")


def _covers(combo, col_masks, full) -> bool:
    m = 0
    for j in combo:
        m |= col_masks[j]
        if m == full:
            return True
    return False


@dataclass(frozen=True)
class ScenarioLaw:
    """Oracle mixture over relevant hitting scenarios.

    scenarios[k] is a tuple of column indices forced to their upper
    bounds; probabilities[k] is its mixture weight.
    """

    scenarios: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray
    z_hat: np.ndarray
    margins: tuple[MarginSpec, ...]


def scenario_log_weights(
    scenarios: Sequence[Sequence[int]],
    margins: Sequence[MarginSpec],
    z_hat,
) -> np.ndarray:
    """Unnormalized log w_J for each scenario J:

    log w_J = sum_{j in J} [log zhat_j + log f_j(zhat_j) - log F_j(zhat_j)]
              + sum_j log F_j(zhat_j).
    """
    z_hat = np.asarray(z_hat, dtype=float)
    log_pdf = _columnwise(margins, "log_pdf", z_hat)
    log_cdf = _columnwise(margins, "log_cdf", z_hat)
    base = log_cdf.sum()
    log_z = np.log(z_hat)
    per_col = log_z + log_pdf - log_cdf
    return np.array([base + per_col[list(J)].sum() for J in scenarios])


def scenario_probabilities(
    scenarios: Sequence[Sequence[int]],
    margins: Sequence[MarginSpec],
    z_hat,
) -> ScenarioLaw:
    """Normalize scenario weights into the oracle mixture law."""
    scenarios = [tuple(int(j) for j in J) for J in scenarios]
    if not scenarios:
        raise EmptyScenarioListError("no scenarios supplied")
    sizes = {len(J) for J in scenarios}
    if len(sizes) != 1:
        raise ValueError(f"scenarios must share one cardinality, got sizes {sizes}")
    z_hat = np.asarray(z_hat, dtype=float)
    probs = _normalize(scenario_log_weights(scenarios, margins, z_hat), "scenario list")
    return ScenarioLaw(
        scenarios=tuple(scenarios),
        probabilities=probs,
        z_hat=z_hat,
        margins=tuple(margins),
    )
