"""Conditional law of the factors given the observations.

The law is a per-class mixture (``ConditionalLaw``): each class puts one
of its candidate columns at its upper bound, with the class weights
computed here. It scales to thousands of factors and is what the sampler
consumes. The brute-force scenario mixture that checks it on small
instances lives in :mod:`maxlinear.oracles`.

The weights are computed in log space from one margin term per
candidate column, log zhat_j + log(f_j / F_j)(zhat_j): at extreme
scales f_j and F_j underflow while their ratio, and so the weights,
stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistentObservationError, _at_column
from .hitting import DEFAULT_REL_TOL, HittingStructure, hitting_structure
from .margins import MarginSpec, _columnwise, margin_groups
from .model import MaxLinearModel


def _joined(sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays ``sets`` end to end, and where each one starts."""
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    starts = np.zeros(len(sets), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    return np.concatenate(sets), starts


def _log_candidate_terms(structure: HittingStructure, groups) -> tuple[np.ndarray, np.ndarray]:
    """log zhat_j + log(f_j / F_j)(zhat_j) for the candidate columns of
    every class, joined end to end in the order of ``structure.J``, and
    where each class starts; ``groups = (kinds, label)`` of the margins."""
    cols, starts = _joined(structure.J)
    kinds, label = groups
    z_hat = structure.z_hat[cols]
    terms = _columnwise((kinds, label[cols]), "log_reversed_hazard", z_hat)
    return np.log(z_hat) + terms, starts


def class_weights(structure: HittingStructure, groups) -> list[np.ndarray]:
    """Normalized mixture weights for each class (sum to one per class),
    for the margins grouped as ``groups = margin_groups(margins)``.

    Candidate j of class s has weight proportional to
        zhat_j f_j(zhat_j) * prod over k in J_bar[s], k != j, of F_k(zhat_k),
    and the product over all of J_bar[s] is common to the class, so
    w_j is proportional to zhat_j f_j(zhat_j) / F_j(zhat_j). Every class
    is normalized at once, by segment reductions in log space.

    Raises
    ------
    InconsistentObservationError
        if a column has no mass below its bound zhat (zhat at or below
        its margin's ``lower_end``), so that the common product is 0, or
        if no candidate of a class has positive density at its bound:
        the observation then has zero density under the model.
    """
    kinds, label = groups
    # from the support, not from log F = -inf, which a positive F can underflow to
    lower = np.array([m.lower_end for m in kinds])[label]
    empty = np.flatnonzero(structure.z_hat <= lower)
    if empty.size:
        raise _at_column(
            InconsistentObservationError,
            "observation is inconsistent with the margins: column {column} "
            f"has no mass below its bound zhat = {structure.z_hat[empty[0]]}",
            empty[0],
        )
    log_w, starts = _log_candidate_terms(structure, groups)
    top = np.maximum.reduceat(log_w, starts)
    # the Frechet term is finite at every positive finite zhat, so only a
    # margin with zero density at zhat (or a log-CDF that underflows) gets here
    vanished = np.flatnonzero(~np.isfinite(top))
    if vanished.size:
        raise InconsistentObservationError(
            f"observation is inconsistent with the margins: every candidate "
            f"of class {vanished[0]} has zero density at its bound zhat"
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
    groups: tuple  # margin_groups(margins), grouped once for the weights and the draw
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
    groups = margin_groups(model.margins)
    weights = class_weights(structure, groups)
    return ConditionalLaw(
        structure=structure, margins=model.margins, groups=groups, weights=tuple(weights)
    )
