"""Upper bounds, hitting matrix and the row-class decomposition.

Given observed values x, each factor j is bounded above by
zhat_j = min over rows i with A[i,j] > 0 of x_i / A[i,j]. The hitting
matrix marks the (i, j) pairs where that bound reproduces x_i exactly
(within relative tolerance). Rows connected through shared hitting
columns form equivalence classes; the classes make the conditional law
factorize, which is what keeps sampling linear in n and p instead of
exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyScenarioClassError,
    InconsistentObservationError,
    NumericalOverflowError,
    _real,
)
from .model import MaxLinearModel, validate_observations

DEFAULT_REL_TOL = 1e-9


@dataclass(frozen=True)
class HittingStructure:
    """Decomposition of a hitting matrix into independent row classes.

    Attributes
    ----------
    z_hat : (p,) upper bounds for the factors.
    H : (n, p) boolean hitting matrix.
    classes : tuple of row-index arrays I_s partitioning the rows.
    J : tuple of column-index arrays; J[s] are the columns hitting
        every row of classes[s] (candidate atoms of class s).
    J_bar : tuple of column-index arrays; J_bar[s] are the columns
        hitting at least one row of classes[s]. They partition the
        column set.
    rank : number of classes (equals the minimal hitting-scenario size).
    """

    z_hat: np.ndarray
    H: np.ndarray
    classes: tuple[np.ndarray, ...]
    J: tuple[np.ndarray, ...]
    J_bar: tuple[np.ndarray, ...]
    rank: int


def compute_upper_bounds(model: MaxLinearModel, x) -> np.ndarray:
    """Componentwise largest z with A (max-times) z <= x.

    zhat_j = min over rows i with A[i,j] > 0 of x_i / A[i,j]; finite and
    positive under Assumption A.
    """
    x = validate_observations(x, model.n)
    return _upper_bounds(model.A, x)


def _upper_bounds(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """zhat of a validated A (every column has a positive entry).

    Raises
    ------
    NumericalOverflowError
        if some zhat_j = x_i / a_ij exceeds the largest float64.
    """
    with np.errstate(divide="ignore", over="ignore"):
        ratios = np.where(A > 0, x[:, None] / A, np.inf)
    z_hat = ratios.min(axis=0)
    over = np.flatnonzero(z_hat == np.inf)
    if over.size:
        raise NumericalOverflowError(
            f"upper bound of column {over[0]} overflows float64: every "
            f"x_i / a_ij of that column exceeds {np.finfo(float).max:.3g}"
        )
    return z_hat


def compute_hitting_matrix(
    model: MaxLinearModel, x, z_hat, rel_tol: float = DEFAULT_REL_TOL
) -> np.ndarray:
    """Boolean matrix with H[i,j] set iff A[i,j] * zhat_j reproduces x_i.

    Equality is taken relative: |A[i,j] * zhat_j - x_i| <= rel_tol * x_i,
    and only where A[i,j] > 0.

    Raises
    ------
    ValueError
        unless 0 <= rel_tol < 1.
    InconsistentObservationError
        if some row has no hit, i.e. x is not in the range of the model
        within tolerance.
    """
    x = validate_observations(x, model.n)
    return _hitting_matrix(model.A, x, np.asarray(z_hat, dtype=float), rel_tol)


def _hitting_matrix(
    A: np.ndarray, x: np.ndarray, z_hat: np.ndarray, rel_tol: float
) -> np.ndarray:
    # at rel_tol >= 1 every a_ij * zhat_j <= x_i would count as a hit
    if not (_real(rel_tol) and 0.0 <= rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in [0, 1), got {rel_tol!r}")
    H = (A > 0) & (np.abs(A * z_hat - x[:, None]) <= rel_tol * x[:, None])
    bad = np.flatnonzero(~H.any(axis=1))
    if bad.size:
        raise InconsistentObservationError(
            f"no factor can reproduce observation rows {bad.tolist()}; "
            "x is outside the model range (within tolerance)"
        )
    return H


def decompose(H, z_hat) -> HittingStructure:
    """Split rows into connected classes and columns into their J-sets.

    Two rows are related when some column hits both; classes are the
    transitive closure, computed with union-find over the (few) columns
    carrying more than one hit. Everything else is columnwise
    reductions of H plus one scan of the column labels per class.

    Raises
    ------
    EmptyScenarioClassError
        if some class has no column hitting all of its rows. On
        model-generated data this is a probability-zero event; it
        signals a tolerance failure or an inconsistent observation.
    """
    H = np.asarray(H, dtype=bool)
    z_hat = np.asarray(z_hat, dtype=float)
    if H.size == 0:
        raise ValueError("H is not a valid hitting matrix: empty")
    if not (H.any(axis=0).all() and H.any(axis=1).all()):
        raise ValueError("H is not a valid hitting matrix: empty row or column")
    return _decompose_checked(H, z_hat)


def _decompose_checked(H: np.ndarray, z_hat: np.ndarray) -> HittingStructure:
    """Decomposition core; assumes H is boolean with no empty row/column."""
    n, p = H.shape
    col_count = H.sum(axis=0)

    parent = np.arange(n)

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    merged = False
    if n > 1:
        # only columns with two or more hits can merge row classes
        for c in np.flatnonzero(col_count >= 2):
            hit_rows = np.flatnonzero(H[:, c])
            ra = find(int(hit_rows[0]))
            for b in hit_rows[1:]:
                rb = find(int(b))
                if ra != rb:
                    lo, hi = min(ra, rb), max(ra, rb)
                    parent[hi] = lo
                    ra = lo
                    merged = True

    if merged:
        # label classes by first appearance; roots are minimal in class,
        # so labels are ordered by smallest row index
        label_of_root: dict[int, int] = {}
        labels = [0] * n
        groups: list[list[int]] = []
        for i in range(n):
            r = find(i)
            s = label_of_root.get(r)
            if s is None:
                s = len(label_of_root)
                label_of_root[r] = s
                groups.append([])
            labels[i] = s
            groups[s].append(i)
        rank = len(groups)
        row_class = np.array(labels, dtype=np.intp)
        classes = tuple(np.array(g, dtype=np.intp) for g in groups)
    else:
        row_class = parent  # every row is its own class
        rank = n
        classes = tuple(parent[i : i + 1] for i in range(n))

    col_class = row_class[H.argmax(axis=0)]
    class_size = np.bincount(row_class, minlength=rank)
    full = col_count == class_size[col_class]
    J_bar = []
    J = []
    for s in range(rank):
        members = np.flatnonzero(col_class == s)
        J_bar.append(members)
        J.append(members[full[members]])
    J_bar = tuple(J_bar)
    J = tuple(J)
    empty = [s for s in range(rank) if J[s].size == 0]
    if empty:
        raise EmptyScenarioClassError(
            f"classes {empty} have no column hitting all their rows; "
            "retry with adjusted rel_tol or check the observation"
        )
    return HittingStructure(
        z_hat=z_hat, H=H, classes=classes, J=J, J_bar=J_bar, rank=rank
    )


def hitting_structure(
    model: MaxLinearModel, x, rel_tol: float = DEFAULT_REL_TOL
) -> HittingStructure:
    """Upper bounds, hitting matrix and decomposition in one call.

    Validates the observation once and skips the redundant re-checks of
    the standalone entry points, so it is cheaper than calling the
    three steps separately.
    """
    x = validate_observations(x, model.n)
    z_hat = _upper_bounds(model.A, x)
    H = _hitting_matrix(model.A, x, z_hat, rel_tol)
    return _decompose_checked(H, z_hat)
