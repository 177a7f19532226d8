"""Upper bounds, hitting matrix and the row-class decomposition.

Given observed values x, each factor j is bounded above by
zhat_j = min over rows i with A[i,j] > 0 of x_i / A[i,j]. The hitting
matrix marks the (i, j) pairs where that bound reproduces x_i exactly
(within relative tolerance). Rows connected through shared hitting
columns form equivalence classes; the classes make the conditional law
factorize, which is what keeps sampling linear in n and p instead of
exponential.

zhat and H come from one pass over A in column blocks that makes no
n x p float temporary and also checks A as ``validate_model`` does, so
``run_prediction`` hands its A over without a copy or that call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyScenarioClassError,
    InconsistentObservationError,
    MaxLinearError,
    NumericalOverflowError,
    _at_column,
    _real,
)
from .model import (
    MaxLinearModel,
    _block_width,
    _check_model_matrix,
    _matrix,
    validate_observations,
)

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
        hitting at least one row of classes[s], and J_bar[0] also holds
        every column that hits no row (at a small rel_tol, a_ij * zhat_j
        can round away from x_i at every row). They partition the
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

    Raises
    ------
    NumericalOverflowError
        if some zhat_j = x_i / a_ij exceeds the largest float64.
    """
    return _bounds_and_hits(model.A, x, hits=False)[0]


def _bounds_and_hits(A, x, rel_tol=DEFAULT_REL_TOL, hits=True):
    """``(z_hat, H)`` of the coefficient matrix ``A`` at the observation
    ``x``, in one pass over the column blocks of ``A``; with ``hits=False``
    H is None.

    Per block, a min and a max (no temporary) check that the entries are
    finite and nonnegative, and zhat and H are computed in one reused
    (n, width) float buffer, with no mask ``A > 0``: x_i / 0 is inf and a
    zero entry never hits. So a column with no positive entry leaves its
    zhat at inf and a row with none has no hit, and with both zhat and H
    formed a clean pass has met every condition of :func:`validate_model`.
    One handler catches every fault (a bad entry, a bad ``x``, an infinite
    or underflowing zhat, a bad ``rel_tol``, a row with no hit) and first
    runs that function's checks of ``A``, which raise the first fault of
    ``A`` in its order; only a clean ``A`` lets the pass's own fault through.
    """
    try:
        A = _matrix(A, "A")
        n, p = A.shape
        x = validate_observations(x, n)
        if A.size == 0:
            _check_model_matrix(A)  # raises DimensionMismatchError
        z_hat = np.empty(p)
        # at rel_tol >= 1 every a_ij * zhat_j <= x_i would count as a hit
        tol_ok = _real(rel_tol) and 0.0 <= rel_tol < 1.0
        H = np.empty((n, p), dtype=bool) if hits and tol_ok else None
        xc = x[:, None]
        tol = rel_tol * xc if H is not None else None
        width = _block_width(n)
        buf = np.empty((n, min(width, p)))
        # x_i / 0 = inf bounds nothing; an overflowing zhat is reported below
        with np.errstate(divide="ignore", over="ignore"):
            for start in range(0, p, width):
                block = A[:, start : start + width]
                cols = slice(start, start + block.shape[1])
                work = buf[:, : block.shape[1]]
                # min >= 0 rejects NaN and negative values, max < inf rejects +inf
                if not (block.min() >= 0.0 and block.max() < np.inf):
                    # the handler's check names every bad column of A
                    raise ValueError("A has a negative or non-finite entry")
                # the entries are >= 0, so abs only turns -0.0 into 0.0,
                # which keeps x_i / a_ij at +inf for every zero entry
                np.abs(block, out=work)
                np.divide(xc, work, out=work)
                z = work.min(axis=0, out=z_hat[cols])
                if z.max() == np.inf:  # an empty column, or an overflow
                    raise _at_column(
                        NumericalOverflowError,
                        "upper bound of column {column} overflows float64: every "
                        f"x_i / a_ij of that column exceeds {np.finfo(float).max:.3g}",
                        start + int(np.argmax(z == np.inf)),
                    )
                if H is not None:
                    # a zero entry has |0 - x_i| = x_i > rel_tol * x_i, so H
                    # needs no mask: it is False wherever A is not positive
                    np.multiply(block, z_hat[cols], out=work)
                    np.subtract(work, xc, out=work)
                    np.abs(work, out=work)
                    np.less_equal(work, tol, out=H[:, cols])
        if not hits:
            return z_hat, None
        if H is None:
            raise ValueError(f"rel_tol must lie in [0, 1), got {rel_tol!r}")
        missed = ~H.any(axis=1)
        if missed.any():  # an empty row, an underflow, or x outside the model range
            rows = np.flatnonzero(missed)
            with np.errstate(divide="ignore", over="ignore"):
                ratios = x[rows, None] / np.abs(A[rows])
            # a subnormal x_i / a_ij keeps too few digits for a_ij * zhat_j to
            # reproduce x_i within rel_tol
            low = np.flatnonzero((ratios < np.finfo(float).tiny).any(axis=0))
            if low.size:
                raise _at_column(
                    NumericalOverflowError,
                    "upper bound of column {column} underflows float64: x_i / a_ij "
                    f"at a row with no hit is below {np.finfo(float).tiny:.3g}",
                    low[0],
                )
            raise InconsistentObservationError(
                f"no factor can reproduce observation rows {rows.tolist()}; "
                "x is outside the model range (within tolerance)"
            )
        return z_hat, H
    except (MaxLinearError, ValueError, TypeError):
        _check_model_matrix(A)  # a fault of A is reported first
        raise


def _decompose_checked(H: np.ndarray, z_hat: np.ndarray) -> HittingStructure:
    """The classes, J and J_bar of the boolean H, which has no empty row.

    Two rows are related when some column hits both; the classes, the
    transitive closure, come from a union-find over the hits of the
    columns with two or more hits, in the order of their smallest rows.
    Each column belongs to the class of its first hit row, and J[s] keeps
    the columns whose hit count is the size of class s. A column with no
    hit goes to J_bar[0] and to no J: it is drawn below its bound, like
    every column that is not a candidate atom."""
    n, p = H.shape
    col_count = H.sum(axis=0)

    # a list: scalar reads and writes of a NumPy array cost most of the loop
    parent = list(range(n))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    # only columns with two or more hits can merge row classes
    merge = np.flatnonzero(col_count >= 2)
    if merge.size:
        # the hits of the merge columns, column by column, rows ascending
        cols, rows = np.nonzero(H[:, merge].T)
        last = -1
        for c, b in zip(cols.tolist(), rows.tolist()):
            rb = find(b)
            if c != last:  # the first hit of a column
                last, ra = c, rb
            elif ra != rb:
                lo, hi = min(ra, rb), max(ra, rb)
                parent[hi] = lo
                ra = lo
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        classes = tuple(np.array(g, dtype=np.intp) for g in groups.values())
        row_class = np.empty(n, dtype=np.intp)
        for s, members in enumerate(classes):
            row_class[members] = s
    else:
        row_class = np.arange(n)  # every row is its own class
        classes = tuple(row_class[i : i + 1] for i in range(n))
    rank = len(classes)

    col_class = row_class[H.argmax(axis=0)]
    class_size = np.bincount(row_class, minlength=rank)
    full = col_count == class_size[col_class]
    J_bar = tuple(np.flatnonzero(col_class == s) for s in range(rank))
    J = tuple(members[full[members]] for members in J_bar)
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

    zhat and H come from one pass over the column blocks of ``model.A``,
    which also checks ``A`` as :func:`validate_model` does, so a model
    built from an unchecked ``A`` gets the same errors, in the same order,
    as ``validate_model`` followed by this call. H[i, j] is set iff
    |A[i,j] * zhat_j - x_i| <= rel_tol * x_i with A[i,j] > 0.

    Raises
    ------
    ValueError
        unless 0 <= rel_tol < 1.
    NumericalOverflowError
        if some zhat_j is beyond the float64 range, or a row with no hit
        has an x_i / a_ij below the smallest normal float64.
    InconsistentObservationError
        if a row has no hit otherwise: x is outside the model range.
    EmptyScenarioClassError
        if some class has no column hitting all of its rows; on
        model-generated data, a tolerance failure.
    """
    z_hat, H = _bounds_and_hits(model.A, x, rel_tol)
    return _decompose_checked(H, z_hat)
