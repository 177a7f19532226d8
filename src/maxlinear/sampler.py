"""Exact sampling from the conditional law, plus prediction mapping.

Per draw, each class independently picks the column forced to its upper
bound (inverse-CDF on the normalized class weights, one uniform per
class) and every other column is drawn from its margin truncated below
its bound. A batch does this for all classes at once, with one matrix
of atom picks and one matrix of truncated values. Every draw reproduces
the observations exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditional import ConditionalLaw, _joined, conditional_law
from .errors import (
    DimensionMismatchError,
    MarginCountMismatchError,
    NegativeEntryError,
    ZeroMassBelowBoundError,
    _check_design_size,
    _converted,
    _integer,
)
from .hitting import DEFAULT_REL_TOL
from .margins import MarginSpec, _columnwise, margin_groups
from .model import BLOCK_ELEMENTS, check_coefficients, max_linear_apply_batch, validate_model


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable random stream.

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream_ids yield statistically independent streams. Both
    are integers >= 0 (else ValueError).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        object.__setattr__(self, "stream_id", _integer("stream_id", self.stream_id, 0))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream_id))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def _truncated_matrix(
    margins: Sequence[MarginSpec],
    bounds: np.ndarray,
    gen: np.random.Generator,
    num: int,
) -> np.ndarray:
    """(num, len(bounds)) draws; column j follows margins[j] conditioned
    on lying strictly inside (0, bounds[j]).

    Drawn in hazard form, as the quantile at exp(-(h_j - log U)) with
    h_j = -log F_j(bounds[j]), so a bound far in the lower tail, where
    F_j itself underflows, still has its exact truncated law. One
    (len(bounds), num) buffer is filled with U block by block of
    BLOCK_ELEMENTS with ``gen.random(out=block)``, in block order, which
    draws the stream one ``gen.random(buf.shape)`` would; each block is
    mapped in place while it is in cache: log U, h - log U, the quantile,
    and the clamp into [nextafter(0, 1), nextafter(b, 0)]. A draw that
    raises has used the stream up to the end of the block that failed. The
    result is the buffer's transpose, a column-major (num, len(bounds))
    matrix. The exact value lies in [0, b]: only rounding puts it on b,
    and nextafter(b, 0) is the exact value rounded toward zero; only
    U = 0 or underflow puts it on 0. At unit Frechet and b = 1e-20 the
    whole law lies within 1e-20 of b (relative), far inside one ulp, so
    every value is nextafter(b, 0).

    Raises
    ------
    ZeroMassBelowBoundError
        if the log-CDF at a bound is -inf or a quantile is NaN.
    """
    kinds, label = margin_groups(margins)
    log_f = _columnwise((kinds, label), "log_cdf", bounds)
    empty = np.flatnonzero(log_f == -np.inf)
    if empty.size:
        raise ZeroMassBelowBoundError(
            f"no mass below bound {bounds[empty[0]]} of column {empty[0]}: "
            "its log-CDF is -inf"
        )
    hazard = -log_f[:, None]
    below = np.nextafter(bounds, 0.0)[:, None]
    tiny = np.nextafter(0.0, 1.0)
    buf = np.empty((bounds.size, num))
    step = max(1, BLOCK_ELEMENTS // max(num, 1))
    for start in range(0, bounds.size, step):
        rows = slice(start, start + step)
        block = buf[rows]
        gen.random(out=block)
        # U = 0 gives log U = -inf and the value 0, which is clamped
        with np.errstate(divide="ignore"):
            np.log(block, out=block)
        np.subtract(hazard[rows], block, out=block)
        # the quantile may be block itself; the first clamp writes it there
        quantile = _columnwise((kinds, label[rows]), "_hazard_quantile", block.T).T
        np.minimum(quantile, below[rows], out=block)
        np.maximum(block, tiny, out=block)
        if np.isnan(block.max()):  # the clamps pass NaN through
            j = start + np.flatnonzero(np.isnan(block).any(axis=1))[0]
            raise ZeroMassBelowBoundError(f"quantile of column {j} is NaN below {bounds[j]}")
    return buf.T


def draw_conditional_batch(
    law: ConditionalLaw, num: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``num`` independent samples at once.

    The classes are independent and their J_bar sets partition the
    columns, so a batch takes two uniform matrices. The first picks the
    atom of every class in every draw, by one search over the per-class
    cumulative weights joined end to end: class s spans (s, s + 1], its
    uniform is shifted by s, and the pick is clamped into the class
    against rounding. The second draws every column below its bound;
    the picked atoms then overwrite their columns with zhat.

    Returns (Z, chosen) with shapes (num, p) and (num, rank); Z is
    column-major (``Z.T`` is C-contiguous), one contiguous column per
    factor. ``num`` must be an integer >= 1 (else ValueError).
    """
    num = _integer("num", num, 1)
    gen = _as_generator(rng)
    cols, starts = _joined(law.structure.J)
    last = np.append(starts[1:], cols.size) - 1
    cum = np.cumsum(np.concatenate(law.weights))
    u = gen.random((num, law.rank)) + np.arange(law.rank)
    chosen = cols[np.clip(np.searchsorted(cum, u, side="right"), starts, last)]
    Z = _truncated_matrix(law.margins, law.z_hat, gen, num)
    Z[np.arange(num)[:, None], chosen] = law.z_hat[chosen]
    return Z, chosen


# --- prediction jobs ------------------------------------------------------

@dataclass(frozen=True)
class PredictionTask:
    """Observe X = x through A, predict B applied to the same factors.

    Columns of ``A`` without any positive entry are unconstrained by the
    observations; they are drawn unconditionally from their margins. A
    ``B`` with zero rows, ``np.zeros((0, p))``, asks for the factors only.
    """

    A: np.ndarray
    B: np.ndarray
    margins: tuple[MarginSpec, ...]
    x: np.ndarray
    num_samples: int
    seed: int
    rel_tol: float = DEFAULT_REL_TOL


@dataclass(frozen=True)
class PredictionResult:
    Z: np.ndarray  # (num_samples, p), column-major
    Y: np.ndarray  # (num_samples, m)
    law: ConditionalLaw
    conditioned_columns: np.ndarray
    free_columns: np.ndarray


def row_floors(law: ConditionalLaw, B) -> np.ndarray:
    """Per-row floor of B (max-times) Z over every draw from ``law``.

    ``B`` has one column per conditioned factor. Each class s puts some
    j in J[s] exactly at zhat_j in every draw, so row k of the prediction
    is at least L_k = max_s min_{j in J[s]} b_kj * zhat_j.
    """
    cols, starts = _joined(law.structure.J)
    reach = B[:, cols] * law.z_hat[cols]
    return np.minimum.reduceat(reach, starts, axis=1).max(axis=1)


def run_prediction(task: PredictionTask) -> PredictionResult:
    """Draw conditional samples of all factors and map them through B.

    The map skips the entries of ``B`` that cannot decide their row
    (see :func:`row_floors`); ``Y`` equals ``B (max-times) Z`` exactly.
    A ``num_samples`` for which ``Z`` or ``Y`` would hold more than
    MAX_DESIGN_ENTRIES entries is a DimensionOverflowError, raised before
    anything is drawn.
    """
    num = _integer("num_samples", task.num_samples, 1)
    seed = _integer("seed", task.seed, 0)
    A = _converted("A", np.asarray, task.A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatchError(f"A must be 2-d, got shape {A.shape}")
    B = check_coefficients(task.B, "B")
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(
            f"A and B must share the column space: {A.shape} vs {B.shape}"
        )
    _check_design_size(num, max(A.shape[1], B.shape[0]), f"num_samples={num}: Z or Y")
    if len(task.margins) != A.shape[1]:
        raise MarginCountMismatchError(
            f"expected {A.shape[1]} margins, got {len(task.margins)}"
        )
    observed = (A > 0).any(axis=0)
    cond = np.flatnonzero(observed)
    free = np.flatnonzero(~observed)
    if free.size:
        # validate_model checks the other columns; NaN != 0 is caught too
        stray = free[(A[:, free] != 0).any(axis=0)]
        if stray.size:
            raise NegativeEntryError(f"A has negative or NaN entries in columns {stray.tolist()}")
        model = validate_model(A[:, cond], [task.margins[j] for j in cond])
        B_cond = B[:, cond]
    else:  # every column observed: no sub-block copies
        model, B_cond = validate_model(A, task.margins), B
    law = conditional_law(model, task.x, task.rel_tol)
    Zc, _ = draw_conditional_batch(law, num, RngStream(seed, 0))
    if free.size:
        # column-major like Zc, so each column is copied or drawn contiguously;
        # a free factor is its margin truncated below +inf, i.e. untruncated
        Z = np.empty((A.shape[1], num)).T
        Z.T[cond] = Zc.T
        Z.T[free] = _truncated_matrix(
            [task.margins[j] for j in free],
            np.full(free.size, np.inf),
            RngStream(seed, 1).generator(),
            num,
        ).T
    else:
        Z = Zc
    # free factors are unbounded
    upper = np.full(A.shape[1], np.inf)
    upper[cond] = law.z_hat
    Y = max_linear_apply_batch(B, Z, upper=upper, floor=row_floors(law, B_cond))
    return PredictionResult(
        Z=Z, Y=Y, law=law, conditioned_columns=cond, free_columns=free
    )
