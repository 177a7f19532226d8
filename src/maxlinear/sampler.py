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
    AcceptanceTooRareError,
    DimensionMismatchError,
    ZeroMassBelowBoundError,
)
from .hitting import DEFAULT_REL_TOL
from .margins import MarginSpec, _columnwise
from .model import (
    MaxLinearModel,
    check_coefficients,
    max_linear_apply,
    max_linear_apply_batch,
    validate_model,
    validate_observations,
)

# redraw rounds for truncated values that land on 0 or on their bound;
# each round hits a value with probability of order 2**-52
REDRAW_ROUNDS = 8


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable random stream.

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream_ids yield statistically independent streams.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=(int(self.seed), int(self.stream_id)))
        )

    def substream(self, stream_id: int) -> "RngStream":
        return RngStream(seed=self.seed, stream_id=stream_id)


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

    Drawn in log space, as the log-quantile of log U + log F_j(bounds[j]),
    so a bound far in the lower tail, where F_j itself underflows, still
    has its exact truncated law. One buffer holds U, then log U + log F,
    before the margins map it. A value that floating point puts on 0 or
    on the bound (or NaN) is redrawn, for at most ``REDRAW_ROUNDS`` rounds.

    Raises
    ------
    ZeroMassBelowBoundError
        if the log-CDF at a bound is -inf, or if some value is still
        outside (0, bound) after the last round.
    """
    log_f = _columnwise(margins, "log_cdf", bounds)
    empty = np.flatnonzero(log_f == -np.inf)
    if empty.size:
        raise ZeroMassBelowBoundError(
            f"no mass below bound {bounds[empty[0]]} of column {empty[0]}: "
            "its log-CDF is -inf"
        )
    log_u = gen.random((num, bounds.size))
    # U = 0 gives log U = -inf and the value 0, which is redrawn
    with np.errstate(divide="ignore"):
        np.log(log_u, out=log_u)
    log_u += log_f
    values = _columnwise(margins, "log_quantile", log_u)
    for redraws in range(REDRAW_ROUNDS + 1):
        ok = values > 0.0
        ok &= values < bounds
        if ok.all():
            return values
        rows, cols = np.nonzero(~ok)
        if redraws == REDRAW_ROUNDS:
            raise ZeroMassBelowBoundError(
                f"no draw of column {cols[0]} fell strictly inside "
                f"(0, {bounds[cols[0]]}) in {REDRAW_ROUNDS} redraw rounds"
            )
        with np.errstate(divide="ignore"):
            log_u = np.log(gen.random(cols.size)) + log_f[cols]
        values[rows, cols] = _columnwise([margins[j] for j in cols], "log_quantile", log_u)


@dataclass(frozen=True)
class ConditionalSample:
    """One exact draw: factor vector plus the realized hitting scenario."""

    z: np.ndarray
    chosen: np.ndarray  # one column index per class, chosen[s] in J[s]


def draw_conditional(law: ConditionalLaw, rng) -> ConditionalSample:
    """Draw one exact sample from the conditional law (a batch of one)."""
    Z, chosen = draw_conditional_batch(law, 1, rng)
    return ConditionalSample(z=Z[0], chosen=chosen[0])


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

    Returns (Z, chosen) with shapes (num, p) and (num, rank).
    """
    gen = _as_generator(rng)
    cols, starts = _joined(law.structure.J)
    last = np.append(starts[1:], cols.size) - 1
    cum = np.cumsum(np.concatenate(law.weights))
    u = gen.random((num, law.rank)) + np.arange(law.rank)
    chosen = cols[np.clip(np.searchsorted(cum, u, side="right"), starts, last)]
    Z = _truncated_matrix(law.margins, law.z_hat, gen, num)
    Z[np.arange(num)[:, None], chosen] = law.z_hat[chosen]
    return Z, chosen


def predict(B, sample: ConditionalSample) -> np.ndarray:
    """Map one conditional sample through a prediction matrix."""
    return max_linear_apply(B, sample.z)


def rejection_oracle(
    model: MaxLinearModel,
    x,
    epsilon: float,
    num_accepted: int,
    rng,
    max_proposals: int = 1_000_000_000,
    batch_size: int = 200_000,
) -> np.ndarray:
    """Independent statistical oracle for the conditional sampler.

    Draws unconditional factor vectors and accepts those whose image
    reproduces every observation within relative ``epsilon``. As epsilon
    shrinks, the accepted law converges to the exact conditional law.
    Acceptance is checked in observation space, which matches the exact
    law only in the limit; keep epsilon small.

    Returns the accepted factor vectors, shape (num_accepted, p).

    Raises
    ------
    AcceptanceTooRareError
        if ``max_proposals`` proposals are exhausted first; the error
        carries the observed acceptance rate.
    """
    if not (0.0 < epsilon <= 0.1):
        raise ValueError(f"epsilon must be in (0, 0.1], got {epsilon}")
    x = validate_observations(x, model.n)
    gen = _as_generator(rng)
    A = model.A
    margins = model.margins
    first = margins[0]
    homogeneous = all(m is first or m == first for m in margins)
    accepted: list[np.ndarray] = []
    total_accepted = 0
    proposed = 0
    while total_accepted < num_accepted:
        if proposed >= max_proposals:
            rate = total_accepted / proposed
            raise AcceptanceTooRareError(
                f"only {total_accepted}/{num_accepted} acceptances after "
                f"{proposed} proposals (rate {rate:.3g})",
                acceptance_rate=rate,
            )
        m = int(min(batch_size, max_proposals - proposed))
        U = gen.random((m, model.p))
        if homogeneous:
            Z = np.asarray(first.quantile(U))
        else:
            Z = np.column_stack(
                [np.asarray(margins[j].quantile(U[:, j])) for j in range(model.p)]
            )
        X = max_linear_apply_batch(A, Z)
        ok = (np.abs(X - x) <= epsilon * x).all(axis=1)
        hits = Z[ok]
        if hits.shape[0]:
            accepted.append(hits)
            total_accepted += hits.shape[0]
        proposed += m
    return np.vstack(accepted)[:num_accepted]


# --- prediction jobs ------------------------------------------------------

@dataclass(frozen=True)
class PredictionTask:
    """Observe X = x through A, predict B applied to the same factors.

    Columns of ``A`` without any positive entry are unconstrained by the
    observations; they are drawn unconditionally from their margins.
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
    Z: np.ndarray  # (num_samples, p)
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
    """
    A = np.asarray(task.A, dtype=float)
    B = check_coefficients(task.B, "B")
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(
            f"A and B must share the column space: {A.shape} vs {B.shape}"
        )
    if len(task.margins) != A.shape[1]:
        raise DimensionMismatchError(
            f"expected {A.shape[1]} margins, got {len(task.margins)}"
        )
    observed = (A > 0).any(axis=0)
    cond = np.flatnonzero(observed)
    free = np.flatnonzero(~observed)
    sub_model = validate_model(A[:, cond], [task.margins[j] for j in cond])
    law = conditional_law(sub_model, task.x, task.rel_tol)
    num = int(task.num_samples)
    Zc, _ = draw_conditional_batch(law, num, RngStream(task.seed, 0))
    if free.size:
        Z = np.empty((num, A.shape[1]))
        Z[:, cond] = Zc
        U = RngStream(task.seed, 1).generator().random((num, free.size))
        Z[:, free] = _columnwise([task.margins[j] for j in free], "quantile", U)
    else:
        Z = Zc
    # free factors are unbounded
    upper = np.full(A.shape[1], np.inf)
    upper[cond] = law.z_hat
    Y = max_linear_apply_batch(B, Z, upper=upper, floor=row_floors(law, B[:, cond]))
    return PredictionResult(
        Z=Z, Y=Y, law=law, conditioned_columns=cond, free_columns=free
    )
