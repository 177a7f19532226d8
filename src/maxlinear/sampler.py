"""Exact sampling from the conditional law, plus prediction mapping.

Per draw, each class independently picks the column forced to its upper
bound (inverse-CDF on the normalized class weights, one uniform per
class) and resamples the remaining class columns from their truncated
margins. Every draw reproduces the observations exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditional import ConditionalLaw, conditional_law
from .errors import (
    AcceptanceTooRareError,
    DimensionMismatchError,
    ZeroMassBelowBoundError,
)
from .hitting import DEFAULT_REL_TOL
from .margins import MarginSpec
from .model import (
    MaxLinearModel,
    check_coefficients,
    max_linear_apply,
    max_linear_apply_batch,
    validate_model,
    validate_observations,
)


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


def truncated_draw(margin: MarginSpec, bound: float, rng) -> float:
    """One draw from the margin conditioned on being strictly below ``bound``.

    Inverse-CDF applied to U * F(bound); the measure-zero boundary and
    origin hits possible in floating point are resampled.
    """
    if not bound > 0:
        raise ValueError(f"bound must be positive, got {bound}")
    gen = _as_generator(rng)
    f_bound = float(margin.cdf(bound))
    if f_bound <= 0.0:
        raise ZeroMassBelowBoundError(
            f"CDF mass below bound {bound} underflows to zero"
        )
    while True:
        value = float(margin.quantile(gen.random() * f_bound))
        if 0.0 < value < bound:
            return value


def _truncated_matrix(
    margins: Sequence[MarginSpec],
    cols: np.ndarray,
    bounds: np.ndarray,
    gen: np.random.Generator,
    num: int,
) -> np.ndarray:
    """(num, len(cols)) truncated draws for the given columns."""
    first = margins[cols[0]]
    homogeneous = all(margins[j] is first or margins[j] == first for j in cols)
    if homogeneous:
        f_bounds = np.asarray(first.cdf(bounds), dtype=float)
        if np.any(f_bounds <= 0.0):
            raise ZeroMassBelowBoundError("CDF mass below a bound underflows to zero")
        values = np.asarray(first.quantile(gen.random((num, cols.size)) * f_bounds))
        bad = (values <= 0.0) | (values >= bounds)
        while bad.any():
            redraw = gen.random(int(bad.sum())) * np.broadcast_to(f_bounds, bad.shape)[bad]
            values[bad] = first.quantile(redraw)
            bad = (values <= 0.0) | (values >= bounds)
        return values
    out = np.empty((num, cols.size))
    for k, j in enumerate(cols):
        margin = margins[j]
        f_bound = float(margin.cdf(bounds[k]))
        if f_bound <= 0.0:
            raise ZeroMassBelowBoundError(
                f"CDF mass below bound of column {j} underflows to zero"
            )
        vals = np.asarray(margin.quantile(gen.random(num) * f_bound))
        bad = (vals <= 0.0) | (vals >= bounds[k])
        while bad.any():
            vals[bad] = margin.quantile(gen.random(int(bad.sum())) * f_bound)
            bad = (vals <= 0.0) | (vals >= bounds[k])
        out[:, k] = vals
    return out


@dataclass(frozen=True)
class ConditionalSample:
    """One exact draw: factor vector plus the realized hitting scenario."""

    z: np.ndarray
    chosen: np.ndarray  # one column index per class, chosen[s] in J[s]


def draw_conditional(law: ConditionalLaw, rng) -> ConditionalSample:
    """Draw one exact sample from the conditional law."""
    gen = _as_generator(rng)
    structure = law.structure
    z_hat = law.z_hat
    z = np.empty(z_hat.size)
    chosen = np.empty(structure.rank, dtype=np.intp)
    for s in range(structure.rank):
        js = structure.J[s]
        cum = np.cumsum(law.weights[s])
        j_star = int(js[min(np.searchsorted(cum, gen.random(), side="right"), js.size - 1)])
        chosen[s] = j_star
        rest = structure.J_bar[s][structure.J_bar[s] != j_star]
        if rest.size:
            z[rest] = _truncated_matrix(law.margins, rest, z_hat[rest], gen, 1)[0]
        z[j_star] = z_hat[j_star]
    return ConditionalSample(z=z, chosen=chosen)


def draw_conditional_batch(
    law: ConditionalLaw, num: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``num`` independent samples at once.

    Vectorizes class by class with a single stream, so it is much faster
    than repeated :func:`draw_conditional` but follows a different (still
    deterministic, seed-reproducible) draw order.

    Returns (Z, chosen) with shapes (num, p) and (num, rank).
    """
    gen = _as_generator(rng)
    structure = law.structure
    z_hat = law.z_hat
    Z = np.empty((num, z_hat.size))
    chosen = np.empty((num, structure.rank), dtype=np.intp)
    for s in range(structure.rank):
        js = structure.J[s]
        jbar = structure.J_bar[s]
        cum = np.cumsum(law.weights[s])
        picks = np.minimum(
            np.searchsorted(cum, gen.random(num), side="right"), js.size - 1
        )
        j_star = js[picks]
        chosen[:, s] = j_star
        Z[:, jbar] = _truncated_matrix(law.margins, jbar, z_hat[jbar], gen, num)
        Z[np.arange(num), j_star] = z_hat[j_star]
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
    J = law.structure.J
    cols = np.concatenate(J)
    starts = np.cumsum([0] + [js.size for js in J[:-1]])
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
        gen = RngStream(task.seed, 1).generator()
        U = gen.random((num, free.size))
        for k, j in enumerate(free):
            Z[:, j] = np.asarray(task.margins[j].quantile(U[:, k]))
    else:
        Z = Zc
    # free factors are unbounded
    upper = np.full(A.shape[1], np.inf)
    upper[cond] = law.z_hat
    Y = max_linear_apply_batch(B, Z, upper=upper, floor=row_floors(law, B[:, cond]))
    return PredictionResult(
        Z=Z, Y=Y, law=law, conditioned_columns=cond, free_columns=free
    )
