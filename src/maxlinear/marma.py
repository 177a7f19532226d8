"""Max-autoregressive moving-average (MARMA) time series as max-linear models.

A stationary MARMA(m, q) path is a max-moving-average of iid standard
1-Frechet innovations with coefficients psi_j obtained from the
autoregressive recursion. Truncating the moving average at lag p yields
banded design matrices (A for the observed window, B for the horizon)
that plug directly into the conditional sampler.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NonStationaryError, NotPureMarError, NumericalOverflowError, _check_design_size,
    _convert_fields, _converted, _finite, _from_json, _integer, _to_json,
)
from .model import validate_observations


def _nonnegative(values) -> tuple[float, ...]:
    values = tuple(_finite(v) for v in values)
    if any(v < 0 for v in values):
        raise ValueError(f"must be nonnegative, got {min(values)}")
    return values


def _checked_coefficients(phi, theta) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``(phi, theta)`` as tuples of floats, under the one rule for MARMA
    coefficients: every entry finite and nonnegative, else a ValueError
    naming the field, and max(phi) < 1, else a NonStationaryError."""
    phi = _converted("phi", _nonnegative, phi)
    theta = _converted("theta", _nonnegative, theta)
    if phi and max(phi) >= 1.0:
        raise NonStationaryError(f"max(phi) = {max(phi)} >= 1: no stationary solution")
    return phi, theta


@dataclass(frozen=True)
class MarmaSpec:
    """Parameters of a truncated MARMA(m, q) prediction problem.

    Innovations are fixed to standard 1-Frechet. The constructor converts
    each field to its type, so a spec file takes the values code does; a
    NaN, infinite or negative ``phi`` or ``theta`` entry is a ValueError
    naming the field, as in :func:`marma_coefficients`.
    """

    phi: tuple[float, ...]
    theta: tuple[float, ...] = ()
    p: int = 500
    n_observed: int = 100
    N_horizon: int = 50

    _json_tag = {}  # a spec file holds the fields alone

    def __post_init__(self):
        phi, theta = _checked_coefficients(self.phi, self.theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", theta)
        _convert_fields(
            self, p=lambda v: _integer("p", v, 0),
            n_observed=lambda v: _integer("n_observed", v, 1),
            N_horizon=lambda v: _integer("N_horizon", v, 1),
        )
        if self.p < len(self.phi) + len(self.theta):
            raise ValueError("truncation p must be at least m + q")

    @property
    def phi_star(self) -> float:
        return max(self.phi) if self.phi else 0.0


def marma_coefficients(phi, theta, p: int) -> np.ndarray:
    """Moving-average coefficients psi_0..psi_p of the stationary solution.

    alpha_0 = 1, alpha_j = max_i phi_i * alpha_{j-i} (zero for j < 0);
    psi_j = max over k <= min(j, q) of alpha_{j-k} * theta_k, with
    theta_0 = 1 (the unit coefficient on the current innovation).
    ``phi`` and ``theta`` follow the rule of :class:`MarmaSpec`, and ``p``
    is an integer >= 0 (else ValueError).
    """
    phi, theta = map(np.array, _checked_coefficients(phi, theta))
    p = _integer("p", p, 0)
    _check_design_size(1, p + 1, f"p={p}: psi")
    alpha = np.zeros(p + 1)
    alpha[0] = 1.0
    m = phi.size
    for j in range(1, p + 1):
        hi = min(m, j)
        if hi:
            alpha[j] = (phi[:hi] * alpha[j - hi : j][::-1]).max()
    theta_full = np.concatenate(([1.0], theta))
    psi = np.empty(p + 1)
    for j in range(p + 1):
        k = min(j, theta_full.size - 1)
        psi[j] = (theta_full[: k + 1] * alpha[j - k : j + 1][::-1]).max()
    with np.errstate(over="ignore"):
        if not np.isfinite(psi.sum()):
            raise NumericalOverflowError("the coefficients psi sum beyond the float64 range")
    return psi


def marma_truncation_quality(phi, theta, p: int) -> float:
    """Lower bound on the probability that the truncated path equals the
    exact one at a fixed time.

    The tail sum of psi beyond lag p is majorized geometrically through
    alpha_j <= phi_star^ceil(j/m); the bound is
    1 - tail_majorant / prefix_sum.
    """
    psi = marma_coefficients(phi, theta, p)  # checks phi, theta and p
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    prefix = float(psi.sum())  # Python floats: a tail beyond their range is inf
    phi_star = float(phi.max()) if phi.size else 0.0
    if phi_star == 0.0:
        return 1.0  # pure moving average: psi vanishes beyond q <= p
    m = phi.size
    q = theta.size
    theta_star = max(1.0, float(theta.max()) if q else 1.0)
    shifted = p - q  # psi_j <= theta_star * phi_star^ceil((j - q)/m)
    t0 = math.ceil((shifted + 1) / m)
    tail = theta_star * (
        (t0 * m - shifted) * phi_star**t0 + m * phi_star ** (t0 + 1) / (1.0 - phi_star)
    )
    return max(0.0, 1.0 - tail / (prefix + tail)) if tail < math.inf else 0.0


def marma_design(psi, n: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Banded design matrices for n observed values and an N-step horizon.

    The stacked (n+N) x (p+n+N) matrix has psi_p..psi_0 on each row,
    shifted right by one per row; A is the first n rows, B the rest.
    ``n`` is an integer >= 1 and ``N`` one >= 0 (else ValueError).
    """
    psi = np.asarray(psi, dtype=float)
    n, N = _integer("n", n, 1), _integer("N", N, 0)
    p = psi.size - 1
    total_cols = p + n + N
    _check_design_size(n + N, total_cols)
    band = psi[::-1]
    M = np.zeros((n + N, total_cols))
    for t in range(n + N):
        M[t, t : t + p + 1] = band
    return M[:n], M[n:]


def projection_predictor(phi, observed, N: int) -> np.ndarray:
    """Recursive max-AR extrapolation seeded with the observed values.

    Defined for pure max-autoregressive models (q = 0); each step takes
    the max of phi_i times the i-th previous (predicted or observed)
    value. ``phi`` follows the rule of :class:`MarmaSpec`, ``observed``
    holds finite positive values and ``N`` is an integer >= 0 (else
    ValueError).
    """
    N = _integer("N", N, 0)
    phi = np.array(_checked_coefficients(phi, ())[0])
    observed = validate_observations(observed, np.size(observed))
    m = phi.size
    if m == 0:
        return np.zeros(N)
    if observed.size < m:
        raise ValueError(f"need at least m = {m} observed values")
    history = list(observed[-m:])
    preds = np.empty(N)
    for k in range(N):
        preds[k] = max(phi[i] * history[-1 - i] for i in range(m))
        history.append(preds[k])
    return preds


def simulate_marma_window(
    psi, n: int, N: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one truncated path: returns (Z, x_observed, y_future).

    The counts follow :func:`marma_design`."""
    A, B = marma_design(psi, n, N)
    Z = 1.0 / -np.log(gen.random(A.shape[1]))  # standard 1-Frechet
    # a path beyond the float range holds inf; conditioning rejects it in x
    with np.errstate(over="ignore"):
        return Z, (A * Z).max(axis=1), (B * Z).max(axis=1)


def require_pure_mar(spec: MarmaSpec) -> None:
    if spec.theta:
        raise NotPureMarError("projection predictor requires q = 0")


# --- spec file format -----------------------------------------------------

def load_marma_spec(path) -> MarmaSpec:
    return _from_json(MarmaSpec, json.loads(Path(path).read_text()), "a MARMA spec")


def save_marma_spec(spec: MarmaSpec, path) -> None:
    Path(path).write_text(json.dumps(spec, default=_to_json))
