"""Margin specifications for the independent factors of a max-linear model.

A margin is a continuous nonnegative distribution exposing density, CDF,
quantile and their logarithms (``log_quantile`` inverts ``log_cdf``).
The Frechet family is the principal instance; ``TabulatedContinuous``
supports arbitrary grid-based densities so the general weight formulas
can be exercised beyond the Frechet case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DensityNormalizationError

DENSITY_TOL = 1e-9


class MarginSpec:
    """Common interface for margins: cdf, pdf, quantile and log variants."""

    kind: str = "abstract"

    def cdf(self, z):
        raise NotImplementedError

    def pdf(self, z):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def log_cdf(self, z):
        with np.errstate(divide="ignore"):
            return np.log(self.cdf(z))

    def log_pdf(self, z):
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(z))

    def log_quantile(self, log_u):
        """Quantile at ``exp(log_u)``: the inverse of ``log_cdf``."""
        return self.quantile(np.exp(log_u))

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Frechet(MarginSpec):
    """Frechet law with shape ``alpha`` and scale ``scale``.

    CDF: F(z) = exp(-scale^alpha * z^(-alpha)) for z > 0.
    Density: f(z) = alpha * scale^alpha * z^(-alpha-1) * F(z).
    Quantile: Q(u) = scale * (-ln u)^(-1/alpha), so that
    Q(exp(l)) = scale * (-l)^(-1/alpha) needs no exponential.
    """

    alpha: float
    scale: float = 1.0

    kind = "frechet"

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive, got {self.scale}")

    # z**-alpha overflows to inf for tiny z; -inf is the right log-limit
    def log_cdf(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(z > 0, -self.scale**self.alpha * z**-self.alpha, -np.inf)
        return out if out.ndim else float(out)

    def cdf(self, z):
        return np.exp(self.log_cdf(z))

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(
                z > 0,
                np.log(self.alpha)
                + self.alpha * np.log(self.scale)
                - (self.alpha + 1.0) * np.log(np.where(z > 0, z, 1.0))
                - self.scale**self.alpha * np.where(z > 0, z, 1.0) ** -self.alpha,
                -np.inf,
            )
        return out if out.ndim else float(out)

    def pdf(self, z):
        return np.exp(self.log_pdf(z))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(
                u <= 0.0,
                0.0,
                self.scale * (-np.log(np.clip(u, None, 1.0))) ** (-1.0 / self.alpha),
            )
        return out if out.ndim else float(out)

    def log_quantile(self, log_u):
        # one allocation, then in place: this is the truncated-draw kernel.
        # 0 - l rather than -l, so that l = 0 gives +0 and Q = +inf
        out = 0.0 - np.asarray(log_u, dtype=float)
        with np.errstate(divide="ignore"):
            out **= -1.0 / self.alpha
        out *= self.scale
        return out if np.ndim(out) else float(out)

    def to_dict(self) -> dict:
        return {"kind": "frechet", "alpha": self.alpha, "scale": self.scale}


class TabulatedContinuous(MarginSpec):
    """Margin defined by a density tabulated on a grid.

    The density is interpreted as piecewise linear between grid points and
    zero outside; it must integrate to one within ``DENSITY_TOL`` under
    the trapezoid rule (no silent renormalization).
    """

    kind = "tabulated"

    def __init__(self, grid, density):
        grid = np.asarray(grid, dtype=float)
        density = np.asarray(density, dtype=float)
        if grid.ndim != 1 or grid.shape != density.shape or grid.size < 2:
            raise ValueError("grid and density must be 1-d arrays of equal length >= 2")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0:
            raise ValueError("support must lie in [0, inf)")
        if np.any(density < 0) or not np.all(np.isfinite(density)):
            raise ValueError("density values must be finite and nonnegative")
        cdf = np.concatenate(
            ([0.0], np.cumsum(np.diff(grid) * (density[:-1] + density[1:]) / 2.0))
        )
        total = cdf[-1]
        if abs(total - 1.0) > DENSITY_TOL:
            raise DensityNormalizationError(
                f"tabulated density integrates to {total!r}, expected 1 "
                f"within {DENSITY_TOL}"
            )
        self.grid = grid
        self.density = density
        self._cdf = cdf

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.interp(z, self.grid, self._cdf, left=0.0, right=self._cdf[-1])
        # saturate at exactly one above the support
        out = np.where(z >= self.grid[-1], 1.0, out)
        return out if out.ndim else float(out)

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.interp(z, self.grid, self.density, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        out = np.interp(u, self._cdf, self.grid)
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "grid": self.grid.tolist(),
            "density": self.density.tolist(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, TabulatedContinuous)
            and np.array_equal(self.grid, other.grid)
            and np.array_equal(self.density, other.density)
        )

    def __hash__(self):
        return hash((self.grid.tobytes(), self.density.tobytes()))


def _columnwise(margins: Sequence[MarginSpec], method: str, values) -> np.ndarray:
    """``margins[j].<method>`` applied to ``values[..., j]`` for every j,
    with one vectorized call per group of equal margins.

    Columns are grouped by object identity first, which needs no hashing
    of the margins; distinct but equal objects (one per column, as
    ``load_model`` builds them) then join one group.
    """
    values = np.asarray(values, dtype=float)
    margins = tuple(margins)
    first = margins[0]
    if margins.count(first) == len(margins):
        return np.asarray(getattr(first, method)(values), dtype=float)
    by_object: dict[int, list[int]] = {}
    for j, m in enumerate(margins):
        by_object.setdefault(id(m), []).append(j)
    groups: dict[MarginSpec, list[int]] = {}
    for cols in by_object.values():
        groups.setdefault(margins[cols[0]], []).extend(cols)
    out = np.empty(values.shape)
    for margin, cols in groups.items():
        out[..., cols] = getattr(margin, method)(values[..., cols])
    return out


def margin_from_dict(doc: dict) -> MarginSpec:
    kind = doc.get("kind")
    if kind == "frechet":
        return Frechet(alpha=float(doc["alpha"]), scale=float(doc.get("scale", 1.0)))
    if kind == "tabulated":
        return TabulatedContinuous(doc["grid"], doc["density"])
    raise ValueError(f"unknown margin kind: {kind!r}")


def standard_frechet(alpha: float = 1.0) -> Frechet:
    """Unit-scale Frechet margin."""
    return Frechet(alpha=alpha, scale=1.0)
