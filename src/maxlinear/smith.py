"""Discretized moving-maxima spatial model with a bivariate Gaussian kernel.

The random field is a max-moving-average of the kernel over a uniform
mesh on [-M, M]^2; each mesh cell contributes one factor with weight
h^(2/alpha) * kernel(site - cell center). Observed sites give the A
matrix, prediction sites the B matrix, over a shared (floored) factor
set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AssumptionAViolationError, _check_design_size, _convert_fields, _from_json, _integer, _real,
    _to_json,
)

DEFAULT_FLOOR_RATIO = 1e-12


def smith_kernel(t1, t2, rho: float, beta1: float, beta2: float):
    """Bivariate Gaussian density with correlation rho and precisions
    beta_i = 1/sigma_i, evaluated at (t1, t2). Vectorized."""
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must be in (-1, 1), got {rho}")
    if beta1 <= 0 or beta2 <= 0:
        raise ValueError("beta1 and beta2 must be positive")
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    one_minus = 1.0 - rho * rho
    quad = beta1**2 * t1**2 - 2.0 * rho * beta1 * beta2 * t1 * t2 + beta2**2 * t2**2
    out = beta1 * beta2 / (2.0 * np.pi * np.sqrt(one_minus)) * np.exp(
        -quad / (2.0 * one_minus)
    )
    return out if out.ndim else float(out)


def _points(points) -> tuple[tuple[float, float], ...]:
    return tuple((float(a), float(b)) for a, b in points)


@dataclass(frozen=True)
class SmithSpec:
    """Discretization and observation layout for the spatial model.

    The mesh has cell width h = M/q and covers [-M, M]^2 with (2q)^2
    cells indexed by -q <= j1, j2 <= q-1 (cell centers at
    ((j1+1/2)h, (j2+1/2)h)). The constructor converts each field to its
    type, so a spec file takes the values code does.
    """

    rho: float = 0.0
    beta1: float = 1.0
    beta2: float = 1.0
    M: float = 4.0
    q: int = 25
    alpha: float = 1.0
    sites: tuple[tuple[float, float], ...] = ()
    grid: tuple[tuple[float, float], ...] = ()

    _json_tag = {}  # a spec file holds the fields alone

    def __post_init__(self):
        _convert_fields(
            self, rho=float, beta1=float, beta2=float, M=float,
            q=lambda v: _integer("q", v, 1), alpha=float, sites=_points, grid=_points,
        )
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (-1, 1), got {self.rho}")
        if self.beta1 <= 0 or self.beta2 <= 0 or self.M <= 0 or self.alpha <= 0:
            raise ValueError("beta1, beta2, M and alpha must be positive")

    @property
    def h(self) -> float:
        return self.M / self.q

    @property
    def num_cells(self) -> int:
        return (2 * self.q) ** 2


def cell_centers(spec: SmithSpec) -> np.ndarray:
    """(p, 2) array of mesh cell centers in flat (j1-major) order."""
    h = spec.h
    idx = np.arange(-spec.q, spec.q)
    j1, j2 = np.meshgrid(idx, idx, indexing="ij")
    return np.column_stack(((j1.ravel() + 0.5) * h, (j2.ravel() + 0.5) * h))


def design_rows(spec: SmithSpec, sites) -> np.ndarray:
    """Kernel weights h^(2/alpha) * phi(site - center) for each site."""
    centers = cell_centers(spec)
    sites = np.asarray(sites, dtype=float).reshape(-1, 2)
    scale = spec.h ** (2.0 / spec.alpha)
    rows = np.empty((sites.shape[0], centers.shape[0]))
    for i, (t1, t2) in enumerate(sites):
        rows[i] = scale * smith_kernel(
            t1 - centers[:, 0], t2 - centers[:, 1], spec.rho, spec.beta1, spec.beta2
        )
    return rows


@dataclass(frozen=True)
class SmithDesign:
    """Design matrices over the kept factor columns.

    ``kept`` maps kept-column positions back to flat mesh indices.
    """

    A: np.ndarray
    B: np.ndarray
    kept: np.ndarray
    spec: SmithSpec


def smith_design(
    spec: SmithSpec, floor_ratio: float = DEFAULT_FLOOR_RATIO
) -> SmithDesign:
    """Build (A, B) for the observed sites and prediction grid.

    Columns whose entries all fall below floor_ratio times the largest
    entry (across both matrices) are dropped; the index map of kept
    columns is retained. Flooring is an approximation knob: the dropped
    columns carry negligible spectral mass at the observation and
    prediction sites.
    """
    if not spec.sites:
        raise ValueError("spec has no observed sites")
    if not (_real(floor_ratio) and floor_ratio >= 0.0):
        raise ValueError(f"floor_ratio must be a real number >= 0, got {floor_ratio!r}")
    _check_design_size(len(spec.sites) + len(spec.grid), spec.num_cells)
    A_full = design_rows(spec, spec.sites)
    B_full = (
        design_rows(spec, spec.grid)
        if spec.grid
        else np.empty((0, spec.num_cells))
    )
    stacked = np.vstack([A_full, B_full])
    threshold = floor_ratio * stacked.max()
    kept = np.flatnonzero((stacked >= threshold).any(axis=0))
    A, B = A_full[:, kept], B_full[:, kept]
    if kept.size == 0 or not (A > 0).any(axis=1).all():
        raise AssumptionAViolationError("flooring left an observed site uncovered")
    if not (A > 0).any(axis=0).all():
        raise AssumptionAViolationError("flooring left an all-zero kept column")
    return SmithDesign(A=A, B=B, kept=kept, spec=spec)


# --- spec file format -----------------------------------------------------

def load_smith_spec(path) -> SmithSpec:
    return _from_json(SmithSpec, json.loads(Path(path).read_text()), "a Smith spec")


def save_smith_spec(spec: SmithSpec, path) -> None:
    Path(path).write_text(json.dumps(spec, default=_to_json))
