"""Margin specifications for the independent factors of a max-linear model.

A margin is a continuous nonnegative distribution exposing density, CDF,
quantile, the logarithms of the first two, and the one inverse the sampler
calls, ``_hazard_quantile(h)``: the quantile at ``exp(-h)``.
The Frechet family is the principal instance; ``TabulatedContinuous``
supports arbitrary grid-based densities so the general weight formulas
can be exercised beyond the Frechet case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DensityNormalizationError, _convert_fields, _converted, _from_json, _json_field

DENSITY_TOL = 1e-9
# buckets of [0, 1) per grid point in a tabulated margin's quantile index
BUCKETS_PER_KNOT = 8


def _readonly(a) -> np.ndarray:
    """A read-only C-ordered copy: the caller's array stays writeable, and
    later writes to it (or to the base of a view) do not reach the copy."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


class MarginSpec:
    """Common interface for margins: cdf, pdf, quantile and log variants."""

    # the largest z with F(z) = 0: no mass lies below a bound at or under it
    lower_end = 0.0

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

    def log_reversed_hazard(self, z):
        """log(f / F)(z), the log of the reversed hazard rate: the one
        margin term of the class weights. Undefined (NaN) where F = 0."""
        with np.errstate(invalid="ignore"):
            return self.log_pdf(z) - self.log_cdf(z)

    def _hazard_quantile(self, h):
        """Quantile at ``exp(-h)``, the inverse of ``-log_cdf``: the
        truncated draw's last step. May overwrite the array ``h`` and
        return it."""
        return self.quantile(np.exp(0.0 - h))


@dataclass(frozen=True)
class Frechet(MarginSpec):
    """Frechet law with shape ``alpha`` and scale ``scale``.

    CDF: F(z) = exp(-scale^alpha * z^(-alpha)) for z > 0.
    Density: f(z) = alpha * scale^alpha * z^(-alpha-1) * F(z), so the
    reversed hazard f / F = alpha * scale^alpha * z^(-alpha-1) needs no CDF.
    Quantile: Q(u) = scale * (-ln u)^(-1/alpha), so that
    Q(exp(-h)) = scale * h^(-1/alpha) needs no exponential.
    """

    alpha: float
    scale: float = 1.0

    # a model file's tag for this class, ahead of its fields
    _json_tag = {"kind": "frechet"}

    def __post_init__(self):
        _convert_fields(self, alpha=float, scale=float)
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

    def log_reversed_hazard(self, z):
        # finite for every positive finite z, where F(z) may underflow
        log_c = np.log(self.alpha) + self.alpha * np.log(self.scale)
        return log_c - (self.alpha + 1.0) * np.log(z)

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        zp = np.where(z > 0, z, 1.0)
        out = np.where(z > 0, self.log_reversed_hazard(zp) + self.log_cdf(zp), -np.inf)
        return out if out.ndim else float(out)

    def pdf(self, z):
        return np.exp(self.log_pdf(z))

    def quantile(self, u):
        # u <= 0 clips to log 0 = -inf and Q = 0; 0 - log u rather than
        # -log u, so that u = 1 gives h = +0 and Q = +inf
        with np.errstate(divide="ignore"):
            h = np.subtract(0.0, np.log(np.clip(u, 0.0, 1.0)), out=np.empty(np.shape(u)))
        out = self._hazard_quantile(h)
        return out if out.ndim else float(out)

    def _hazard_quantile(self, h):
        # the truncated-draw kernel: scale * h ** (-1/alpha), in place. At
        # alpha = 1 the reciprocal gives the power's bits in half its time
        with np.errstate(divide="ignore"):
            if self.alpha == 1.0:
                np.reciprocal(h, out=h)
            else:
                np.power(h, -1.0 / self.alpha, out=h)
        if self.scale != 1.0:
            h *= self.scale
        return h


class TabulatedContinuous(MarginSpec):
    """Margin defined by a density tabulated on a grid.

    The density is interpreted as piecewise linear between grid points and
    zero outside; it must integrate to one within ``DENSITY_TOL`` under
    the trapezoid rule (no silent renormalization).
    """

    _json_tag = {"kind": "tabulated"}

    def __init__(self, grid, density):
        # + 0.0 turns -0.0 into +0.0: equal tables have equal bytes
        grid = _converted("grid", np.asarray, grid, dtype=float) + 0.0
        density = _converted("density", np.asarray, density, dtype=float) + 0.0
        if grid.ndim != 1 or grid.shape != density.shape or grid.size < 2:
            raise ValueError("grid and density must be 1-d arrays of equal length >= 2")
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid values must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0:
            raise ValueError("support must lie in [0, inf)")
        if np.any(density < 0) or not np.all(np.isfinite(density)):
            raise ValueError("density values must be finite and nonnegative")
        # a mass beyond the float range is inf, which the check below names
        with np.errstate(over="ignore"):
            cdf = np.concatenate(
                ([0.0], np.cumsum(np.diff(grid) * (density[:-1] + density[1:]) / 2.0))
            )
        total = cdf[-1]
        if abs(total - 1.0) > DENSITY_TOL:
            raise DensityNormalizationError(
                f"tabulated density integrates to {total!r}, expected 1 "
                f"within {DENSITY_TOL}"
            )
        self.grid = _readonly(grid)
        self.density = _readonly(density)
        self._cdf = _readonly(cdf)
        self.lower_end = float(grid[np.flatnonzero(cdf == 0.0)[-1]])
        self._key = (self.grid.tobytes(), self.density.tobytes())
        self._hash = hash(self._key)
        # the quantile's tables: each segment's slope as np.interp forms
        # it, and for each of the equal buckets of [0, 1) the last knot at
        # or below the bucket's left edge (a zero-width segment gets an
        # inf slope, which the quantile's check never lets through)
        with np.errstate(divide="ignore"):
            self._slopes = _readonly(np.diff(grid) / np.diff(cdf))
        self._buckets = BUCKETS_PER_KNOT * grid.size
        edges = np.arange(self._buckets) / self._buckets
        knots = np.searchsorted(cdf, edges, side="right") - 1
        self._bucket_knot = np.clip(knots, 0, grid.size - 2)
        self._bucket_knot.setflags(write=False)

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
        """The inverse of the piecewise-linear CDF, bitwise equal to
        ``np.interp(u, self._cdf, self.grid)`` without its binary search
        per value.

        The bucket of u names a knot j. Where _cdf[j] < u < _cdf[j + 1], u
        lies inside segment j, and the value is np.interp's own expression
        slope[j] * (u - _cdf[j]) + grid[j]. The other values (past a knot
        in their bucket, on a knot, outside (0, 1) or NaN) go to np.interp.
        """
        u = np.asarray(u, dtype=float)
        if not u.ndim:
            return float(np.interp(u, self._cdf, self.grid))
        # the bucket of a NaN or an out-of-range u may be any index, as the
        # check is exact; a value the check rejects may form inf * 0 before
        # np.interp replaces it, and one it passes overflows as in np.interp
        with np.errstate(invalid="ignore", over="ignore"):
            bucket = (u * self._buckets).astype(np.intp)
            j = self._bucket_knot.take(bucket, mode="clip")
            lo = self._cdf.take(j)
            inside = lo < u
            inside &= u < self._cdf[1:].take(j)
            out = u - lo
            out *= self._slopes.take(j)
            out += self.grid.take(j)
        if not inside.all():
            outside = ~inside
            out[outside] = np.interp(u[outside], self._cdf, self.grid)
        return out

    def __eq__(self, other):
        return isinstance(other, TabulatedContinuous) and self._key == other._key

    def __hash__(self):
        return self._hash


def margin_groups(margins: Sequence[MarginSpec]) -> tuple[tuple, np.ndarray]:
    """``(kinds, label)``: the distinct margins, and for each column the index
    of its margin in ``kinds``; equal margins are one kind. The one grouping
    rule: callers pass the pair, or ``(kinds, label[cols])``, to _columnwise."""
    if margins.count(margins[0]) == len(margins):
        return (margins[0],), np.zeros(len(margins), dtype=np.intp)
    kinds: dict[MarginSpec, int] = {}
    label = [kinds.setdefault(m, len(kinds)) for m in margins]
    return tuple(kinds), np.array(label, dtype=np.intp)


def _columnwise(groups, method: str, values) -> np.ndarray:
    """``kinds[label[j]].<method>`` applied to ``values[..., j]`` for every j,
    one vectorized call per kind, with ``(kinds, label) = groups``. A method
    that works in place, like ``_hazard_quantile``, may overwrite ``values``."""
    # on values.T, whose first axis indexes the columns: for a column-major
    # sample matrix every kind gathers and scatters whole contiguous columns
    kinds, label = groups
    vt = np.asarray(values, dtype=float).T
    if len(kinds) == 1:
        return np.asarray(getattr(kinds[0], method)(vt), dtype=float).T
    out = np.empty(vt.shape)
    for k, margin in enumerate(kinds):
        cols = np.flatnonzero(label == k)
        out[cols] = getattr(margin, method)(vt[cols])
    return out.T


# the margin classes of a model file by the kind tag each one declares
MARGIN_KINDS = {cls._json_tag["kind"]: cls for cls in (Frechet, TabulatedContinuous)}


def margin_from_dict(doc: dict) -> MarginSpec:
    kind = _json_field(doc, "kind", "a margin")
    if not isinstance(kind, str) or kind not in MARGIN_KINDS:
        raise ValueError(f"unknown margin kind: {kind!r}")
    fields = {key: value for key, value in doc.items() if key != "kind"}
    return _from_json(MARGIN_KINDS[kind], fields, f"a {kind} margin")


def standard_frechet(alpha: float = 1.0) -> Frechet:
    """Unit-scale Frechet margin."""
    return Frechet(alpha=alpha, scale=1.0)
