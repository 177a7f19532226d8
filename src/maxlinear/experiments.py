"""Experiment runners: summaries, MARMA prediction studies and the
decomposition benchmark.

Every sampling run goes through ``sampler.run_prediction``. The
self-checks (oracles and ``validate_suite``) live in
:mod:`maxlinear.oracles`. Everything here is deterministic given the
seed; repetition r of an experiment derives its substream from
(seed, r), so results do not depend on execution order or thread count.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import _check_design_size, _integer
from .hitting import hitting_structure
from .margins import standard_frechet
from .marma import (
    MarmaSpec,
    marma_coefficients,
    marma_design,
    projection_predictor,
    require_pure_mar,
    simulate_marma_window,
)
from .model import MaxLinearModel, validate_model
from .sampler import PredictionTask, RngStream, run_prediction
from .smith import SmithSpec, smith_design


def derived_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for repetition ``index`` of a seeded experiment."""
    entropy = (_integer("seed", seed, 0), _integer("index", index, 0))
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


# --- summaries ------------------------------------------------------------

def order_statistic_quantile(values: np.ndarray, level: float) -> np.ndarray:
    """Lower-nearest (type-1) quantile along axis 0 of a sorted array.

    Interpolation is deliberately avoided: conditional laws carry atoms.
    """
    num = values.shape[0]
    idx = min(max(math.ceil(level * num) - 1, 0), num - 1)
    return values[idx]


@dataclass(frozen=True)
class SummaryTable:
    """Per-coordinate summaries of a sample matrix."""

    medians: np.ndarray
    means: np.ndarray
    quantiles: dict[float, np.ndarray]
    exceedance: np.ndarray | None = None


def summarize(samples: np.ndarray, levels=(0.5, 0.95), threshold=None) -> SummaryTable:
    """Order-statistic summaries of a (num x m) sample matrix; a NaN
    ``threshold`` is a ValueError."""
    samples = np.asarray(samples, dtype=float)
    levels = tuple(sorted(float(v) for v in levels))
    if any(not 0.0 < v < 1.0 for v in levels):
        raise ValueError(f"quantile levels must lie in (0, 1): {levels}")
    if samples.shape[0] == 0:
        raise ValueError("summarize needs at least one sample, got 0 rows")
    srt = np.sort(samples, axis=0)
    quantiles = {lvl: order_statistic_quantile(srt, lvl) for lvl in levels}
    exceed = None
    if threshold is not None:
        thr = np.broadcast_to(np.asarray(threshold, dtype=float), samples.shape[1:])
        # +-inf give the exact answers 0 and 1; no sample exceeds a NaN
        if np.isnan(thr).any():
            raise ValueError(f"threshold must not be NaN, got {threshold!r}")
        exceed = (samples > thr).mean(axis=0)
    # each column scaled by a power of two into (-1, 1) for its mean, so a
    # sum past the float64 range stays finite; exact unless a value underflows
    _, e = np.frexp(np.maximum(-srt[0], srt[-1]))
    return SummaryTable(
        medians=order_statistic_quantile(srt, 0.5),
        means=np.ldexp(np.ldexp(samples, -e).mean(axis=0), e),
        quantiles=quantiles,
        exceedance=exceed,
    )


def write_sample_csv(path, Z=None, Y=None) -> None:
    """Raw sample file: one row per sample, z_* and/or y_* columns."""
    if Z is None and Y is None:
        raise ValueError("nothing to write")
    blocks = []
    header = []
    if Z is not None:
        Z = np.asarray(Z, dtype=float)
        header += [f"z_{j + 1}" for j in range(Z.shape[1])]
        blocks.append(Z)
    if Y is not None:
        Y = np.asarray(Y, dtype=float)
        header += [f"y_{k + 1}" for k in range(Y.shape[1])]
        blocks.append(Y)
    data = np.hstack(blocks)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in data:
            # Python floats print as the shortest text that round-trips
            writer.writerow(row.tolist())


def summary_rows(table: SummaryTable) -> list[dict]:
    rows = []
    m = table.medians.size
    for k in range(m):
        row = {
            "coordinate": k + 1,
            "median": table.medians[k],
            "mean": table.means[k],
        }
        for lvl, vals in table.quantiles.items():
            row[f"q{lvl:g}"] = vals[k]
        if table.exceedance is not None:
            row["exceedance_probability"] = table.exceedance[k]
        rows.append(row)
    return rows


# --- MARMA experiments ------------------------------------------------------

COVERAGE_LEVEL = 0.95  # quantile level of the coverage experiment's upper bound


def _marma_predictions(spec: MarmaSpec, reps: int, num_samples: int, seed: int):
    """Per repetition r: simulate a window from stream (seed, r), condition
    on its observed part and draw the horizon with sample seed
    ``derived_seed(seed, r)``. Yields (x_obs, y_true, Y)."""
    reps = _integer("reps", reps, 1)
    psi = marma_coefficients(spec.phi, spec.theta, spec.p)
    A, B = marma_design(psi, spec.n_observed, spec.N_horizon)
    margins = (standard_frechet(1.0),) * A.shape[1]
    for rep in range(reps):
        gen = RngStream(seed, rep).generator()
        _, x_obs, y_true = simulate_marma_window(psi, spec.n_observed, spec.N_horizon, gen)
        task = PredictionTask(
            A=A, B=B, margins=margins, x=x_obs,
            num_samples=num_samples, seed=derived_seed(seed, rep),
        )
        yield x_obs, y_true, run_prediction(task).Y


def coverage_experiment(
    spec: MarmaSpec,
    reps: int = 200,
    num_samples: int = 500,
    seed: int = 0,
) -> dict:
    """Coverage of the conditional upper-quantile bound on simulated paths.

    Per repetition: simulate a truncated path, condition on the observed
    window, draw samples of the horizon, and record per lag whether the
    true future value lies below the 0.95 quantile, plus the interval
    width (that quantile minus the smallest sampled value).
    """
    N = spec.N_horizon
    # arrays from the first repetition on: the generator checks the
    # design's size only then, and an unchecked N could be 10**12
    covered = widths = 0.0
    for _, y_true, Y in _marma_predictions(spec, reps, num_samples, seed):
        srt = np.sort(Y, axis=0)
        upper = order_statistic_quantile(srt, COVERAGE_LEVEL)
        covered += y_true <= upper
        widths += upper - srt[0]
    return {
        "lags": np.arange(1, N + 1),
        "coverage": covered / reps,
        "width": widths / reps,
        "reps": reps,
        "num_samples": num_samples,
        "upper_level": COVERAGE_LEVEL,
    }


def projection_bias_experiment(
    spec: MarmaSpec,
    reps: int = 200,
    num_samples: int = 500,
    seed: int = 0,
) -> dict:
    """Cumulative probability attained by the projection predictor.

    Estimates, per lag, the conditional probability that the process
    stays below the recursive max-AR extrapolation, averaged over
    independently simulated observation windows. Also records how often
    the predictor sits below the conditional median (the systematic
    underestimation effect).
    """
    require_pure_mar(spec)
    N = spec.N_horizon
    cumulative = below_median = 0.0  # arrays from the first repetition on
    for x_obs, _, Y in _marma_predictions(spec, reps, num_samples, seed):
        x_hat = projection_predictor(spec.phi, x_obs, N)
        cumulative += (Y <= x_hat).mean(axis=0)
        medians = order_statistic_quantile(np.sort(Y, axis=0), 0.5)
        # non-strict: at short lags the conditional median is an atom
        # sitting exactly at the predictor value
        below_median += x_hat <= medians * (1.0 + 1e-12)
    return {
        "lags": np.arange(1, N + 1),
        "cumulative_probability": cumulative / reps,
        "below_median_rate": below_median / reps,
        "reps": reps,
        "num_samples": num_samples,
    }


# --- decomposition benchmark -------------------------------------------------

def _bench_design(n: int, p: int, gen: np.random.Generator) -> MaxLinearModel:
    """Spatial-kernel design with exactly p factors and n random sites."""
    _check_design_size(n, p)  # before the n sites are drawn
    q = round(math.sqrt(p) / 2)
    if (2 * q) ** 2 != p:
        raise ValueError(f"p must be (2q)^2 for integer q, got {p}")
    sites = tuple(map(tuple, gen.uniform(-3.0, 3.0, size=(n, 2))))
    spec = SmithSpec(q=q, sites=sites, grid=())
    design = smith_design(spec, floor_ratio=0.0)
    return validate_model(design.A, [standard_frechet(1.0)] * p)


def bench_decomposition(
    n_list=(1, 5, 10, 50),
    p_list=(2500, 10000),
    draws: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Mean/std wall time of upper bounds + hitting matrix + decomposition,
    per (n, p) cell, over model-generated observations, and the mean
    count of minor page faults per timed call (``minor_faults_per_call``,
    from ``getrusage``), which shows when a cell's time goes to mapping
    fresh memory.

    The cells are timed round-robin: draw d of every cell runs before
    draw d + 1 of any, so a drift in machine speed hits every cell alike.
    Each cell keeps its own generator, so its inputs do not depend on the
    other cells.
    """
    import resource  # Unix only, so not imported with the package

    draws, seed = _integer("draws", draws, 1), _integer("seed", seed, 0)
    cells = []
    for n, p in [(_integer("n", n, 1), _integer("p", p, 1)) for n in n_list for p in p_list]:
        gen = np.random.default_rng((seed, n, p))
        cells.append((n, p, gen, _bench_design(n, p, gen)))
    _check_design_size(len(cells), draws, f"draws={draws}: the timings")
    times = np.empty((len(cells), draws))
    faults = np.zeros(len(cells))
    for d in range(-2, draws):  # two untimed warmup rounds
        for c, (_, p, gen, model) in enumerate(cells):
            Z = 1.0 / -np.log(gen.random(p))
            x = (model.A * Z).max(axis=1)
            best = np.inf
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(3):  # best-of-3 damps clock and allocator noise
                t0 = time.perf_counter()
                hitting_structure(model, x)
                best = min(best, time.perf_counter() - t0)
            if d >= 0:
                times[c, d] = best
                faults[c] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return [
        {
            "n": n,
            "p": p,
            "mean_seconds": float(t.mean()),
            "std_seconds": float(t.std(ddof=1)) if draws > 1 else 0.0,
            "median_seconds": float(np.median(t)),
            "minor_faults_per_call": float(f / (3 * draws)),
            "draws": draws,
        }
        for (n, p, _, _), t, f in zip(cells, times, faults)
    ]
