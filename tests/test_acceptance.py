"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints a single ``ACCEPTANCE k (...): PASS/FAIL`` line (outside
pytest capture) and then asserts, so the gate is readable in one screen
even under ``pytest -q``. Criteria 4, 6, 7 and 8 are statistical or
timing based; their seeds are pinned so the suite is deterministic.
Criteria 1-4 call the checks in ``maxlinear.oracles``, which
``maxlinear validate`` runs too; their bands and time limits are here.
Criterion 4 draws about 6e7 rejection proposals from the box
z <= (1 + epsilon) zhat and is the largest single cost of the suite
(9-11 s of a 29-42 s run on a shared 2-vCPU machine).
"""

import math
import time

import numpy as np
import pytest

from maxlinear import (
    MarmaSpec,
    PredictionTask,
    SmithSpec,
    coverage_experiment,
    marma_coefficients,
    projection_bias_experiment,
    run_prediction,
    smith_design,
    standard_frechet,
)
from maxlinear.experiments import bench_decomposition
from maxlinear.oracles import (
    check_exact_draws,
    check_product_form,
    check_rejection_oracle,
    check_worked_examples,
)

MARMA_SPEC = MarmaSpec(phi=(0.7, 0.5, 0.3), p=500, n_observed=100, N_horizon=40)

SITES7 = (
    (0.3, 0.4),
    (-1.2, 0.9),
    (1.5, -0.7),
    (-0.4, -1.3),
    (0.9, 1.6),
    (-1.7, -0.2),
    (0.1, -0.6),
)


def _report(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        print(line)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_worked_examples(capsys):
    """Lower-triangular 3x3 model: bounds, hitting matrices, scenarios
    and the qualitative draw patterns of the three canonical cases."""
    out = check_worked_examples(seed=0)
    ok = all(out["cases"].values()) and out["draw_patterns"]
    notes = [f"x=({label}):{'ok' if good else 'BAD'}" for label, good in out["cases"].items()]
    _report(capsys, 1, "worked examples", ok, " ".join(notes))


def test_criterion_2_product_form_vs_enumeration(capsys):
    """500 random instances (n <= 6, p <= 10): the cartesian product of
    per-class candidate columns equals brute-force scenario enumeration,
    and the factorization identity holds to 1e-10 relative."""
    t0 = time.perf_counter()
    out = check_product_form(np.random.default_rng(np.random.SeedSequence((20, 2))), 500)
    elapsed = time.perf_counter() - t0
    mismatches, worst_gap = out["mismatches"], out["worst_gap"]
    ok = mismatches == 0 and worst_gap <= 1e-10 and elapsed < 30.0
    _report(
        capsys, 2, "scenario product form", ok,
        f"mismatches={mismatches}, worst gap={worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_residuation_and_exact_draws(capsys):
    """10^4 random instances: the upper bound is the residuated maximal
    pre-image and every conditional draw reproduces x to 1e-9 relative."""
    t0 = time.perf_counter()
    out = check_exact_draws(
        np.random.default_rng(np.random.SeedSequence((30, 3))), seed=3, trials=10_000
    )
    elapsed = time.perf_counter() - t0
    residuation_failures = out["residuation_failures"]
    draw_failures = out["draw_failures"]
    ok = residuation_failures == 0 and draw_failures == 0 and elapsed < 60.0
    _report(
        capsys, 3, "residuation and draw exactness", ok,
        f"residuation fails={residuation_failures}, "
        f"draw fails={draw_failures}, {elapsed:.1f}s",
    )


def test_criterion_4_rejection_oracle_ks(capsys):
    """Conditional sampler vs an independent rejection oracle on the
    worked example x = (1, 1, 3), per-coordinate two-sample KS < 0.05,
    with 2000 acceptances within epsilon = 0.005 (the check snaps the
    oracle's values near an upper bound onto it where the sampler has an
    atom)."""
    stats = check_rejection_oracle(42, 0.005, 2000, 2_000_000_000)["ks"]
    ok = all(s < 0.05 for s in stats)
    _report(
        capsys, 4, "rejection-oracle KS", ok,
        "KS=" + ", ".join(f"{s:.4f}" for s in stats),
    )


def test_criterion_5_mar3_scale_constants(capsys):
    """MAR(3) with phi = (0.7, 0.5, 0.3): the coefficient sum is 3.4 and
    the stationary 95% quantile is 3.4 / (-ln 0.95) = 66.29."""
    psi = marma_coefficients(MARMA_SPEC.phi, (), MARMA_SPEC.p)
    psi_sum = float(psi.sum())
    q95 = psi_sum / (-math.log(0.95))
    ok = abs(psi_sum - 3.4) <= 0.01 and abs(q95 - 66.29) <= 0.05
    _report(
        capsys, 5, "MAR(3) scale constants", ok,
        f"sum psi={psi_sum:.6f}, q95={q95:.4f}",
    )


def test_criterion_6_projection_predictor_bias(capsys):
    """200 repetitions x 500 samples: the cumulative probability attained
    by the projection predictor is 65-76% at lag 1 and at most 6% by
    lag 10 (the predictor drifts into the lower tail)."""
    out = projection_bias_experiment(MARMA_SPEC, reps=200, num_samples=500, seed=0)
    probs = out["cumulative_probability"]
    lag1, lag10 = float(probs[0]), float(probs[9])
    ok = 0.65 <= lag1 <= 0.76 and lag10 <= 0.06
    _report(
        capsys, 6, "projection predictor bias", ok,
        f"lag1={lag1:.4f}, lag10={lag10:.4f}",
    )


def test_criterion_7_interval_coverage(capsys):
    """200 repetitions x 500 samples: 95% upper-quantile coverage lies in
    [0.92, 0.98] at lags 1, 5, 10 and 40, and the lag-40 interval width
    is within 15% of the stationary value 65.4."""
    out = coverage_experiment(MARMA_SPEC, reps=200, num_samples=500, seed=0)
    idx = np.array([1, 5, 10, 40]) - 1
    cov = out["coverage"][idx]
    width40 = float(out["width"][39])
    ok = bool(np.all((cov >= 0.92) & (cov <= 0.98))) and abs(width40 - 65.4) / 65.4 <= 0.15
    _report(
        capsys, 7, "prediction interval coverage", ok,
        "cov=" + ", ".join(f"{c:.3f}" for c in cov) + f", width40={width40:.1f}",
    )


def test_criterion_8_decomposition_scaling(capsys):
    """Wall-time scaling of the structure computation: quadrupling p
    multiplies the cost by 2-8x at every n, and going from n = 5 to
    n = 50 multiplies it by 5-20x at every p."""
    cells = bench_decomposition(seed=0)
    mean = {(c["n"], c["p"]): c["mean_seconds"] for c in cells}
    faults = {(c["n"], c["p"]): c["minor_faults_per_call"] for c in cells}
    p_ratios = {n: mean[(n, 10000)] / mean[(n, 2500)] for n in (1, 5, 10, 50)}
    n_ratios = {p: mean[(50, p)] / mean[(5, p)] for p in (2500, 10000)}
    ok = all(2.0 <= r <= 8.0 for r in p_ratios.values()) and all(
        5.0 <= r <= 20.0 for r in n_ratios.values()
    )
    _report(
        capsys, 8, "decomposition scaling", ok,
        "p-ratios=" + ", ".join(f"{r:.2f}" for r in p_ratios.values())
        + "; n-ratios=" + ", ".join(f"{r:.2f}" for r in n_ratios.values())
        # not gated: a time spent mapping fresh memory shows here
        + f"; minor faults per call at (50, 10000)={faults[(50, 10000)]:.1f}",
    )


def test_criterion_9_spatial_prediction(capsys):
    """Smith-type spatial design, 7 sites all observed at value 5:
    500 conditional samples give finite positive medians and upper
    quantiles everywhere, and prediction rows placed at the observation
    sites reproduce the value 5 exactly."""
    spec = SmithSpec(q=25, sites=SITES7, grid=((0.0, 0.0), (2.0, 2.0)) + SITES7)
    design = smith_design(spec)
    x = np.full(7, 5.0)
    task = PredictionTask(
        A=design.A,
        B=design.B,
        margins=(standard_frechet(1.0),) * design.A.shape[1],
        x=x,
        num_samples=500,
        seed=9,
    )
    Y = run_prediction(task).Y
    srt = np.sort(Y, axis=0)
    medians = srt[249]
    q95 = srt[474]
    site_rows = medians[2:]  # rows 2..8 of B sit at the observation sites
    ok = (
        bool(np.all(np.isfinite(Y)) and np.all(Y > 0))
        and bool(np.all(medians > 0) and np.all(q95 >= medians))
        and bool(np.allclose(site_rows, 5.0, rtol=1e-9, atol=0.0))
    )
    worst = float(np.abs(site_rows - 5.0).max())
    _report(
        capsys, 9, "spatial prediction", ok,
        f"median range=[{medians.min():.3f}, {medians.max():.3f}], "
        f"site reproduction err={worst:.2e}",
    )
